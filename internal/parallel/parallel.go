// Package parallel implements the multi-core CPU optimizers compared in the
// paper: PDP (parallel DPSize, Han et al. [10]), DPE (dependency-aware
// producer/consumer parallel DPCCP, Han & Lee [11]) and the level-synchronous
// CPU-parallel MPDP. Their scalability characteristics differ exactly as in
// Fig. 12: MPDP parallelizes both enumeration and costing, while DPE's
// enumeration is sequential and only join costing runs on the workers.
package parallel

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/plan"
)

// threads resolves the requested worker count.
func threads(in dp.Input) int {
	t := in.Threads
	if t <= 0 {
		t = runtime.GOMAXPROCS(0)
	}
	return t
}

// MPDP is the CPU-parallel MPDP: within each DP level, the connected sets of
// that size are work-stolen by the workers, each evaluating its sets
// independently (block discovery, block-level CCP enumeration, grow, and
// costing all run inside the worker — the whole inner loop is parallel).
// The per-level barrier mirrors the GPU kernel-per-level structure of §5.
// Tree join graphs dispatch to the Algorithm 2 evaluator, like dp.MPDP.
func MPDP(in dp.Input) (*plan.Node, dp.Stats, error) {
	if in.Q.G.IsTree() {
		return levelParallel(in.ForTree(), dp.EvaluateSetMPDPTree)
	}
	return levelParallel(in, dp.EvaluateSetMPDP)
}

// levelParallel is the driver of the level-synchronous enumerators:
// evaluate is invoked for every connected set of each size, the sets of one
// size in parallel behind the shared level barrier (Levels).
func levelParallel(in dp.Input, evaluate dp.SetEvaluator) (*plan.Node, dp.Stats, error) {
	var stats dp.Stats
	prep, err := dp.Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	buckets, err := dp.ConnectedBuckets(in)
	if err != nil {
		return nil, stats, err
	}
	tab := prep.Seed(dp.BucketCount(buckets))
	stats.ConnectedSets = uint64(in.Q.N())
	levels := NewLevels(in, evaluate, tab, buckets, threads(in))
	for size := 2; size <= in.Q.N(); size++ {
		st, err := levels.Run(size)
		stats.Add(st)
		if err != nil {
			return nil, stats, err
		}
	}
	return dp.Finish(in, tab, prep.Leaves, &stats)
}

// DPSubParallel is the CPU-parallel DPSub, provided for completeness (the
// paper omits it from the graphs because it is dominated by its GPU
// variant); it shares the level-parallel driver with a DPSub set evaluator.
func DPSubParallel(in dp.Input) (*plan.Node, dp.Stats, error) {
	return levelParallel(in, dp.EvaluateSetDPSub)
}

// result is one candidate best plan for a set, accumulated by value in the
// per-worker locals of the baselines PDP and DPE.
type result struct {
	set bitset.Mask
	win dp.Winner
}

// PDP is parallel DPSize [10]: for each plan size, the (size1, size2) pair
// blocks are partitioned across workers. Like DPSize it evaluates many
// overlapping and disconnected pairs; parallelism hides some of that cost.
func PDP(in dp.Input) (*plan.Node, dp.Stats, error) {
	var stats dp.Stats
	prep, err := dp.Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()
	tab := prep.Seed(plan.TableSizeHint(n))
	nWorkers := threads(in)

	bySize := make([][]bitset.Mask, n+1)
	for i := 0; i < n; i++ {
		bySize[1] = append(bySize[1], bitset.Single(i))
	}
	stats.ConnectedSets = uint64(n)

	var evalCtr, ccpCtr atomic.Uint64
	for size := 2; size <= n; size++ {
		// Work units: the (s1, size-s1) pair blocks of this size.
		blocks := make([]int, 0, size-1)
		for s1 := 1; s1 < size; s1++ {
			blocks = append(blocks, s1)
		}
		results := make([][]result, nWorkers)
		errs := make([]error, nWorkers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				dl := in.NewDeadline()
				local := map[bitset.Mask]dp.Winner{}
				for {
					bi := int(next.Add(1)) - 1
					if bi >= len(blocks) {
						break
					}
					s1 := blocks[bi]
					s2 := size - s1
					for _, a := range bySize[s1] {
						pa := tab.MustView(a)
						for _, b := range bySize[s2] {
							if dl.Expired() {
								errs[w] = dl.Err()
								return
							}
							evalCtr.Add(1)
							if !a.Disjoint(b) {
								continue
							}
							if !in.Q.G.ConnectedTo(a, b) {
								continue
							}
							ccpCtr.Add(1)
							union := a.Union(b)
							pb := tab.MustView(b)
							op, rows, c := in.M.JoinEvalEntry(in.Q, pa, pb)
							if cur, ok := local[union]; !ok || c < cur.Cost {
								local[union] = dp.Winner{Left: a, Right: b, Op: op, Rows: rows, Cost: c, Found: true}
							}
						}
					}
				}
				out := make([]result, 0, len(local))
				for s, win := range local {
					out = append(out, result{set: s, win: win})
				}
				results[w] = out
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				stats.Evaluated = evalCtr.Load()
				stats.CCP = ccpCtr.Load()
				return nil, stats, err
			}
		}
		for _, rs := range results {
			for _, r := range rs {
				if !tab.Has(r.set) {
					bySize[size] = append(bySize[size], r.set)
					stats.ConnectedSets++
				}
				tab.Improve(r.set, r.win)
			}
		}
	}
	stats.Evaluated = evalCtr.Load()
	stats.CCP = ccpCtr.Load()
	return dp.Finish(in, tab, prep.Leaves, &stats)
}

// DPE is the dependency-aware parallel DPCCP [11]: a single producer runs
// the csg-cmp enumeration (inherently sequential), buffering the pairs
// grouped by result-set size; consumers cost the buffered pairs in
// parallel, one dependency level at a time. Enumeration therefore does not
// scale with threads — the effect visible in Fig. 12.
func DPE(in dp.Input) (*plan.Node, dp.Stats, error) {
	var stats dp.Stats
	prep, err := dp.Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()
	tab := prep.Seed(plan.TableSizeHint(n))
	nWorkers := threads(in)
	stats.ConnectedSets = uint64(n)

	// Producer phase: sequential enumeration into a dependency-aware buffer.
	type pair struct{ s1, s2 bitset.Mask }
	levels := make([][]pair, n+1)
	dl := in.NewDeadline()
	if !dp.CCPPairsSeq(in.Q.G, dl, func(s1, s2 bitset.Mask) {
		size := s1.Union(s2).Count()
		levels[size] = append(levels[size], pair{s1, s2})
	}) {
		return nil, stats, dl.Err()
	}

	for size := 2; size <= n; size++ {
		work := levels[size]
		if len(work) == 0 {
			continue
		}
		stats.Evaluated += uint64(2 * len(work))
		stats.CCP += uint64(2 * len(work))
		chunk := (len(work) + nWorkers - 1) / nWorkers
		results := make([][]result, nWorkers)
		errs := make([]error, nWorkers)
		var wg sync.WaitGroup
		for w := 0; w < nWorkers; w++ {
			lo := w * chunk
			if lo >= len(work) {
				break
			}
			hi := min(lo+chunk, len(work))
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				wdl := in.NewDeadline()
				local := map[bitset.Mask]dp.Winner{}
				for _, p := range work[lo:hi] {
					if wdl.Expired() {
						errs[w] = wdl.Err()
						return
					}
					l, r := tab.MustView(p.s1), tab.MustView(p.s2)
					union := p.s1.Union(p.s2)
					rows := l.Rows * r.Rows * in.Q.SelBetween(p.s1, p.s2)
					var bw dp.Winner
					op, c := in.M.JoinEvalEntryRows(in.Q, l, r, rows)
					bw = dp.Winner{Left: p.s1, Right: p.s2, Op: op, Rows: rows, Cost: c, Found: true}
					if op, c2 := in.M.JoinEvalEntryRows(in.Q, r, l, rows); c2 < bw.Cost {
						bw = dp.Winner{Left: p.s2, Right: p.s1, Op: op, Rows: rows, Cost: c2, Found: true}
					}
					if cur, ok := local[union]; !ok || bw.Cost < cur.Cost {
						local[union] = bw
					}
				}
				out := make([]result, 0, len(local))
				for s, win := range local {
					out = append(out, result{set: s, win: win})
				}
				// Deterministic merge order within the worker.
				sort.Slice(out, func(i, j int) bool { return out[i].set < out[j].set })
				results[w] = out
			}(w, lo, hi)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, stats, err
			}
		}
		for _, rs := range results {
			for _, r := range rs {
				if !tab.Has(r.set) {
					stats.ConnectedSets++
				}
				tab.Improve(r.set, r.win)
			}
		}
	}
	return dp.Finish(in, tab, prep.Leaves, &stats)
}
