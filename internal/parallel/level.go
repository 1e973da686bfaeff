package parallel

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/plan"
)

// minSetsPerWorker is the fewest sets of one level a worker must be handed
// before it is started for that level. A sparse set costs 1–2 µs to
// evaluate and a goroutine costs several to start, park and fold, so a
// cycle-24 (24 sets on each of 23 levels) or a chain runs entirely on the
// calling goroutine, while the middle levels of a clique, a star or a
// MusicBrainz walk (hundreds to thousands of sets) fan out. Sized from the
// benchmark's parallel.speedup probe on a 2-vCPU host: see DESIGN.md, "The
// level barrier".
const minSetsPerWorker = 64

// chunkPairs is the fewest candidate pairs one draw from the level cursor
// should carry. Every draw of every worker writes the cursor's cache line;
// a pair costs ~30 ns, so a draw worth 256 of them keeps that line under a
// hundredth of the level's work where a draw per set (one pair on a star's
// second level) made it a tenth.
const chunkPairs = 256

// chunkSets is how many sets of a level one draw hands out. A set of size
// relations has at least size-1 candidate pairs (exactly that many under
// Algorithm 2), so the level's volume is known before it runs: a draw is
// an eighth of one worker's even share of it — the most the slowest worker
// can trail the others by — but never fewer sets than chunkPairs pairs, and
// the whole level when there is nobody to share it with.
func chunkSets(sets, size, active int) int {
	if active == 1 {
		return max(sets, 1)
	}
	return max(sets/(8*active), (chunkPairs+size-2)/(size-1))
}

// Levels is the level barrier of the level-synchronous drivers — the CPU
// counterpart of the paper's one-kernel-per-level structure (§5), shared by
// the CPU-parallel enumerators and the GPU model's tree path. Run evaluates
// the connected sets of one size and returns once all of them are in the
// table, so every set of the next size finds its children.
//
// Before any worker starts, the caller claims every set of the level in the
// table (plan.Table.Claim), serially. Sets are then work-stolen (per-set
// cost varies wildly with block structure) a chunk of consecutive indices
// at a time (chunkSets), so every set has exactly one producer: the worker
// that drew it writes its winner straight into the set's own slot
// (plan.Table.PutAt) and counts into its own dp.Stats, and the barrier only
// folds the counts. That is race-free without an atomic: a level's
// evaluators read only strictly smaller sets, stored by earlier levels;
// keys and presence bits do not change while the workers run, and starting
// them is the happens-before edge from the claims; a worker writes only the
// lanes of the slots of the sets it drew; and the table is pre-sized from
// the census, so no claim grows it (one that did would still finish before
// any worker probes). Plans and counters
// are the same bits at any worker count, no shared word is touched per set,
// the work-stealing cursor once per chunk, and no plan node exists until
// Finish.
//
// The calling goroutine is worker 0. Further workers are goroutines started
// for one level and joined at its barrier, and only for a level with at
// least minSetsPerWorker sets for each of them. Every worker keeps one
// evaluator scratch and one dp.Deadline for the whole run, so the deadline
// poll interval counts candidate pairs across levels. The scratches are the
// input's workspace's (dp.Workspace); Run joins every goroutine it started
// before it returns, error or not, so once it has returned nothing of the
// run touches the workspace again.
type Levels struct {
	in       dp.Input
	evaluate dp.SetEvaluator
	tab      *plan.Table
	buckets  [][]bitset.Mask
	workers  []levelWorker
	next     atomic.Int64 // work-stealing cursor: the first set no draw has handed out
	wg       sync.WaitGroup
	spawned  int // goroutines started so far
}

// levelWorker is the state one worker carries from level to level.
type levelWorker struct {
	dl    *dp.Deadline
	sc    *dp.Scratch
	stats dp.Stats // of the level just drained
	err   error
}

// NewLevels prepares a run of evaluate over buckets (as returned by
// dp.ConnectedBuckets) into tab with at most workers concurrent workers.
func NewLevels(in dp.Input, evaluate dp.SetEvaluator, tab *plan.Table, buckets [][]bitset.Mask, workers int) *Levels {
	l := &Levels{
		in: in, evaluate: evaluate, tab: tab, buckets: buckets,
		workers: make([]levelWorker, max(workers, 1)),
	}
	for w := range l.workers {
		l.workers[w].dl = in.NewDeadline()
		l.workers[w].sc = in.Workspace.Scratch(w)
	}
	return l
}

// Run evaluates every connected set of the given size, stores the winners
// in the table and returns the level's folded counters. On error (budget
// or cancellation) the counters are those of the sets whose evaluation
// finished, and the table is left with the level claimed and only partly
// written: the run is over, and the table is good for nothing but the
// Reset of the next one.
func (l *Levels) Run(size int) (dp.Stats, error) {
	sets := l.buckets[size]
	for _, s := range sets {
		l.tab.Claim(s)
	}
	l.next.Store(0)
	active := min(len(l.workers), max(len(sets)/minSetsPerWorker, 1))
	chunk := chunkSets(len(sets), size, active)
	l.wg.Add(active - 1)
	for w := 1; w < active; w++ {
		go l.drainAndDone(&l.workers[w], sets, chunk)
	}
	l.spawned += active - 1
	l.drain(&l.workers[0], sets, chunk)
	l.wg.Wait()

	var stats dp.Stats
	var failed error
	for w := range l.workers[:active] {
		stats.Add(l.workers[w].stats)
		if failed == nil {
			failed = l.workers[w].err
		}
	}
	return stats, failed
}

// drainAndDone is drain for a worker started as a goroutine.
func (l *Levels) drainAndDone(w *levelWorker, sets []bitset.Mask, chunk int) {
	defer l.wg.Done()
	l.drain(w, sets, chunk)
}

// drain is one worker's share of a level: it draws chunks of set indices
// from the cursor until none are left, evaluates each set it drew and
// writes the winner into that set's claimed slot. A worker whose evaluation
// fails (its deadline tripped) stores and counts nothing for that set and
// moves the cursor past the end, so its siblings stop once the chunk they
// hold is done. A set that evaluates without error to no winner is a broken
// evaluator — a connected set of two relations or more always has a split —
// and panics, like a missing child does in MustSlot, rather than leave a
// claimed slot unwritten for the next level to read.
//
//mpdp:hotpath
func (l *Levels) drain(w *levelWorker, sets []bitset.Mask, chunk int) {
	// Locals, so that the loop touches nothing of l but the cursor.
	in, evaluate, tab := l.in, l.evaluate, l.tab
	var stats dp.Stats
	var err error
	for err == nil {
		hi := int(l.next.Add(int64(chunk)))
		lo := hi - chunk
		if lo >= len(sets) {
			break
		}
		for i := lo; i < min(hi, len(sets)) && err == nil; i++ {
			var win dp.Winner
			var st dp.Stats
			win, st, err = evaluate(in, tab, sets[i], w.dl, w.sc)
			stats.Add(st)
			if err == nil {
				if !win.Found {
					panic("parallel: a connected set was evaluated to no plan")
				}
				tab.PutAt(tab.MustSlot(sets[i]), win)
				stats.ConnectedSets++
			}
		}
	}
	if err != nil {
		l.next.Store(int64(len(sets)))
	}
	w.stats, w.err = stats, err
}
