package dp

import (
	"repro/internal/bitset"
	"repro/internal/graph"
)

// CounterReport captures, for one query, the EvaluatedCounter each
// enumeration strategy incurs together with the query's CCP-Counter lower
// bound. Counts for DPSub and DPSize are derived in closed form from the
// connected-set census (they depend only on how many connected sets exist
// per size), while the MPDP count follows from the per-set block structure;
// this lets Fig. 2 and Fig. 4 report counters for query sizes where actually
// executing DPSub or DPSize would take hours.
//
// MPDPEvaluated is the paper's count and the GPU kernel's volume: every
// proper subset of every block (UnrankedPairs), or 2(|S|−1) per set on a
// tree. A CPU MPDP run reports at most that in Stats.Evaluated — it walks
// the connected subsets of a block that lack the block's lowest vertex,
// counting a valid pair twice and an invalid one once — and exactly that on
// trees and cliques. The census itself is collected by the walk that
// buckets the DP's connected sets (csgWalk).
type CounterReport struct {
	// PerSizeConnected[i] is the number of connected subsets of size i.
	PerSizeConnected []uint64
	ConnectedSets    uint64
	// CCP is the CCP-Counter (symmetric count), identical for every optimal
	// algorithm (§2.1).
	CCP uint64
	// EvaluatedCounter of each enumeration strategy.
	DPSubEvaluated  uint64
	DPSizeEvaluated uint64
	MPDPEvaluated   uint64
	DPCCPEvaluated  uint64 // equals CCP: DPCCP enumerates only valid pairs
}

// Counters computes the census-based counter report without running any
// full optimization.
func Counters(in Input) (CounterReport, error) {
	var rep CounterReport
	g := in.Q.G
	n := g.N
	if n > 64 {
		return rep, ErrTooLarge
	}
	dl := in.NewDeadline()
	isTree := g.IsTree()

	cnt := make([]uint64, n+1)
	var bsc graph.BlockScratch
	var w csgWalk
	w.start(g, bitset.Full(n))
	for s := w.next(); !s.Empty(); s = w.next() {
		if dl.Expired() {
			return rep, dl.Err()
		}
		c := s.Count()
		cnt[c]++
		switch {
		case c < 2:
		case isTree:
			// Algorithm 2: one evaluation per edge of the induced tree,
			// costed in both orientations.
			rep.MPDPEvaluated += uint64(2 * (c - 1))
		default:
			rep.MPDPEvaluated += UnrankedPairs(g, s, &bsc)
		}
	}
	rep.PerSizeConnected = cnt
	for size := 1; size <= n; size++ {
		rep.ConnectedSets += cnt[size]
	}
	for size := 2; size <= n; size++ {
		rep.DPSubEvaluated += cnt[size] << uint(size)
		for s1 := 1; s1 < size; s1++ {
			rep.DPSizeEvaluated += cnt[s1] * cnt[size-s1]
		}
	}
	// CCP via the output-sensitive csg-cmp enumeration.
	if isTree {
		// Closed form: each connected tree set of size c has 2(c-1)
		// bipartitions (one per removed edge, both orientations).
		for size := 2; size <= n; size++ {
			rep.CCP += cnt[size] * uint64(2*(size-1))
		}
	} else {
		ok := ccpPairs(g, dl, func(_, _ bitset.Mask) { rep.CCP += 2 })
		if !ok {
			return rep, dl.Err()
		}
	}
	rep.DPCCPEvaluated = rep.CCP
	return rep, nil
}
