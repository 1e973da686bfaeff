package dp

import (
	"repro/internal/bitset"
	"repro/internal/plan"
)

// DPSub is the subset-driven dynamic program of Vance & Maier [34] as
// presented in the paper's Algorithm 1: for every connected set S of each
// size, every one of the 2^|S| subsets S_left is evaluated as a potential
// join pair (S_left, S \ S_left) and checked against the four CCP
// conditions of §2.1. Highly parallelizable, but EvaluatedCounter can
// exceed CCPCounter by orders of magnitude (Fig. 4).
func DPSub(in Input) (*plan.Node, Stats, error) {
	return RunLevels(in, EvaluateSetDPSub, 1, nil)
}

// EvaluateSetDPSub performs the per-set body of Algorithm 1 (lines 8-23):
// exhaustive subset enumeration with the four-condition CCP block. Both
// sides' connectivity checks are table lookups: every connected set of a
// smaller size is already stored, so presence doubles as the connectivity
// test, and the same cost-lane probe fetches the operand of the child-cost
// bound; the entries are viewed only for pairs the bound lets through.
func EvaluateSetDPSub(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, _ *Scratch) (Winner, Stats, error) {
	var stats Stats
	g := in.Q.G
	// Line 8 of Algorithm 1 walks every S_left ⊆ S; the empty and full
	// subsets fail the CCP block immediately but still count.
	stats.Evaluated += uint64(1) << uint(s.Count())
	var bw bestWin
	for lb := s.LowestBit(); !lb.Empty(); lb = lb.NextSubset(s) {
		if dl != nil && dl.Expired() {
			return bw.Winner, stats, dl.Err()
		}
		rb := s.Diff(lb)
		// CCP block (lines 12-16): non-empty, connected sides, disjoint
		// (by construction), edge between them.
		if rb.Empty() {
			continue
		}
		lc, ok := tab.Cost(lb)
		if !ok {
			continue
		}
		rc, ok := tab.Cost(rb)
		if !ok {
			continue
		}
		if !g.ConnectedTo(lb, rb) {
			continue
		}
		stats.CCP++
		if bw.hopeless(lc, rc, tab.IsLeaf(rb)) {
			continue
		}
		op, rows, c := in.M.JoinEvalEntry(in.Q, tab.MustView(lb), tab.MustView(rb))
		bw.offer(lb, rb, op, rows, c)
	}
	return bw.Winner, stats, nil
}
