package plan

import "repro/internal/bitset"

// Memo maps relation sets to their best known sub-plan — the original
// Go-map dynamic programming table ("BestPlan" in Algorithms 1–3). The DP
// hot paths have moved to the allocation-free Table; Memo remains as the
// simple reference implementation the differential and property tests
// check Table against.
type Memo struct {
	m map[bitset.Mask]*Node
}

// NewMemo returns an empty memo sized for a query of n relations. The
// pre-size is a capped heuristic: the number of connected sets is only
// 2^n for dense graphs, so beyond a few thousand buckets the memo grows on
// demand instead of pre-allocating a megabucket map (a 20-relation chain
// has 211 connected sets, not a million). The DP drivers themselves size
// their plan.Table from the actual connected-set census
// (dp.ConnectedBuckets).
func NewMemo(n int) *Memo {
	return &Memo{m: make(map[bitset.Mask]*Node, TableSizeHint(n))}
}

// Get returns the best plan for set s, or nil.
func (mm *Memo) Get(s bitset.Mask) *Node { return mm.m[s] }

// Put unconditionally stores p as the plan for set s.
func (mm *Memo) Put(s bitset.Mask, p *Node) { mm.m[s] = p }

// Improve stores p for s if it beats the current best; it returns true when
// p was installed.
func (mm *Memo) Improve(s bitset.Mask, p *Node) bool {
	if cur, ok := mm.m[s]; ok && cur.Cost <= p.Cost {
		return false
	}
	mm.m[s] = p
	return true
}

// Len returns the number of memoized sets.
func (mm *Memo) Len() int { return len(mm.m) }
