package dp

import (
	"repro/internal/bitset"
	"repro/internal/plan"
)

// Partial is the outcome of a bounded MPDP run: the DP table over connected
// sets of at most maxSize relations plus everything needed to materialize
// any memoized sub-plan on demand. IDP1 scans costs by value and builds a
// tree only for the one set it materializes per round. Table and trees are
// the run's workspace's: a Partial is dead once that workspace's next run
// begins.
type Partial struct {
	tab    *plan.Table
	leaves []*plan.Node
	arena  *plan.Arena
}

// Cost returns the memoized cost of set s, or ok = false when s was not
// reached (disconnected or beyond the size bound).
func (p *Partial) Cost(s bitset.Mask) (float64, bool) { return p.tab.Cost(s) }

// Build materializes the memoized plan of set s, or nil.
func (p *Partial) Build(s bitset.Mask) *plan.Node {
	return p.tab.Build(s, p.leaves, p.arena)
}

// RunPartial runs the MPDP dynamic program only up to sets of maxSize
// relations and returns the partial memo together with the connected-set
// buckets. IDP1 uses it to find the best plan of exactly k relations at
// each materialization step without paying for the full lattice.
func RunPartial(in Input, maxSize int) (*Partial, [][]bitset.Mask, Stats, error) {
	var stats Stats
	prep, err := Prepare(in)
	if err != nil {
		return nil, nil, stats, err
	}
	n := in.Q.N()
	if maxSize > n {
		maxSize = n
	}
	dl := in.NewDeadline()
	buckets, err := boundedConnectedSets(in, maxSize, dl)
	if err != nil {
		return nil, nil, stats, err
	}
	tab := prep.Seed(BucketCount(buckets))
	stats.ConnectedSets = uint64(n)
	sc := in.Workspace.Scratch(0)
	for size := 2; size <= maxSize; size++ {
		for _, s := range buckets[size] {
			win, st, err := EvaluateSetMPDP(in, tab, s, dl, sc)
			stats.Add(st)
			if err != nil {
				return nil, nil, stats, err
			}
			stats.ConnectedSets++
			if win.Found {
				tab.Put(s, win)
			}
		}
	}
	return &Partial{tab: tab, leaves: prep.Leaves, arena: in.Workspace.arena()}, buckets, stats, nil
}

// boundedConnectedSets enumerates connected sets of at most maxSize
// relations. The csg recursion is pruned as soon as a set exceeds the
// bound, keeping IDP1 polynomial for fixed k.
func boundedConnectedSets(in Input, maxSize int, dl *Deadline) ([][]bitset.Mask, error) {
	g := in.Q.G
	buckets := in.Workspace.buckets(g.N)
	expired := false
	var rec func(s, x bitset.Mask)
	rec = func(s, x bitset.Mask) {
		if expired || s.Count() >= maxSize {
			return
		}
		nb := g.NeighborhoodOf(s).Diff(x)
		if nb.Empty() {
			return
		}
		for sub := nb.LowestBit(); !sub.Empty(); sub = sub.NextSubset(nb) {
			if dl.Expired() {
				expired = true
				return
			}
			grown := s.Union(sub)
			if c := grown.Count(); c <= maxSize {
				buckets[c] = append(buckets[c], grown)
			}
		}
		for sub := nb.LowestBit(); !sub.Empty(); sub = sub.NextSubset(nb) {
			if grown := s.Union(sub); grown.Count() < maxSize {
				rec(grown, x.Union(nb))
			}
			if expired {
				return
			}
		}
	}
	for v := g.N - 1; v >= 0; v-- {
		s := bitset.Single(v)
		buckets[1] = append(buckets[1], s)
		rec(s, bitset.Full(v+1))
		if expired {
			return nil, dl.Err()
		}
	}
	return buckets, nil
}
