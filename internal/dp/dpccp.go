package dp

import (
	"repro/internal/bitset"
	"repro/internal/plan"
)

// DPCCP is the edge-based enumerator of Moerkotte & Neumann [24]: it walks
// the join graph to emit exactly the csg-cmp pairs, evaluating no invalid
// join pair at all. It is the strongest sequential baseline (Fig. 2's
// bottom-left corner) but its enumeration is inherently order-dependent,
// which is what limits its parallelizability.
func DPCCP(in Input) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()

	// DPCCP discovers connected sets while enumerating, so the table is
	// sized by the capped heuristic and grows on demand.
	tab := prep.Seed(plan.TableSizeHint(n))
	stats.ConnectedSets = uint64(n)

	st, err := CostCCPStream(in, tab, in.NewDeadline(), nil)
	stats.Add(st)
	if err != nil {
		return nil, stats, err
	}
	return Finish(in, tab, prep.Leaves, &stats)
}

// CostCCPStream is the costing core of DPCCP, shared with the GPU-model
// scheduler (internal/gpusim): it walks the join graph's csg-cmp pairs in
// the canonical order of [24] — children strictly before parents — costing
// both orientations of every valid pair into the table. The returned
// Stats count two evaluations and two CCPs per unordered pair, and one
// ConnectedSets per newly discovered (non-base) set. onPair, when non-nil,
// is invoked after each pair with the cardinality of the joined set (the
// pair's DP level), for per-level accounting.
func CostCCPStream(in Input, tab *plan.Table, dl *Deadline, onPair func(level int)) (Stats, error) {
	var stats Stats
	ok := ccpPairs(in.Q.G, dl, func(s1, s2 bitset.Mask) {
		// Each unordered pair is emitted once; both orientations are
		// costed, and both count toward the symmetric CCP counter.
		stats.Evaluated += 2
		stats.CCP += 2
		i1, i2 := tab.MustSlot(s1), tab.MustSlot(s2)
		l, r := side{cost: tab.CostAt(i1)}, side{cost: tab.CostAt(i2)}
		union := s1.Union(s2)
		cur, known := tab.Cost(union)
		if !known {
			stats.ConnectedSets++
		}
		if onPair != nil {
			onPair(union.Count())
		}
		// Child-cost lower bound: when both orientations provably cost at
		// least the incumbent (see bestWin.hopeless), skip selectivity and
		// operator costing outright — the stored plan cannot change.
		if known {
			inc := bestWin{Winner: Winner{Found: true, Cost: cur}}
			if inc.hopeless(l.cost, r.cost, tab.IsLeaf(s2)) && inc.hopeless(r.cost, l.cost, tab.IsLeaf(s1)) {
				return
			}
		}
		l.rows, l.lg = tab.ScalarsAt(i1)
		r.rows, r.lg = tab.ScalarsAt(i2)
		rows := l.rows * r.rows * in.Q.SelBetween(s1, s2)
		var bw bestWin
		op, c := joinCost(in.Q, in.M, tab, l, r, s2, i2, rows)
		bw.offer(s1, s2, op, rows, c)
		op, c = joinCost(in.Q, in.M, tab, r, l, s1, i1, rows)
		bw.offer(s2, s1, op, rows, c)
		if !known || bw.Cost < cur {
			tab.Put(union, bw.Winner)
		}
	})
	if !ok {
		return stats, dl.Err()
	}
	return stats, nil
}

// CCPCount runs only the csg-cmp enumeration and returns the query's
// CCP-Counter (symmetric count) without building any plans. The Fig. 2 and
// Fig. 4 experiments use it as the per-query lower bound.
func CCPCount(in Input) (uint64, error) {
	dl := in.NewDeadline()
	var count uint64
	ok := ccpPairs(in.Q.G, dl, func(_, _ bitset.Mask) { count += 2 })
	if !ok {
		return count, dl.Err()
	}
	return count, nil
}
