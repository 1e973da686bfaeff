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
	prep, err := prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()

	// DPCCP discovers connected sets while enumerating, so the table is
	// sized by the capped heuristic and grows on demand.
	tab := prep.seed(plan.TableSizeHint(n))
	stats.ConnectedSets = uint64(n)

	// Walk the csg-cmp pairs in the canonical order of [24] — children
	// strictly before parents — costing both orientations of every valid
	// pair into the table. Each unordered pair is emitted once; both
	// orientations count toward the symmetric Evaluated and CCP counters.
	dl := in.NewDeadline()
	ok := ccpPairs(in.Q.G, dl, func(s1, s2 bitset.Mask) {
		stats.Evaluated += 2
		stats.CCP += 2
		union := s1.Union(s2)
		var i1, i2, iu int
		var known bool
		if tab.Direct() { // the table may change layout as it grows: asked per pair
			i1, i2 = tab.MustDirectSlot(s1), tab.MustDirectSlot(s2)
			iu, known = tab.DirectSlot(union)
		} else {
			i1, i2 = tab.MustSlot(s1), tab.MustSlot(s2)
			iu, known = tab.Slot(union)
		}
		l, r := side{cost: tab.CostAt(i1)}, side{cost: tab.CostAt(i2)}
		var cur float64
		if !known {
			stats.ConnectedSets++
		} else {
			// Child-cost lower bound: when both orientations provably cost
			// at least the incumbent (see bestWin.hopeless), skip
			// selectivity and operator costing outright — the stored plan
			// cannot change.
			cur = tab.CostAt(iu)
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
		return nil, stats, dl.Err()
	}
	return finish(in, tab, prep.leaves, &stats)
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
