package dp

import (
	"repro/internal/bitset"
	"repro/internal/plan"
)

// DPSize is the Selinger-style size-driven dynamic program [27] used by
// PostgreSQL: plans are built in increasing result size by pairing every
// memoized plan of size s1 with every memoized plan of size s2 = s - s1.
// Its weakness (§2, Fig. 2) is evaluating the full cross product of the two
// size classes, most of which overlap or are not connected.
func DPSize(in Input) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()
	dl := in.NewDeadline()

	tab := prep.seed(plan.TableSizeHint(n))
	bySize := make([][]bitset.Mask, n+1)
	for i := 0; i < n; i++ {
		bySize[1] = append(bySize[1], bitset.Single(i))
		stats.ConnectedSets++
	}

	for size := 2; size <= n; size++ {
		for s1 := 1; s1 < size; s1++ {
			s2 := size - s1
			for _, a := range bySize[s1] {
				pa := tab.MustView(a)
				for _, b := range bySize[s2] {
					if dl.Expired() {
						return nil, stats, dl.Err()
					}
					stats.Evaluated++
					if !a.Disjoint(b) {
						continue
					}
					if !in.Q.G.ConnectedTo(a, b) {
						continue
					}
					stats.CCP++
					union := a.Union(b)
					pb := tab.MustView(b)
					op, rows, c := in.M.JoinEvalEntry(in.Q, pa, pb)
					cur, known := tab.Cost(union)
					if !known {
						bySize[size] = append(bySize[size], union)
						stats.ConnectedSets++
					}
					if !known || c < cur {
						tab.Put(union, Winner{Left: a, Right: b, Op: op, Rows: rows, Cost: c, Found: true})
					}
				}
			}
		}
	}

	return finish(in, tab, prep.leaves, &stats)
}
