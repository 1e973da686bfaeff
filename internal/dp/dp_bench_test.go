package dp

import (
	"fmt"

	"math/rand"
	"repro/internal/bitset"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
)

// Per-algorithm micro-benchmarks on a fixed random cyclic graph; the
// repository-level bench_test.go sweeps the paper's workloads.
func BenchmarkExactAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	q := randomQuery(13, 6, rng)
	m := cost.DefaultModel()
	algs := []struct {
		name string
		f    Func
	}{
		{"DPSize", DPSize},
		{"DPSub", DPSub},
		{"DPCCP", DPCCP},
		{"MPDP", MPDPGeneral},
	}
	for _, alg := range algs {
		b.Run(alg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := alg.f(Input{Q: q, M: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMPDPTreeVsGeneralOnTrees(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{12, 16} {
		q := topoQuery(graph.SnowflakeN(n, 4), rng)
		m := cost.DefaultModel()
		b.Run(fmt.Sprintf("Tree/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MPDPTree(Input{Q: q, M: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("General/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MPDPGeneral(Input{Q: q, M: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkConnectedSetEnumeration(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 20} {
		q := topoQuery(graph.Star(n), rng)
		b.Run(fmt.Sprintf("star-%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buckets := connectedSetsBySize(q.G, NewDeadline(noDeadline()), nil)
				if buckets == nil {
					b.Fatal("enumeration aborted")
				}
			}
		})
	}
}

func BenchmarkCCPEnumeration(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	q := randomQuery(16, 6, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		count := uint64(0)
		ccpPairs(q.G, NewDeadline(noDeadline()), func(_, _ bitset.Mask) { count++ })
		if count == 0 {
			b.Fatal("no pairs")
		}
	}
}

// TestDPTableBytesBudget gates the bytes one optimization allocates, which
// on these shapes is the DP table: BENCH_budget.json gates allocs/op only,
// and the table's over-allocation never showed there (a table four times
// too large is still three allocations). Ceilings sit a few percent above
// the measured numbers, so a fourth per-slot array, a hash layout at load
// 0.25 where direct addressing fits, or a fatter cold record fails here.
//
//	                   before PR 17   PR 17      ceiling
//	DPCCP  clique-12      558 137     231 017    260 000   direct (capped hint, n ≤ 13)
//	MPDP   star-16      9 325 833   4 091 160  4 194 304   direct (census 32 783 of 65 536)
//	MPDP   cycle-20       116 000     107 824    112 000   hash (census 401 of 2^20)
//
// Before, star-16 took 131 072 hash slots × 64 B = 8.4 MB of table for its
// 32 783 sets; now 65 536 direct slots × 48 B = 3.1 MB. The hash side pays
// 56 B/slot where it paid 64: the cost lane is paid for by the right-split
// array that is no longer stored.
//
// The warm rows are the same runs on a workspace that has served one run
// already: table, census, scratch and arena are borrowed, and what is left
// is the run's own — base plans, deadline, closures. A lost scratch or a
// private arena (28 KiB) fails here.
//
//	                   fresh       warm   ceiling
//	DPCCP  clique-12     231 048      976    4 096
//	MPDP   star-16     4 091 227    1 264    4 096
//	MPDP   cycle-20      107 888    1 552    4 096
func TestDPTableBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six one-second benchmarks")
	}
	for _, tc := range []struct {
		name          string
		g             *graph.Graph
		f             Func
		ceiling, warm int64
	}{
		{"DPCCP/clique-12", graph.Clique(12), DPCCP, 260_000, 4 << 10},
		{"MPDP/star-16", graph.Star(16), MPDP, 4 << 20, 4 << 10},
		{"MPDP/cycle-20", graph.Cycle(20), MPDP, 112_000, 4 << 10},
	} {
		in := Input{Q: topoQuery(tc.g, rand.New(rand.NewSource(17))), M: cost.DefaultModel()}
		for _, row := range []struct {
			name    string
			ws      *Workspace
			ceiling int64
		}{{tc.name, nil, tc.ceiling}, {tc.name + "/warm", new(Workspace), tc.warm}} {
			in.Workspace = row.ws
			res := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				if _, _, err := tc.f(in); err != nil { // the run a warm workspace has behind it
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, err := tc.f(in); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := res.AllocedBytesPerOp(); got > row.ceiling {
				t.Errorf("%s allocates %d B per run, ceiling %d", row.name, got, row.ceiling)
			} else {
				t.Logf("%s: %d B per run (ceiling %d)", row.name, got, row.ceiling)
			}
		}
	}
}
