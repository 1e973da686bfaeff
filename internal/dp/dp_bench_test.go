package dp

import (
	"fmt"

	"math/rand"
	"repro/internal/bitset"
	"testing"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/workload"
)

// Per-algorithm micro-benchmarks on a fixed random cyclic graph; bench/
// times the paper's workloads end to end.
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
// on these shapes is the DP table: an allocation count alone never showed
// the table's over-allocation (a table four times too large is still three
// allocations). Ceilings sit a few percent above the measured numbers, so a
// fourth per-slot array, a hash layout at load 0.25 where direct addressing
// fits, or a fatter cold record fails here.
//
//	                   before PR 17   PR 17      PR 22      ceiling
//	DPCCP  clique-12      558 137     231 017    198 824    208 000   direct (capped hint, n ≤ 13)
//	MPDP   star-16      9 325 833   4 091 160  3 567 877  3 670 016   direct (census 32 783 of 65 536)
//	MPDP   cycle-20       116 000     107 824    100 240    104 000   hash (census 401 of 2^20)
//
// Before PR 17, star-16 took 131 072 hash slots × 64 B = 8.4 MB of table
// for its 32 783 sets; then 65 536 direct slots × 48 B = 3.1 MB, and 40 B
// = 2.6 MB since PR 22 took log2(rows + 2) out of the cold record (only a
// leaf's is ever read: plan.Table keeps those 64 apart). The hash side
// pays 48 B/slot where it paid 64 and then 56: the cost lane is paid for by
// the right-split array that is no longer stored.
//
// The warm rows are the same runs on a workspace that has served one run
// already: table, census, scratch and arena are borrowed, and what is left
// is the run's own — base plans, deadline, closures. A lost scratch or a
// private arena (28 KiB) fails here.
//
//	                   fresh       warm   ceiling
//	DPCCP  clique-12     198 824      976    4 096
//	MPDP   star-16     3 567 877    1 264    4 096
//	MPDP   cycle-20      100 240    1 552    4 096
//
// The allocs column bounds the number of allocations a fresh run makes, ten
// percent above the measured count; it is a count, taken over two runs with
// no timed loop. The clique-15 and MusicBrainz-20 rows gate only that
// (parallel.MPDP's row is in TestThickLevelsFanOut, the GPU model's in
// gpusim's TestWorkspaceChangesNoDeviceModel).
func TestDPTableBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six one-second benchmarks")
	}
	topo := func(g *graph.Graph) *cost.Query { return topoQuery(g, rand.New(rand.NewSource(17))) }
	gen := func(kind workload.Kind, n int) *cost.Query {
		q, err := workload.Generate(kind, n, rand.New(rand.NewSource(1+int64(n))))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	for _, tc := range []struct {
		name          string
		q             *cost.Query
		f             Func
		ceiling, warm int64 // bytes; 0: this row gates allocations only
		allocs        float64
	}{
		{"DPCCP/clique-12", topo(graph.Clique(12)), DPCCP, 208_000, 4 << 10, 23},
		{"MPDP/star-16", topo(graph.Star(16)), MPDP, 7 << 19, 4 << 10, 221},
		{"MPDP/cycle-20", topo(graph.Cycle(20)), MPDP, 104_000, 4 << 10, 181},
		{"DPCCP/clique-15", gen(workload.KindClique, 15), DPCCP, 0, 0, 33},
		{"MPDP/clique-15", gen(workload.KindClique, 15), MPDP, 0, 0, 231},
		{"DPCCP/musicbrainz-20", gen(workload.KindMB, 20), DPCCP, 0, 0, 45},
		{"MPDP/musicbrainz-20", gen(workload.KindMB, 20), MPDP, 0, 0, 319},
	} {
		in := Input{Q: tc.q, M: cost.DefaultModel()}
		got := testing.AllocsPerRun(1, func() {
			if _, _, err := tc.f(in); err != nil {
				t.Fatal(err)
			}
		})
		if got > tc.allocs {
			t.Errorf("%s makes %.0f allocations per run, ceiling %.0f", tc.name, got, tc.allocs)
		} else {
			t.Logf("%s: %.0f allocations per run (ceiling %.0f)", tc.name, got, tc.allocs)
		}
		if tc.ceiling == 0 {
			continue
		}
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
