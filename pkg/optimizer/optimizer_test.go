package optimizer

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/workload"
)

// newRemoteOverService spins an httptest server over a fresh service and
// returns a Remote driver pointed at it.
func newRemoteOverService(t *testing.T) Optimizer {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux())
	t.Cleanup(ts.Close)
	r, err := Remote(RemoteConfig{Endpoints: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func newRemoteOverCluster(t *testing.T) Optimizer {
	t.Helper()
	// A generous attempt timeout: under -race a cold 20-relation optimize
	// can outlive the default 2s budget, and the reclassified timeout then
	// cascades — the failure detector quarantines healthy nodes and the
	// round-trip comes back 503. The test exercises correctness, not
	// latency SLOs.
	c := cluster.New(cluster.Config{
		Nodes:    2,
		Replicas: 2,
		Service:  service.Config{Workers: 2},
		Retry:    cluster.RetryPolicy{AttemptTimeout: 2 * time.Minute},
	})
	t.Cleanup(c.Close)
	ts := httptest.NewServer(httpapi.New(httpapi.ClusterEngine(c), httpapi.Options{}).Mux())
	t.Cleanup(ts.Close)
	r, err := Remote(RemoteConfig{Endpoints: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestThreeDriverRoundTrip is the PR's acceptance criterion: one
// 20-relation MusicBrainz query through InProcess, Served and Remote (the
// latter against both server kinds) produces cost-identical plans and the
// same canonical fingerprint everywhere.
func TestThreeDriverRoundTrip(t *testing.T) {
	q := MusicBrainz(20, 3)
	if q.Relations() != 20 {
		t.Fatalf("workload produced %d relations, want 20", q.Relations())
	}

	inproc := InProcess()
	servedDrv := Served(ServedConfig{Workers: 2})
	t.Cleanup(func() { servedDrv.Close() })
	remoteSvc := newRemoteOverService(t)
	remoteClu := newRemoteOverCluster(t)

	type run struct {
		name string
		drv  Optimizer
	}
	runs := []run{
		{"inprocess", inproc},
		{"served", servedDrv},
		{"remote-serve", remoteSvc},
		{"remote-cluster", remoteClu},
	}
	results := make([]*Result, len(runs))
	for i, r := range runs {
		res, err := r.drv.Optimize(context.Background(), q, WithTimeout(2*time.Minute))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.Cost <= 0 {
			t.Fatalf("%s: non-positive cost %g", r.name, res.Cost)
		}
		if res.Fingerprint == "" {
			t.Errorf("%s: no fingerprint", r.name)
		}
		results[i] = res
	}
	base := results[0]
	for i, res := range results[1:] {
		if res.Cost != base.Cost {
			t.Errorf("%s cost %g != inprocess cost %g", runs[i+1].name, res.Cost, base.Cost)
		}
		if res.Fingerprint != base.Fingerprint {
			t.Errorf("%s fingerprint %q != inprocess %q", runs[i+1].name, res.Fingerprint, base.Fingerprint)
		}
	}
	if results[3].Node == "" {
		t.Errorf("remote-cluster result has no serving node")
	}
}

// TestBuilderQueryOptimizesAcrossDrivers: a hand-built query (typed
// builders, no SQL) survives the wire encoding with an identical plan
// cost.
func TestBuilderQueryOptimizesAcrossDrivers(t *testing.T) {
	b := NewQueryBuilder()
	fact := b.Relation("fact", RelStats{Rows: 1e6, Width: 64})
	d1 := b.Relation("dim_a", RelStats{Rows: 1e4, Width: 32, PKIndex: true})
	d2 := b.Relation("dim_b", RelStats{Rows: 5e3, Width: 32, PKIndex: true})
	d3 := b.Relation("dim_c", RelStats{Rows: 100, Width: 16})
	b.Join(fact, d1, 1.0/1e4).Join(fact, d2, 1.0/5e3).Join(d2, d3, 1.0/100)
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if q.Relations() != 4 || q.Joins() != 3 {
		t.Fatalf("built %d relations / %d joins, want 4/3", q.Relations(), q.Joins())
	}

	local, err := InProcess().Optimize(context.Background(), q, WithAlgorithm(AlgMPDP))
	if err != nil {
		t.Fatal(err)
	}
	remote := newRemoteOverService(t)
	wire, err := remote.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Cost != local.Cost {
		t.Errorf("wire cost %g != local cost %g", wire.Cost, local.Cost)
	}
	if wire.Fingerprint != local.Fingerprint {
		t.Errorf("wire fingerprint %q != local %q", wire.Fingerprint, local.Fingerprint)
	}
}

// TestCatalogReuse: two queries drawn from one catalog share statistics.
func TestCatalogReuse(t *testing.T) {
	cat := NewCatalog()
	var rels [3]Rel
	for i, rows := range []float64{1000, 2000, 3000} {
		r, err := cat.Relation(string(rune('a'+i)), RelStats{Rows: rows})
		if err != nil {
			t.Fatal(err)
		}
		rels[i] = r
	}
	a, bb, c := rels[0], rels[1], rels[2]

	q1, err := cat.Query().AddRelation(a).AddRelation(bb).Join(a, bb, 0.001).Build()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := cat.Query().AddRelation(bb).AddRelation(c).Join(bb, c, 0.001).Build()
	if err != nil {
		t.Fatal(err)
	}
	if q1.Relations() != 2 || q2.Relations() != 2 {
		t.Fatalf("catalog queries sized %d/%d, want 2/2", q1.Relations(), q2.Relations())
	}
	for _, q := range []*Query{q1, q2} {
		if _, err := InProcess().Optimize(context.Background(), q); err != nil {
			t.Errorf("catalog query failed: %v", err)
		}
	}
}

// TestBuilderValidation: the builder surfaces the first construction error
// at Build.
func TestBuilderValidation(t *testing.T) {
	b := NewQueryBuilder()
	x := b.Relation("x", RelStats{Rows: 10})
	y := b.Relation("y", RelStats{Rows: 10})
	b.Join(x, y, 2.0) // invalid selectivity
	if _, err := b.Build(); err == nil {
		t.Error("selectivity > 1 accepted")
	}
	if _, err := NewQueryBuilder().Build(); err == nil {
		t.Error("empty query accepted")
	}
	b2 := NewQueryBuilder()
	p := b2.Relation("p", RelStats{Rows: 10})
	b2.Join(p, Rel(99), 0.5)
	if _, err := b2.Build(); err == nil {
		t.Error("join to unknown relation accepted")
	}
}

// TestBuilderRejectsInvalidStatistics: a selectivity outside (0, 1] and rows
// that are not a finite non-negative number never reach the cost model —
// NaN included, which fails every comparison a range test can make. The
// builders surface it at Build, the catalog from Relation and UpdateStats.
func TestBuilderRejectsInvalidStatistics(t *testing.T) {
	for _, tc := range []struct {
		v             float64
		selOK, rowsOK bool
	}{
		{math.NaN(), false, false},
		{math.Inf(1), false, false},
		{math.Inf(-1), false, false},
		{0, false, true},
		{-1, false, false},
		{1.5, false, true},
		{1, true, true},
	} {
		b := NewQueryBuilder()
		x := b.Relation("x", RelStats{Rows: 10})
		y := b.Relation("y", RelStats{Rows: 10})
		if _, err := b.Join(x, y, tc.v).Build(); (err == nil) != tc.selOK {
			t.Errorf("selectivity %g: Build err %v, want accepted=%v", tc.v, err, tc.selOK)
		}

		b = NewQueryBuilder()
		x = b.Relation("x", RelStats{Rows: tc.v})
		y = b.Relation("y", RelStats{Rows: 10})
		if _, err := b.Join(x, y, 0.5).Build(); (err == nil) != tc.rowsOK {
			t.Errorf("rows %g: QueryBuilder.Relation then Build err %v, want accepted=%v", tc.v, err, tc.rowsOK)
		}

		cat := NewCatalog()
		if _, err := cat.Relation("x", RelStats{Rows: tc.v}); (err == nil) != tc.rowsOK {
			t.Errorf("rows %g: Catalog.Relation err %v, want accepted=%v", tc.v, err, tc.rowsOK)
		}
		r, err := cat.Relation("y", RelStats{Rows: 10})
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.UpdateStats(r, RelStats{Rows: tc.v}); (err == nil) != tc.rowsOK {
			t.Errorf("rows %g: Catalog.UpdateStats err %v, want accepted=%v", tc.v, err, tc.rowsOK)
		}
		if !tc.rowsOK {
			if got := cat.cat.Rel(int(r)).Rows; got != 10 {
				t.Errorf("rows %g: the rejected update left rows %g, want 10", tc.v, got)
			}
		}
	}
}

// TestServerRoutedRejectsAlgorithm: the serving drivers refuse per-call
// algorithm selection instead of silently ignoring it.
func TestServerRoutedRejectsAlgorithm(t *testing.T) {
	s := Served(ServedConfig{Workers: 1})
	defer s.Close()
	if _, err := s.Optimize(context.Background(), Chain(5, 1), WithAlgorithm(AlgMPDP)); !errors.Is(err, ErrServerRouted) {
		t.Errorf("Served with WithAlgorithm = %v, want ErrServerRouted", err)
	}
	r := newRemoteOverService(t)
	if _, err := r.Optimize(context.Background(), Chain(5, 1), WithAlgorithm(AlgMPDP)); !errors.Is(err, ErrServerRouted) {
		t.Errorf("Remote with WithAlgorithm = %v, want ErrServerRouted", err)
	}
	if _, err := InProcess().Optimize(context.Background(), Chain(5, 1), WithAlgorithm("bogus")); err == nil {
		t.Error("InProcess accepted unknown algorithm")
	}
}

// TestCancelInFlightExactOptimization is the acceptance criterion at SDK
// level: cancelling the context of an in-flight exact optimization returns
// promptly — well under the remaining enumeration time — on both local
// drivers. The query is the clique of workload.CliqueSQL, which no exact
// enumerator finishes in under a minute on one thread.
func TestCancelInFlightExactOptimization(t *testing.T) {
	const relations = workload.WedgeRelations
	q, err := CompileSQL(workload.CliqueSQL(relations))
	if err != nil {
		t.Fatal(err)
	}
	if q.Relations() != relations || q.Joins() != relations*(relations-1)/2 {
		t.Fatalf("CliqueSQL(%d) bound to %d relations and %d joins, want a clique",
			relations, q.Relations(), q.Joins())
	}

	t.Run("inprocess", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(200 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		// Force the sequential exact route.
		_, err := InProcess().Optimize(ctx, q, WithAlgorithm(AlgMPDP))
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed > 15*time.Second {
			t.Fatalf("cancellation took %v, want prompt abort", elapsed)
		}
	})

	t.Run("served", func(t *testing.T) {
		// ExactLimit 64 keeps the clique on the exact CPU-parallel route;
		// one thread, so the run does not shorten with the host's cores.
		s := Served(ServedConfig{Workers: 1, Threads: 1, ExactLimit: 64, Timeout: time.Hour})
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(200 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := s.Optimize(ctx, q)
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed > 15*time.Second {
			t.Fatalf("cancellation took %v, want prompt abort", elapsed)
		}
		// The single worker must be free again: a small query completes.
		if _, err := s.Optimize(context.Background(), Chain(5, 1)); err != nil {
			t.Fatalf("worker wedged after cancellation: %v", err)
		}
	})
}

// TestExplainAcrossDrivers: WithExplain renders the plan everywhere.
func TestExplainAcrossDrivers(t *testing.T) {
	q := Chain(6, 2)
	for _, tc := range []struct {
		name string
		drv  Optimizer
	}{
		{"inprocess", InProcess()},
		{"remote", newRemoteOverService(t)},
	} {
		res, err := tc.drv.Optimize(context.Background(), q, WithExplain())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Explain == "" {
			t.Errorf("%s: no explain output", tc.name)
		}
	}
}
