package service

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/gpusim"
	"repro/internal/plan"
	"repro/internal/workload"
)

func TestFlushDropsCachedPlans(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	q := genQuery(t, workload.KindMB, 10, 3)
	if _, err := s.Optimize(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if s.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", s.CacheLen())
	}

	s.Flush()
	if s.CacheLen() != 0 {
		t.Fatalf("cache len after Flush = %d, want 0", s.CacheLen())
	}
	res, err := s.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Error("request after Flush reported a cache hit")
	}
}

// TestExportImportMigratesWarmEntry is the cluster-rebalancing contract:
// an entry exported from one service and imported into another must serve
// a cache hit there — including for an isomorphically renamed query —
// with the same plan cost as the original optimization.
func TestExportImportMigratesWarmEntry(t *testing.T) {
	a := New(Config{})
	defer a.Close()
	b := New(Config{})
	defer b.Close()

	q := genQuery(t, workload.KindMB, 11, 7)
	cold, err := a.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	entry, ok := a.ExportEntry(cold.Key)
	if !ok {
		t.Fatalf("ExportEntry(%q) missed", cold.Key)
	}
	if entry.Key != cold.Key {
		t.Fatalf("exported key %q, want %q", entry.Key, cold.Key)
	}
	if err := b.Import(entry); err != nil {
		t.Fatal(err)
	}

	perm := rand.New(rand.NewSource(1)).Perm(q.N())
	pq := permuteQuery(q, perm)
	warm, err := b.Optimize(context.Background(), pq)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Error("imported entry did not serve a cache hit")
	}
	if warm.Key != cold.Key {
		t.Errorf("hit key %q, want %q", warm.Key, cold.Key)
	}
	if !relEq(warm.Plan.Cost, cold.Plan.Cost) {
		t.Errorf("imported-hit cost %g != original %g", warm.Plan.Cost, cold.Plan.Cost)
	}
	if err := warm.Plan.Validate(identity(pq.N())); err != nil {
		t.Errorf("remapped imported plan invalid: %v", err)
	}
}

func TestExportReturnsAllEntries(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	const queries = 5
	keys := make(map[string]bool)
	for seed := int64(0); seed < queries; seed++ {
		res, err := s.Optimize(context.Background(), genQuery(t, workload.KindChain, 6, seed))
		if err != nil {
			t.Fatal(err)
		}
		keys[res.Key] = true
	}

	entries := s.Export()
	if len(entries) != len(keys) {
		t.Fatalf("Export returned %d entries, want %d", len(entries), len(keys))
	}
	for _, e := range entries {
		if !keys[e.Key] {
			t.Errorf("exported unknown key %q", e.Key)
		}
		if e.Plan == nil {
			t.Errorf("entry %q has nil plan", e.Key)
		}
	}
}

func TestImportRejectsInvalidEntries(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	if err := s.Import(Entry{}); err == nil {
		t.Error("empty entry imported without error")
	}
	if err := s.Import(Entry{Key: "k"}); err == nil {
		t.Error("nil-plan entry imported without error")
	}
	if s.CacheLen() != 0 {
		t.Errorf("invalid imports left %d cache entries", s.CacheLen())
	}
}

// malformedPlans are plan trees no hit can remap for a 4-relation query:
// every leaf must be one of relations 0..3, exactly once, and every inner
// node needs two children.
func malformedPlans() map[string]*plan.Node {
	leaf := func(id int) *plan.Node { return &plan.Node{RelID: id} }
	join := func(l, r *plan.Node) *plan.Node { return &plan.Node{Left: l, Right: r} }
	return map[string]*plan.Node{
		"leaf out of range": join(join(leaf(0), leaf(1)), join(leaf(2), leaf(99))),
		"one-child node":    join(join(leaf(0), leaf(1)), &plan.Node{Left: join(leaf(2), leaf(3))}),
		"duplicate leaf":    join(join(leaf(0), leaf(1)), join(leaf(2), leaf(2))),
		"too few leaves":    join(join(leaf(0), leaf(1)), leaf(2)),
	}
}

// TestImportRejectsMalformedPlan: a plan a hit would remap out of range, or
// into a tree missing relations, is refused at Import, and the query it
// was filed under stays a miss that plans every relation.
func TestImportRejectsMalformedPlan(t *testing.T) {
	q := genQuery(t, workload.KindChain, 4, 1)
	key := FingerprintQuery(q).Key
	for name, p := range malformedPlans() {
		s := New(Config{Workers: 1})
		if err := s.Import(Entry{Key: key, Plan: p}); err == nil {
			t.Errorf("%s: imported without error", name)
		}
		if n := s.CacheLen(); n != 0 {
			t.Errorf("%s: refused import left %d cache entries", name, n)
		}
		res, err := s.Optimize(context.Background(), q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.CacheHit {
			t.Errorf("%s: query hit the refused entry", name)
		}
		if err := res.Plan.Validate([]int{0, 1, 2, 3}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		s.Close()
	}

	// A well-formed plan under the same key still imports, and the check
	// allocates nothing up to 64 relations.
	s := New(Config{Workers: 1})
	defer s.Close()
	good := &plan.Node{
		Left:  &plan.Node{Left: &plan.Node{RelID: 0}, Right: &plan.Node{RelID: 1}},
		Right: &plan.Node{Left: &plan.Node{RelID: 2}, Right: &plan.Node{RelID: 3}},
	}
	if err := s.Import(Entry{Key: key, Plan: good}); err != nil {
		t.Fatal(err)
	}
	if res, err := s.Optimize(context.Background(), q); err != nil || !res.CacheHit {
		t.Fatalf("well-formed import: hit=%v err=%v", res != nil && res.CacheHit, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { validPlan(good, 4) }); allocs != 0 {
		t.Errorf("validPlan allocates %v times per call, want 0", allocs)
	}
}

// TestEntrySurvivesEveryCopy holds every field of an Entry through each path
// that reads the cached record: Import stores it, ExportEntry and Export
// return it, CacheInfo lists it and a hit answers with its provenance. The
// fixture sets every field to a value no serve would produce, so a path that
// drops or swaps a field fails here; a field added to Entry later must be
// added to the fixture, or the reflect check below fails.
func TestEntrySurvivesEveryCopy(t *testing.T) {
	a := New(Config{})
	defer a.Close()
	b := New(Config{})
	defer b.Close()

	q := genQuery(t, workload.KindMB, 10, 5)
	cold, err := a.Optimize(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := a.ExportEntry(cold.Key)
	if !ok {
		t.Fatalf("ExportEntry(%q) missed", cold.Key)
	}
	want.Stats = dp.Stats{Evaluated: 41, CCP: 37, ConnectedSets: 31, WarmSeeded: 29}
	want.Algorithm = core.AlgMPDPGPU
	want.Backend = backend.GPU
	want.Shape = core.ShapeClique
	want.GPU = &gpusim.MultiStats{Devices: 2, PerDevice: []gpusim.Stats{{}, {}}}
	want.FellBack = true
	want.Epoch = 23
	want.Hits = 19
	v := reflect.ValueOf(want)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fixture leaves Entry.%s at its zero value", v.Type().Field(i).Name)
		}
	}

	if err := b.Import(want); err != nil {
		t.Fatal(err)
	}
	if got, ok := b.ExportEntry(want.Key); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("ExportEntry = %+v, %v; want %+v", got, ok, want)
	}
	if got := b.Export(); !reflect.DeepEqual(got, []Entry{want}) {
		t.Errorf("Export = %+v, want [%+v]", got, want)
	}

	info := b.CacheInfo(1)
	if len(info.Entries) != 1 {
		t.Fatalf("CacheInfo lists %d entries, want 1", len(info.Entries))
	}
	if got, wantRow := info.Entries[0], (CacheEntryInfo{
		Fingerprint: want.Key,
		Shape:       string(want.Shape),
		Algorithm:   string(want.Algorithm),
		Backend:     string(want.Backend),
		Relations:   q.N(),
		Hits:        want.Hits,
		Epoch:       want.Epoch,
		FellBack:    want.FellBack,
	}); got != wantRow {
		t.Errorf("CacheInfo row = %+v, want %+v", got, wantRow)
	}

	hit, err := b.OptimizePrepared(context.Background(), Prepare(q))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Fatal("imported entry did not serve a hit")
	}
	if hit.Key != want.Key || hit.Algorithm != want.Algorithm || hit.Backend != want.Backend ||
		hit.Shape != want.Shape || hit.Stats != want.Stats || hit.GPU != want.GPU ||
		hit.FellBack != want.FellBack || hit.Epoch != want.Epoch {
		t.Errorf("hit provenance key=%.12q alg=%s backend=%s shape=%s stats=%+v gpu=%p fell_back=%v epoch=%d, want %.12q %s %s %s %+v %p %v %d",
			hit.Key, hit.Algorithm, hit.Backend, hit.Shape, hit.Stats, hit.GPU, hit.FellBack, hit.Epoch,
			want.Key, want.Algorithm, want.Backend, want.Shape, want.Stats, want.GPU, want.FellBack, want.Epoch)
	}
	if !relEq(hit.Plan.Cost, cold.Plan.Cost) {
		t.Errorf("hit cost %g, want %g", hit.Plan.Cost, cold.Plan.Cost)
	}
}
