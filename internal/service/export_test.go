package service

import (
	"context"
	"math/rand"
	"testing"

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
