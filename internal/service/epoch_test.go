package service

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/graph"
)

// chainUniverse is a deterministic pool of relation statistics and chain
// selectivities: window(lo, hi) cuts the induced subchain joining relations
// lo..hi-1, so the same window cut twice is the same query and a window cut
// after the statistics changed is the same join graph under new ones.
type chainUniverse struct {
	rows []float64
	sels []float64
}

func newChainUniverse(n int, seed int64) *chainUniverse {
	rng := rand.New(rand.NewSource(seed))
	u := &chainUniverse{rows: make([]float64, n), sels: make([]float64, n-1)}
	for i := range u.rows {
		u.rows[i] = float64(1000 + rng.Intn(2_000_000))
	}
	for i := range u.sels {
		u.sels[i] = 1e-6 * float64(1+rng.Intn(999_999))
	}
	return u
}

func (u *chainUniverse) window(lo, hi int) *cost.Query {
	var cat catalog.Catalog
	for i := lo; i < hi; i++ {
		cat.Add(catalog.NewRelation(fmt.Sprintf("r%d", i), u.rows[i], 100))
	}
	g := graph.New(hi - lo)
	for i := lo; i < hi-1; i++ {
		g.AddEdge(i-lo, i+1-lo, u.sels[i])
	}
	return &cost.Query{Cat: cat, G: g}
}

// TestStatsEpochContract pins what a statistics change does to the cache: the
// epoch advances and nothing is flushed; a query carrying the changed
// statistics misses (its key embeds them) and is planned afresh, at exactly
// the cost of a from-scratch DPCCP; a query still carrying the original
// statistics keeps hitting the old entry at the old cost.
func TestStatsEpochContract(t *testing.T) {
	u := newChainUniverse(16, 7)
	s := New(Config{Workers: 2})
	defer s.Close()

	res1, err := s.Optimize(context.Background(), u.window(0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Epoch != 1 {
		t.Fatalf("fresh service produced epoch %d, want 1", res1.Epoch)
	}
	plansBefore := s.CacheInfo(0).Plans
	if plansBefore == 0 {
		t.Fatal("expected a cached plan")
	}

	if old, cur := s.BumpStatsEpoch(); old != 1 || cur != 2 {
		t.Fatalf("BumpStatsEpoch = (%d, %d), want (1, 2)", old, cur)
	}
	if got := s.CacheInfo(0); got.Plans != plansBefore {
		t.Fatalf("epoch bump flushed the cache: %d->%d plans", plansBefore, got.Plans)
	}

	// The statistics change: every relation grows. Same structure, new
	// stats — an exact-fingerprint miss.
	for i := range u.rows {
		u.rows[i] *= 10
	}
	q2 := u.window(0, 16)
	res2, err := s.Optimize(context.Background(), q2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Fatal("changed statistics produced a cache hit: the fingerprint failed to embed them")
	}
	if res2.Epoch != 2 {
		t.Errorf("post-bump result epoch = %d, want 2", res2.Epoch)
	}
	if want := dpccpCost(t, q2); res2.Plan.Cost != want {
		t.Errorf("post-bump cost %v != fresh DPCCP %v", res2.Plan.Cost, want)
	}
	if relEq(res2.Plan.Cost, res1.Plan.Cost) {
		t.Errorf("cost unchanged (%g) after all row counts grew 10x — suspicious", res2.Plan.Cost)
	}
	if got := s.CacheInfo(0).Plans; got != plansBefore+1 {
		t.Errorf("%d plans cached after the changed query, want the old entry and the new one (%d)", got, plansBefore+1)
	}

	if snap := s.Counters().Snapshot(); snap.StatsEpoch != 2 || snap.EpochBumps != 1 {
		t.Errorf("epoch counters = (epoch %d, bumps %d), want (2, 1)", snap.StatsEpoch, snap.EpochBumps)
	}

	// The exact original query remains sound at any epoch — its fingerprint
	// embeds the statistics it was planned under — so it still hits.
	res3, err := s.Optimize(context.Background(), newChainUniverse(16, 7).window(0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !res3.CacheHit {
		t.Error("original-statistics query no longer hits after the bump")
	}
	if res3.Plan.Cost != res1.Plan.Cost || res3.Epoch != 1 {
		t.Errorf("original entry served at cost %v epoch %d, want %v epoch 1", res3.Plan.Cost, res3.Epoch, res1.Plan.Cost)
	}
}
