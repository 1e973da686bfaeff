package heuristic

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/plan"
)

func TestContractedProblemGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	q := randomQuery(8, 3, rng)
	m := cost.DefaultModel()
	groups, sets := baseScans(q, m)
	// Merge {0,1} and {2,3} into composite units.
	j01 := m.Join(q, groups[0], groups[1])
	s01 := bitset.SetOf(8, 0, 1)
	j23 := m.Join(q, groups[2], groups[3])
	s23 := bitset.SetOf(8, 2, 3)
	units := []*plan.Node{j01, j23, groups[4], groups[5], groups[6], groups[7]}
	unitSets := []bitset.Set{s01, s23, sets[4], sets[5], sets[6], sets[7]}
	c := newContractedProblem(q, units, unitSets)

	if c.local.N() != 6 {
		t.Fatalf("contracted graph has %d nodes, want 6", c.local.N())
	}
	// Composite rows carried over.
	if c.local.Rows(0) != j01.Rows {
		t.Errorf("composite rows %v, want %v", c.local.Rows(0), j01.Rows)
	}
	// The combined selectivity between two units must equal the product of
	// base selectivities crossing them.
	wantSel := q.SelBetweenSets(s01, s23)
	gotSel := c.local.G.EdgeSel(0, 1)
	if c.local.G.HasEdge(0, 1) && math.Abs(gotSel-wantSel) > 1e-15*math.Abs(wantSel) {
		t.Errorf("contracted selectivity %v, want %v", gotSel, wantSel)
	}
}

func TestSpliceSubstitutesUnitPlans(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	q := randomQuery(5, 2, rng)
	m := cost.DefaultModel()
	groups, sets := baseScans(q, m)
	c := newContractedProblem(q, groups, sets)
	// Build a local plan with wrapper leaves, splice, and check the leaves
	// are the original scan nodes (pointer identity).
	leaves := c.leafWrappers()
	inner := &plan.Node{Left: leaves[0], Right: leaves[1], Rows: 1, Cost: 1}
	outer := &plan.Node{Left: inner, Right: leaves[2], Rows: 1, Cost: 2}
	out := c.splice(outer)
	if out.Left.Left != groups[0] || out.Left.Right != groups[1] || out.Right != groups[2] {
		t.Error("splice did not substitute unit plans")
	}
	// The interior nodes are copies: the inner DP's tree lives in a
	// workspace the next inner DP rewinds.
	if out == outer || out.Left == inner || out.Cost != 2 || out.Left.Cost != 1 {
		t.Error("splice must copy the interior nodes of the inner-DP plan")
	}
}

func TestRecostProducesModelConsistentCosts(t *testing.T) {
	// Recost of an MPDP plan must reproduce the DP's own cost exactly.
	rng := rand.New(rand.NewSource(63))
	m := cost.DefaultModel()
	for trial := 0; trial < 20; trial++ {
		q := randomQuery(4+rng.Intn(8), rng.Intn(4), rng)
		p, _, err := dp.MPDPGeneral(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		r := Recost(q, m, p)
		if math.Abs(r.Cost-p.Cost) > 1e-9*math.Max(1, p.Cost) {
			t.Errorf("trial %d: Recost %.6f != original %.6f", trial, r.Cost, p.Cost)
		}
		if math.Abs(r.Rows-p.Rows) > 1e-9*math.Max(1, p.Rows) {
			t.Errorf("trial %d: Recost rows changed", trial)
		}
	}
}

func TestConnectedUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	q := randomQuery(6, 0, rng) // a tree
	_, sets := baseScans(q, cost.DefaultModel())
	if !connectedUnits(q, sets) {
		t.Error("full relation set must be connected")
	}
	// Two leaves of a tree that are not adjacent are disconnected as units.
	var leafA, leafB int = -1, -1
	for v := 0; v < 6 && leafB < 0; v++ {
		if len(q.G.Neighbors(v)) == 1 {
			if leafA < 0 {
				leafA = v
			} else if !q.G.HasEdge(leafA, v) {
				leafB = v
			}
		}
	}
	if leafB >= 0 {
		if connectedUnits(q, []bitset.Set{sets[leafA], sets[leafB]}) {
			t.Errorf("units {%d} and {%d} reported connected", leafA, leafB)
		}
	}
}

func TestInnerMPDPMatchesDirectMPDPOnBaseUnits(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	m := cost.DefaultModel()
	for trial := 0; trial < 10; trial++ {
		q := randomQuery(4+rng.Intn(6), rng.Intn(3), rng)
		groups, sets := baseScans(q, m)
		c := newContractedProblem(q, groups, sets)
		got, _, err := innerMPDP(c, Options{Model: m, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := dp.MPDPGeneral(dp.Input{Q: q, M: m})
		if err != nil {
			t.Fatal(err)
		}
		// The contracted problem's leaf wrappers have no PK index (they are
		// "temporaries" unless single base scans), so costs can only match
		// when index information is carried through — which it is for base
		// scans. Verify equality.
		if math.Abs(got.Cost-want.Cost) > 1e-6*math.Max(1, want.Cost) {
			t.Errorf("trial %d: contracted %.4f vs direct %.4f", trial, got.Cost, want.Cost)
		}
	}
}

func TestGOOHandlesTwoRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	q := randomQuery(2, 0, rng)
	p, err := GOO(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Errorf("plan size %d", p.Size())
	}
}

func TestUnionDPSingleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	q := randomQuery(1, 0, rng)
	p, err := UnionDP(q, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsLeaf() {
		t.Error("single-relation plan must be a scan")
	}
}
