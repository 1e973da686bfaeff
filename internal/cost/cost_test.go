package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/catalog"
	"repro/internal/graph"
	"repro/internal/plan"
)

func testQuery() *Query {
	g := graph.New(4)
	g.AddEdge(0, 1, 0.01)
	g.AddEdge(1, 2, 0.001)
	g.AddEdge(2, 3, 0.1)
	g.AddEdge(0, 3, 0.5)
	var cat catalog.Catalog
	for i, rows := range []float64{1e6, 1e4, 1e3, 100} {
		r := catalog.NewRelation("r", rows, 40+i)
		r.HasPKIndex = i%2 == 0
		cat.Add(r)
	}
	return &Query{Cat: cat, G: g}
}

func TestSelBetween(t *testing.T) {
	q := testQuery()
	cases := []struct {
		l, r bitset.Mask
		want float64
	}{
		{bitset.MaskOf(0), bitset.MaskOf(1), 0.01},
		{bitset.MaskOf(0, 1), bitset.MaskOf(2, 3), 0.001 * 0.5},
		{bitset.MaskOf(0), bitset.MaskOf(2), 1}, // no edge
		{bitset.MaskOf(1), bitset.MaskOf(0, 2), 0.01 * 0.001},
	}
	for _, c := range cases {
		if got := q.SelBetween(c.l, c.r); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("SelBetween(%v, %v) = %v, want %v", c.l, c.r, got, c.want)
		}
		// Symmetry.
		if got := q.SelBetween(c.r, c.l); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("SelBetween(%v, %v) = %v, want %v (symmetric)", c.r, c.l, got, c.want)
		}
		// Set-based variant agrees.
		ls, rs := bitset.FromMask(4, c.l), bitset.FromMask(4, c.r)
		if got := q.SelBetweenSets(ls, rs); math.Abs(got-c.want) > 1e-15 {
			t.Errorf("SelBetweenSets(%v, %v) = %v, want %v", c.l, c.r, got, c.want)
		}
	}
}

func TestSubsetRowsConsistentWithJoinProducts(t *testing.T) {
	// SubsetRows(S) must equal rows(L)·rows(R)·sel(L,R) for every
	// bipartition — the order-independence property the DP relies on.
	q := testQuery()
	full := bitset.Full(4)
	want := q.SubsetRows(full)
	for lb := full.LowestBit(); !lb.Empty(); lb = lb.NextSubset(full) {
		rb := full.Diff(lb)
		if rb.Empty() {
			continue
		}
		got := q.SubsetRows(lb) * q.SubsetRows(rb) * q.SelBetween(lb, rb)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("partition %v/%v: %v, want %v", lb, rb, got, want)
		}
	}
}

func TestScanCost(t *testing.T) {
	q := testQuery()
	m := DefaultModel()
	s := m.Scan(q, 0)
	if s.RelID != 0 || !s.IsLeaf() {
		t.Fatal("scan node malformed")
	}
	if s.Rows != 1e6 {
		t.Errorf("rows = %v", s.Rows)
	}
	want := q.Cat.Rels[0].Pages*m.SeqPageCost + 1e6*m.CPUTupleCost
	if math.Abs(s.Cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", s.Cost, want)
	}
}

func TestJoinCostIncludesChildren(t *testing.T) {
	q := testQuery()
	m := DefaultModel()
	l, r := m.Scan(q, 0), m.Scan(q, 1)
	j := m.Join(q, l, r)
	if j.Cost < l.Cost {
		t.Errorf("join cost %v below left child %v", j.Cost, l.Cost)
	}
	if j.Rows != l.Rows*r.Rows*0.01 {
		t.Errorf("join rows = %v", j.Rows)
	}
	if j.Set != bitset.MaskOf(0, 1) {
		t.Errorf("join set = %v", j.Set)
	}
}

func TestJoinEvalAgreesWithJoin(t *testing.T) {
	q := testQuery()
	m := DefaultModel()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		a, b := rng.Intn(4), rng.Intn(4)
		if a == b {
			continue
		}
		l, r := m.Scan(q, a), m.Scan(q, b)
		op, rows, c := m.JoinEval(q, l, r)
		j := m.Join(q, l, r)
		if j.Op != op || j.Rows != rows || j.Cost != c {
			t.Fatalf("JoinEval (%v, %v, %v) != Join (%v, %v, %v)", op, rows, c, j.Op, j.Rows, j.Cost)
		}
	}
}

func TestIndexNestLoopRequiresIndexAndLeaf(t *testing.T) {
	q := testQuery()
	m := DefaultModel()
	big, idxRel := m.Scan(q, 0), m.Scan(q, 2) // rel 2 has a PK index
	op, _, _ := m.JoinEval(q, big, idxRel)
	_ = op // operator choice depends on numbers; verify the restricted model
	restricted := *m
	restricted.DisableNestLoop = true
	opR, _, costR := restricted.JoinEval(q, big, idxRel)
	if opR == 0 {
		t.Error("unexpected scan op")
	}
	if opR != 0 && costR <= 0 {
		t.Error("nonpositive cost")
	}
	// With nest loops disabled, INL must never be chosen.
	if opR.String() == "IndexNLJoin" || opR.String() == "NestLoop" {
		t.Errorf("disabled operator chosen: %v", opR)
	}
}

func TestOperatorChoiceMonotoneInModel(t *testing.T) {
	// Disabling operators can only increase (or keep) the best cost.
	q := testQuery()
	full := DefaultModel()
	noNL := *full
	noNL.DisableNestLoop = true
	noAll := noNL
	noAll.DisableMerge = true
	l, r := full.Scan(q, 1), full.Scan(q, 2)
	_, _, cFull := full.JoinEval(q, l, r)
	_, _, cNoNL := noNL.JoinEval(q, l, r)
	_, _, cHash := noAll.JoinEval(q, l, r)
	if cFull > cNoNL+1e-12 || cNoNL > cHash+1e-12 {
		t.Errorf("costs not monotone: %v, %v, %v", cFull, cNoNL, cHash)
	}
}

func TestCout(t *testing.T) {
	q := testQuery()
	m := DefaultModel()
	l, r := m.Scan(q, 1), m.Scan(q, 2)
	j := m.Join(q, l, r)
	if got := Cout(j); got != j.Rows {
		t.Errorf("Cout = %v, want %v", got, j.Rows)
	}
	j2 := m.Join(q, j, m.Scan(q, 3))
	if got := Cout(j2); math.Abs(got-(j.Rows+j2.Rows)) > 1e-9 {
		t.Errorf("Cout = %v, want %v", got, j.Rows+j2.Rows)
	}
	if Cout(l) != 0 {
		t.Error("leaf Cout must be 0")
	}
}

// entryOf builds the table view of a plan node the way plan.Table stores it,
// so the node- and entry-based costing paths can be compared head to head.
func entryOf(n *plan.Node) plan.Entry {
	return plan.Entry{
		Set:     n.Set,
		Rows:    n.Rows,
		Cost:    n.Cost,
		LogRows: math.Log2(math.Max(n.Rows, 2)),
		LogIdx:  math.Log2(n.Rows + 2),
		Leaf:    n.IsLeaf(),
		RelID:   int32(n.RelID),
	}
}

// TestJoinEvalEntryMatchesNodePath pins the bit-identity of the two costing
// paths: the DP enumerators cost through table entries while heuristics and
// fallbacks cost through plan nodes, and a cost-model change applied to one
// but not the other must fail here.
func TestJoinEvalEntryMatchesNodePath(t *testing.T) {
	q := testQuery()
	rng := rand.New(rand.NewSource(31))
	for _, m := range []*Model{
		DefaultModel(),
		{SeqPageCost: 1, RandomPageCost: 4, CPUTupleCost: 0.01, CPUIndexTupleCost: 0.005, CPUOperatorCost: 0.0025, DisableNestLoop: true},
		{SeqPageCost: 1, RandomPageCost: 4, CPUTupleCost: 0.01, CPUIndexTupleCost: 0.005, CPUOperatorCost: 0.0025, DisableMerge: true},
	} {
		for trial := 0; trial < 2000; trial++ {
			var l, r *plan.Node
			if rng.Intn(2) == 0 {
				l = m.Scan(q, rng.Intn(2))
			} else {
				l = &plan.Node{Set: bitset.MaskOf(0, 1), Left: m.Scan(q, 0), Right: m.Scan(q, 1),
					Rows: rng.Float64() * 1e8, Cost: rng.Float64() * 1e6}
			}
			if rng.Intn(2) == 0 {
				r = m.Scan(q, 2+rng.Intn(2))
			} else {
				r = &plan.Node{Set: bitset.MaskOf(2, 3), Left: m.Scan(q, 2), Right: m.Scan(q, 3),
					Rows: rng.Float64() * 1e8, Cost: rng.Float64() * 1e6}
			}
			opN, rowsN, costN := m.JoinEval(q, l, r)
			opE, rowsE, costE := m.JoinEvalEntry(q, entryOf(l), entryOf(r))
			if opN != opE || rowsN != rowsE || costN != costE {
				t.Fatalf("trial %d: node path (%v, %v, %v) != entry path (%v, %v, %v)",
					trial, opN, rowsN, costN, opE, rowsE, costE)
			}
		}
	}
}
