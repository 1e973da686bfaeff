package plan

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bitset"
)

// rangeInterior calls f for every interior (joined) set stored in the table,
// by value, in slot order (hash order in one layout, numeric order of the
// bitmaps in the other); base entries are skipped. The tests use it to see
// what a table holds beyond the keys they probe.
func (t *Table) rangeInterior(f func(s bitset.Mask, w Winner)) {
	yield := func(s bitset.Mask, i int) {
		c := &t.cold[i]
		if c.left == 0 {
			return
		}
		f(s, Winner{
			Left:  c.left,
			Right: s.Diff(c.left),
			Rows:  c.rows,
			Cost:  t.cost[i],
			Op:    Op(c.meta & metaOp >> 8),
			Found: true,
		})
	}
	if t.keys != nil {
		for i, k := range t.keys {
			if k != 0 {
				yield(k, i)
			}
		}
		return
	}
	for wi, w := range t.present {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 | bits.TrailingZeros64(w)
			yield(bitset.Mask(i), i)
		}
	}
}

func TestTablePutBaseAndView(t *testing.T) {
	tab := NewTable(8, 8)
	tab.PutBase(bitset.Single(3), &Node{Set: bitset.Single(3), RelID: 3, Op: OpScan, Rows: 100, Cost: 7})
	e, ok := tab.View(bitset.Single(3))
	if !ok {
		t.Fatal("base entry missing")
	}
	if !e.Leaf || e.RelID != 3 || e.Rows != 100 || e.Cost != 7 || e.Op != OpScan {
		t.Errorf("entry = %+v", e)
	}
	if e.LogRows != math.Log2(100) || e.LogIdx != math.Log2(102) {
		t.Errorf("memoized logs wrong: %v %v", e.LogRows, e.LogIdx)
	}
	if _, ok := tab.View(bitset.Single(4)); ok {
		t.Error("phantom entry")
	}
	if _, ok := tab.View(0); ok {
		t.Error("empty set must not resolve")
	}
}

// TestTableGrowthAtHighLoad drives the table far past its initial capacity
// and checks every entry survives the rehashes.
func TestTableGrowthAtHighLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tab := NewTable(64, 2) // minimum capacity, forces repeated growth
	want := map[bitset.Mask]float64{}
	for i := 0; i < 20000; i++ {
		s := bitset.Mask(rng.Uint64())
		if s == 0 {
			continue
		}
		c := rng.Float64() * 1e6
		if cur, ok := want[s]; !ok || c < cur {
			want[s] = c
			tab.Put(s, Winner{Left: s.LowestBit(), Right: s.Diff(s.LowestBit()), Cost: c, Found: true})
		}
	}
	if tab.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(want))
	}
	if 10*tab.Len() > 7*len(tab.keys) {
		t.Errorf("load factor above 0.7 after growth: %d/%d", tab.Len(), len(tab.keys))
	}
	for s, c := range want {
		got, ok := tab.Cost(s)
		if !ok || got != c {
			t.Fatalf("entry %v: cost %v ok=%v, want %v", s, got, ok, c)
		}
	}
}

// TestTableDifferentialAgainstMemo runs the same randomized sequence of
// stores through the SoA table and the reference map memo — unconditional
// ones and the keep-the-cheaper ones of the DP drivers, which Memo.Improve
// decides; stored costs and membership must agree exactly.
func TestTableDifferentialAgainstMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tab := NewTable(16, 4)
	memo := NewMemo(8)
	keys := make([]bitset.Mask, 300)
	for i := range keys {
		for keys[i] == 0 {
			keys[i] = bitset.Mask(rng.Uint64() & 0xffff) // small space forces collisions
		}
	}
	for i := 0; i < 10000; i++ {
		s := keys[rng.Intn(len(keys))]
		c := rng.Float64() * 100
		w := Winner{Left: s.LowestBit(), Right: s.Diff(s.LowestBit()), Rows: c, Cost: c, Found: true}
		if rng.Intn(4) == 0 {
			tab.Put(s, w)
			memo.Put(s, &Node{Set: s, Cost: c})
		} else if memo.Improve(s, &Node{Set: s, Cost: c}) {
			tab.Put(s, w)
		}
	}
	if tab.Len() != memo.Len() {
		t.Fatalf("Len mismatch: %d vs %d", tab.Len(), memo.Len())
	}
	for _, s := range keys {
		c, ok := tab.Cost(s)
		n := memo.Get(s)
		if ok != (n != nil) {
			t.Fatalf("membership mismatch for %v", s)
		}
		if ok && c != n.Cost {
			t.Fatalf("cost mismatch for %v: %v vs %v", s, c, n.Cost)
		}
	}
}

// TestTableBuildDefersMaterialization checks that Build reconstructs the
// recorded winning tree from the splits, resolving base entries to the
// provided leaf plans and allocating interior nodes from the arena.
func TestTableBuildDefersMaterialization(t *testing.T) {
	leaves := []*Node{
		leaf(0, 10, 1), leaf(1, 20, 2), leaf(2, 30, 3),
	}
	tab := NewTable(3, 8)
	for i, l := range leaves {
		tab.PutBase(bitset.Single(i), l)
	}
	s01 := bitset.MaskOf(0, 1)
	full := bitset.MaskOf(0, 1, 2)
	tab.Put(s01, Winner{Left: bitset.Single(0), Right: bitset.Single(1), Op: OpHashJoin, Rows: 200, Cost: 10, Found: true})
	tab.Put(full, Winner{Left: s01, Right: bitset.Single(2), Op: OpMergeJoin, Rows: 6000, Cost: 42, Found: true})

	a := NewArena()
	p := tab.Build(full, leaves, a)
	if p == nil {
		t.Fatal("Build returned nil")
	}
	if p.Op != OpMergeJoin || p.Cost != 42 || p.Set != full {
		t.Errorf("root = %+v", p)
	}
	if p.Left.Op != OpHashJoin || p.Left.Set != s01 {
		t.Errorf("left = %+v", p.Left)
	}
	if p.Right != leaves[2] || p.Left.Left != leaves[0] || p.Left.Right != leaves[1] {
		t.Error("base entries must resolve to the provided leaf plans")
	}
	if err := p.Validate([]int{0, 1, 2}); err != nil {
		t.Errorf("built plan invalid: %v", err)
	}
	if a.Len() != 2 {
		t.Errorf("arena handed out %d nodes, want 2 interior nodes", a.Len())
	}
	if tab.Build(bitset.MaskOf(1, 2), leaves, a) != nil {
		t.Error("Build of an unknown set must return nil")
	}
}

func TestTableRejectsEmptySet(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty-set key")
		}
	}()
	NewTable(4, 4).Put(0, Winner{Found: true})
}

func TestArenaResetRecyclesChunks(t *testing.T) {
	a := NewArena()
	first := make([]*Node, 0, 3*arenaChunk/2)
	for i := 0; i < cap(first); i++ {
		n := a.New()
		n.RelID = i
		first = append(first, n)
	}
	if a.Len() != len(first) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(first))
	}
	for i, n := range first {
		if n.RelID != i {
			t.Fatalf("node %d overwritten before Reset", i)
		}
	}
	a.Reset()
	if a.Len() != 0 {
		t.Errorf("Len after Reset = %d", a.Len())
	}
	if len(a.chunks) != 1 || cap(a.chunks[0]) != arenaChunk {
		t.Errorf("Reset kept %d chunks, want the first one only", len(a.chunks))
	}
	// After Reset the same chunk memory is handed out again, zeroed.
	n := a.New()
	if n != first[0] {
		t.Error("Reset must recycle the first chunk")
	}
	if n.RelID != 0 || n.Left != nil {
		t.Error("recycled node not zeroed")
	}
}

// tableModel is the map state the table is checked against: plan.Memo — the
// reference memo — decides membership, Len and whether a keep-the-cheaper
// store installs; the records beside it hold what Memo's nodes do not
// (split, leaf-ness).
type tableModel struct {
	memo *Memo
	rec  map[bitset.Mask]modelRec
}

type modelRec struct {
	left       bitset.Mask
	rows, cost float64
	op         Op
	leaf       bool
	relID      int32
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameEntry is == on entries with the floats compared as bits (NaN == NaN).
func sameEntry(a, b Entry) bool {
	return a.Set == b.Set && a.Left == b.Left && a.Right == b.Right && a.Op == b.Op && a.Leaf == b.Leaf && a.RelID == b.RelID &&
		sameBits(a.Rows, b.Rows) && sameBits(a.Cost, b.Cost) && sameBits(a.LogRows, b.LogRows) && sameBits(a.LogIdx, b.LogIdx)
}

// anyFloat draws from every float64 bit pattern — NaNs, ±Inf, zeros,
// subnormals and negatives included — with the named ones over-weighted.
func anyFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return -rng.Float64() * 1e9
	case 6:
		return float64(rng.Intn(4)) // small values collide: keep-the-cheaper stores see ties
	}
	return math.Float64frombits(rng.Uint64())
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected a panic", what)
		}
	}()
	f()
}

// checkEntry compares everything the table says about s with the model.
func (m *tableModel) checkEntry(t *testing.T, tab *Table, s bitset.Mask) {
	t.Helper()
	want, stored := m.rec[s]
	if (m.memo.Get(s) != nil) != stored {
		t.Fatalf("model out of step on %v", s)
	}
	e, ok := tab.Get(s)
	v, vok := tab.View(s)
	c, cok := tab.Cost(s)
	i, iok := tab.Slot(s)
	if ok != stored || vok != stored || cok != stored || iok != stored || tab.Has(s) != stored {
		t.Fatalf("%v: Get/View/Cost/Slot/Has = %v/%v/%v/%v/%v, stored = %v", s, ok, vok, cok, iok, tab.Has(s), stored)
	}
	if !stored {
		if tab.IsLeaf(s) {
			t.Fatalf("%v: absent set reported as a leaf", s)
		}
		mustPanic(t, "MustSlot of an absent set", func() { tab.MustSlot(s) })
		mustPanic(t, "MustView of an absent set", func() { tab.MustView(s) })
		return
	}
	wantRight := bitset.Mask(0)
	if want.left != 0 {
		wantRight = s.Diff(want.left)
	}
	if e.Set != s || e.Left != want.left || e.Right != wantRight {
		t.Fatalf("%v: split %v|%v, want %v|%v", s, e.Left, e.Right, want.left, wantRight)
	}
	if !sameBits(e.Cost, want.cost) || !sameBits(c, want.cost) {
		t.Fatalf("%v: cost bits %x / %x, want %x", s, math.Float64bits(e.Cost), math.Float64bits(c), math.Float64bits(want.cost))
	}
	// LogIdx is defined for leaves, the only inner an index nested loop has.
	wantIdx := 0.0
	if want.leaf {
		wantIdx = math.Log2(want.rows + 2)
		if !sameBits(tab.LeafLogIdx(s), wantIdx) {
			t.Fatalf("%v: LeafLogIdx %v, want %v", s, tab.LeafLogIdx(s), wantIdx)
		}
	}
	if !sameBits(e.Rows, want.rows) ||
		!sameBits(e.LogRows, math.Log2(math.Max(want.rows, 2))) || !sameBits(e.LogIdx, wantIdx) {
		t.Fatalf("%v: rows %v logs %v %v, want rows %v (leaf: %v)", s, e.Rows, e.LogRows, e.LogIdx, want.rows, want.leaf)
	}
	// What the inner loops read by slot is what the entry says.
	rows, lg := tab.ScalarsAt(i)
	if i != tab.MustSlot(s) || !sameBits(tab.CostAt(i), e.Cost) || !sameBits(rows, e.Rows) || !sameBits(lg, e.LogRows) || tab.RelIDAt(i) != int(e.RelID) {
		t.Fatalf("%v: slot %d reads cost %v rows %v lg %v rel %d, entry %+v", s, i, tab.CostAt(i), rows, lg, tab.RelIDAt(i), e)
	}
	if e.Op != want.op || e.Leaf != want.leaf || tab.IsLeaf(s) != want.leaf || e.RelID != want.relID {
		t.Fatalf("%v: op/leaf/rel = %v/%v(%v)/%d, want %v/%v/%d", s, e.Op, e.Leaf, tab.IsLeaf(s), e.RelID, want.op, want.leaf, want.relID)
	}
	// The costing view is the entry minus the split.
	e.Left, e.Right = 0, 0
	if !sameEntry(v, e) || !sameEntry(tab.MustView(s), e) {
		t.Fatalf("%v: View %+v / MustView %+v differ from Get %+v", s, v, tab.MustView(s), e)
	}
}

// checkAll compares Len, every pool key and the rangeInterior set with the model.
func (m *tableModel) checkAll(t *testing.T, tab *Table, pool []bitset.Mask) map[bitset.Mask]Winner {
	t.Helper()
	if tab.Len() != m.memo.Len() || tab.Len() != len(m.rec) {
		t.Fatalf("Len = %d, model has %d", tab.Len(), len(m.rec))
	}
	for _, s := range pool {
		m.checkEntry(t, tab, s)
	}
	var leaves bitset.Mask
	interior := 0
	for s, r := range m.rec {
		if r.leaf {
			leaves |= s
		}
		if r.left != 0 {
			interior++
		}
	}
	if tab.leaf != leaves {
		t.Fatalf("leaf mask %v, want %v", tab.leaf, leaves)
	}
	ranged := map[bitset.Mask]Winner{}
	tab.rangeInterior(func(s bitset.Mask, w Winner) {
		if _, dup := ranged[s]; dup {
			t.Fatalf("rangeInterior yielded %v twice", s)
		}
		ranged[s] = w
		r, ok := m.rec[s]
		if !ok || r.left == 0 {
			t.Fatalf("rangeInterior yielded %v, which the model holds as absent or base", s)
		}
		if !w.Found || w.Left != r.left || w.Right != s.Diff(w.Left) || w.Op != r.op ||
			!sameBits(w.Rows, r.rows) || !sameBits(w.Cost, r.cost) {
			t.Fatalf("rangeInterior(%v) = %+v, want %+v", s, w, r)
		}
	})
	if len(ranged) != interior {
		t.Fatalf("rangeInterior yielded %d sets, model has %d interior", len(ranged), interior)
	}
	return ranged
}

// runTableOps drives tab and the model through the same random sequence of
// Put, keep-the-cheaper and PutBase over pool, probing as it goes, and
// returns what rangeInterior yields at the end.
func runTableOps(t *testing.T, tab *Table, n int, pool []bitset.Mask, rng *rand.Rand) map[bitset.Mask]Winner {
	t.Helper()
	m := &tableModel{memo: NewMemo(n), rec: map[bitset.Mask]modelRec{}}
	winner := func(s bitset.Mask) Winner {
		// A non-empty left side inside s: proper when s has two relations
		// or more, s itself for the singleton the real drivers never Put.
		left := s.LowestBit()
		if sub := bitset.Mask(rng.Uint64()) & s; sub != 0 && sub != s {
			left = sub
		}
		return Winner{Left: left, Right: s.Diff(left), Rows: anyFloat(rng), Cost: anyFloat(rng), Op: Op(1 + rng.Intn(4)), Found: true}
	}
	record := func(s bitset.Mask, w Winner) {
		m.memo.Put(s, &Node{Set: s, Cost: w.Cost})
		m.rec[s] = modelRec{left: w.Left, rows: w.Rows, cost: w.Cost, op: w.Op}
	}
	for op := 0; op < 6000; op++ {
		s := pool[rng.Intn(len(pool))]
		wasDirect := tab.keys == nil
		switch k := rng.Intn(10); {
		case k < 3:
			w := winner(s)
			tab.Put(s, w)
			record(s, w)
		case k < 7:
			// A keep-the-cheaper store, as the DP drivers make: Memo.Improve
			// decides (ties keep the incumbent) and the table is Put only
			// then; record rewrites the memo's node.
			w := winner(s)
			if m.memo.Improve(s, &Node{Set: s, Cost: w.Cost}) {
				tab.Put(s, w)
				record(s, w)
			}
		case k < 8:
			s = bitset.Single(rng.Intn(n))
			node := &Node{Set: s, RelID: rng.Intn(n), Op: OpScan, Rows: anyFloat(rng), Cost: anyFloat(rng)}
			if rng.Intn(3) == 0 {
				node.Left, node.Right = &Node{}, &Node{} // a composite plan passed as a leaf
			}
			tab.PutBase(s, node)
			m.memo.Put(s, node)
			m.rec[s] = modelRec{rows: node.Rows, cost: node.Cost, op: node.Op, leaf: node.IsLeaf(), relID: int32(node.RelID)}
		default:
			// A probe of anything: pool keys, absent sets, the empty set
			// and, when the mask is wider than the query, foreign relations.
			if rng.Intn(2) == 0 {
				s = bitset.Mask(rng.Uint64()) >> uint(rng.Intn(64))
			}
		}
		m.checkEntry(t, tab, s)
		if wasDirect != (tab.keys == nil) || op%1500 == 0 {
			m.checkAll(t, tab, pool) // in particular right after the layout switch
		}
	}
	return m.checkAll(t, tab, pool)
}

// TestTablePropertyAllRegimes runs the random operation sequence against the
// map model in each addressing regime: the hash layout, the direct layout
// from construction, and a hash layout that grows into the direct one —
// entries, Len, leaf mask and splits survive the switch. Regimes given the
// same operations must end with the same rangeInterior set.
//
// Every regime then runs a second time on one table that is Reset from
// regime to regime and never replaced — hash to direct and back, n shrinking
// to 1 and growing again, lanes full of the previous regime's NaNs and
// infinities. It must start in the layout NewTable picks, hold nothing of
// what it held before the Reset, pass the same model checks and end with
// the same rangeInterior set: a recycled table is a fresh one.
func TestTablePropertyAllRegimes(t *testing.T) {
	type key struct{ n, pool int }
	final := map[key]map[bitset.Mask]Winner{}
	sameInterior := func(t *testing.T, got, prev map[bitset.Mask]Winner, other string) {
		t.Helper()
		if len(prev) != len(got) {
			t.Fatalf("rangeInterior set has %d entries, %s %d", len(got), other, len(prev))
		}
		for s, w := range got {
			p := prev[s]
			if p.Left != w.Left || p.Right != w.Right || p.Op != w.Op || !sameBits(p.Rows, w.Rows) || !sameBits(p.Cost, w.Cost) {
				t.Fatalf("rangeInterior(%v) = %+v, %s %+v", s, w, other, p)
			}
		}
	}
	recycled := new(Table)
	var stale []bitset.Mask // what recycled was driven over before its last Reset
	for _, tc := range []struct {
		name                   string
		n, hint, pool          int
		startDirect, endDirect bool
	}{
		{"hash/n=64", 64, 2, 500, false, false},
		{"hash/n=40", 40, 2, 500, false, false},
		{"hash", 10, 2, 300, false, false},
		{"direct", 10, 1 << 10, 300, true, true},
		{"direct/dense-hint", 10, 1<<8 + 1, 300, true, true}, // density just over a quarter
		{"hash-grows-into-direct", 10, 2, 600, false, true},
		{"direct/full", 10, 1 << 10, 600, true, true},
		{"direct/n=1", 1, 1, 1, true, true},
		// For the recycled table: back up from n = 1, direct to hash, and a
		// growth that has to leave arrays a Reset kept.
		{"hash/after-direct", 10, 2, 300, false, false},
		{"hash-grows-into-direct/again", 10, 2, 600, false, true},
		{"hash/n=40/again", 40, 2, 500, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seed := int64(1000*tc.n + tc.pool)
			rng := rand.New(rand.NewSource(seed))
			ops := func() *rand.Rand { return rand.New(rand.NewSource(seed + 1)) } // the same operations each time
			space := bitset.Full(tc.n)
			seen := map[bitset.Mask]bool{}
			var pool []bitset.Mask
			for len(pool) < tc.pool {
				if s := bitset.Mask(rng.Uint64()) & space; s != 0 && !seen[s] {
					seen[s] = true
					pool = append(pool, s)
				}
			}
			tab := NewTable(tc.n, tc.hint)
			if (tab.keys == nil) != tc.startDirect {
				t.Fatalf("NewTable(%d, %d): direct = %v, want %v", tc.n, tc.hint, tab.keys == nil, tc.startDirect)
			}
			slots := len(tab.cost)
			got := runTableOps(t, tab, tc.n, pool, ops())
			if (tab.keys == nil) != tc.endDirect {
				t.Fatalf("ended direct = %v, want %v", tab.keys == nil, tc.endDirect)
			}
			if tc.endDirect && len(tab.cost) != 1<<tc.n {
				t.Errorf("direct layout has %d slots, want 2^%d", len(tab.cost), tc.n)
			}
			if tc.startDirect && len(tab.cost) != slots {
				t.Errorf("direct layout grew: %d -> %d slots", slots, len(tab.cost))
			}
			k := key{tc.n, tc.pool}
			if prev, ok := final[k]; ok {
				sameInterior(t, got, prev, "the other regime's")
			}
			final[k] = got

			recycled.Reset(tc.n, tc.hint)
			if (recycled.keys == nil) != tc.startDirect || len(recycled.cost) != slots || recycled.Len() != 0 || recycled.leaf != 0 {
				t.Fatalf("Reset(%d, %d): direct = %v with %d slots, Len %d, leaf mask %v; NewTable starts direct = %v with %d, empty",
					tc.n, tc.hint, recycled.keys == nil, len(recycled.cost), recycled.Len(), recycled.leaf, tc.startDirect, slots)
			}
			for _, s := range stale {
				if _, ok := recycled.Cost(s); ok || recycled.Has(s) {
					t.Fatalf("%v was stored before the Reset and still probes as present", s)
				}
				if _, ok := recycled.Get(s); ok {
					t.Fatalf("%v was stored before the Reset and Get still finds it", s)
				}
			}
			sameInterior(t, runTableOps(t, recycled, tc.n, pool, ops()), got, "a fresh table's")
			if (recycled.keys == nil) != (tab.keys == nil) || len(recycled.cost) != len(tab.cost) {
				t.Fatalf("recycled table ended direct = %v with %d slots, the fresh one direct = %v with %d",
					recycled.keys == nil, len(recycled.cost), tab.keys == nil, len(tab.cost))
			}
			stale = pool
		})
	}
}

// TestTableRejectsSetsOutsideTheQuery: the table knows n, so a set naming a
// relation ≥ n is rejected by Put exactly like the empty set, in both
// layouts, and PutBase takes single relations only.
func TestTableRejectsSetsOutsideTheQuery(t *testing.T) {
	w := Winner{Left: 1, Right: 2, Found: true}
	for _, hint := range []int{2, 1 << 6} { // hash, direct
		tab := NewTable(6, hint)
		for _, s := range []bitset.Mask{0, 1 << 6, 1<<6 | 3, 1 << 63, ^bitset.Mask(0)} {
			if _, ok := tab.Cost(s); ok || tab.Has(s) {
				t.Errorf("hint %d: %v probes as present", hint, s)
			}
			mustPanic(t, "Put outside the query", func() { tab.Put(s, w) })
		}
		mustPanic(t, "PutBase of two relations", func() { tab.PutBase(3, &Node{}) })
		if tab.Len() != 0 {
			t.Errorf("hint %d: rejected sets were counted: Len = %d", hint, tab.Len())
		}
	}
}

// TestTableClaimThenPutAtIsPut: what a level's workers do — every set of a
// level claimed first, then each winner stored by slot, in any order — leaves
// the table holding exactly what Put in set order leaves, in the hash layout,
// the direct one and a hash layout the claims grow into the direct one. A
// claim makes a set present before its winner is stored, and only a joined
// set of the query can be claimed.
func TestTableClaimThenPutAtIsPut(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n, hint int
		direct  bool // at the end
	}{{"hash", 40, 600, false}, {"direct", 10, 1 << 10, true}, {"hash-grows-into-direct", 10, 2, true}} {
		rng := rand.New(rand.NewSource(int64(tc.n + tc.hint)))
		seen := map[bitset.Mask]bool{}
		var sets []bitset.Mask
		var wins []Winner
		for len(sets) < 600 {
			s := bitset.Mask(rng.Uint64()) & bitset.Full(tc.n)
			if single(s) || seen[s] {
				continue
			}
			seen[s] = true
			left := s.LowestBit()
			sets = append(sets, s)
			wins = append(wins, Winner{Left: left, Right: s.Diff(left), Rows: anyFloat(rng), Cost: anyFloat(rng), Op: Op(1 + rng.Intn(4)), Found: true})
		}
		want, got := NewTable(tc.n, tc.hint), NewTable(tc.n, tc.hint)
		for i, s := range sets {
			want.Put(s, wins[i])
			got.Claim(s)
		}
		for _, i := range rng.Perm(len(sets)) {
			if !got.Has(sets[i]) {
				t.Fatalf("%s: claimed %v probes as absent", tc.name, sets[i])
			}
			got.PutAt(got.MustSlot(sets[i]), wins[i])
		}
		if got.Len() != want.Len() || (got.keys == nil) != tc.direct || (want.keys == nil) != tc.direct {
			t.Fatalf("%s: %d sets (direct %v), Put gives %d (direct %v)", tc.name, got.Len(), got.keys == nil, want.Len(), want.keys == nil)
		}
		for _, s := range sets {
			g, _ := got.Get(s)
			w, _ := want.Get(s)
			if !sameEntry(g, w) || g.Left != w.Left || g.Right != w.Right {
				t.Fatalf("%s: %v holds %+v, Put gives %+v", tc.name, s, g, w)
			}
		}
		mustPanic(t, tc.name+": Claim of a single relation", func() { got.Claim(bitset.Single(1)) })
		mustPanic(t, tc.name+": Claim outside the query", func() { got.Claim(bitset.Single(tc.n) | 1) })
	}
}

// TestAtLeastIsMathMax: the inlined clamp is math.Max to the bit for both
// floors the cost model uses, over raw random bit patterns (NaNs with every
// payload and sign among them) and the values where a hand-written max goes
// wrong: NaN payloads, ±0, ±Inf, denormals, and the neighbours of 1 and 2.
func TestAtLeastIsMathMax(t *testing.T) {
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF), math.Float64frombits(0xFFF0000000000001),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64, 0.5, 1.5, 3}
	for _, v := range []float64{1, 2} {
		xs = append(xs, v, -v, math.Nextafter(v, 0), math.Nextafter(v, 3), math.Nextafter(v, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for _, floor := range []float64{1, 2} {
		for _, x := range xs {
			if got, want := AtLeast(x, floor), math.Max(x, floor); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("AtLeast(%x, %v) = %x, math.Max gives %x", math.Float64bits(x), floor, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}
