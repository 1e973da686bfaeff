package plan

import (
	"strings"
	"testing"

	"repro/internal/bitset"
)

func leaf(id int, rows, cost float64) *Node {
	return &Node{Set: bitset.Single(id), RelID: id, Rows: rows, Cost: cost}
}

func join(l, r *Node) *Node {
	return &Node{
		Set:   l.Set.Union(r.Set),
		Left:  l,
		Right: r,
		Op:    OpHashJoin,
		Rows:  l.Rows * r.Rows,
		Cost:  l.Cost + r.Cost + 1,
	}
}

func TestNodeShapePredicates(t *testing.T) {
	a, b, c := leaf(0, 10, 1), leaf(1, 20, 1), leaf(2, 30, 1)
	leftDeep := join(join(a, b), c)
	bushyRight := join(a, join(b, c))
	if !leftDeep.IsLeftDeep() {
		t.Error("left-deep plan not recognized")
	}
	if bushyRight.IsLeftDeep() {
		t.Error("right-deep plan misclassified as left-deep")
	}
	if leftDeep.Size() != 3 || leftDeep.Depth() != 3 {
		t.Errorf("Size/Depth = %d/%d", leftDeep.Size(), leftDeep.Depth())
	}
	if a.Size() != 1 || a.Depth() != 1 || !a.IsLeaf() {
		t.Error("leaf predicates broken")
	}
}

func TestRelationsWalksLeaves(t *testing.T) {
	p := join(join(leaf(3, 1, 1), leaf(1, 1, 1)), leaf(2, 1, 1))
	got := p.Relations()
	if len(got) != 3 {
		t.Fatalf("Relations = %v", got)
	}
	seen := map[int]bool{}
	for _, r := range got {
		seen[r] = true
	}
	for _, want := range []int{1, 2, 3} {
		if !seen[want] {
			t.Errorf("missing relation %d", want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := join(leaf(0, 1, 1), leaf(1, 1, 1))
	if err := good.Validate([]int{0, 1}); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	dup := join(leaf(0, 1, 1), leaf(0, 1, 1))
	if err := dup.Validate([]int{0, 1}); err == nil {
		t.Error("duplicate leaf not caught")
	}
	missing := join(leaf(0, 1, 1), leaf(1, 1, 1))
	if err := missing.Validate([]int{0, 1, 2}); err == nil {
		t.Error("missing relation not caught")
	}
	extra := join(leaf(0, 1, 1), leaf(7, 1, 1))
	if err := extra.Validate([]int{0, 1}); err == nil {
		t.Error("unexpected relation not caught")
	}
}

func TestStringAndExplain(t *testing.T) {
	p := join(leaf(0, 10, 1), leaf(1, 20, 2))
	if s := p.String(); !strings.Contains(s, "R0") || !strings.Contains(s, "⋈") {
		t.Errorf("String = %q", s)
	}
	e := p.Explain(nameList{"orders", "lineitem"})
	if !strings.Contains(e, "orders") || !strings.Contains(e, "HashJoin") {
		t.Errorf("Explain = %q", e)
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{
		OpScan: "Scan", OpHashJoin: "HashJoin", OpNestLoop: "NestLoop",
		OpIndexNestLoop: "IndexNLJoin", OpMergeJoin: "MergeJoin",
	} {
		if op.String() != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, op.String(), want)
		}
	}
}

func TestMemoImprove(t *testing.T) {
	m := NewMemo(4)
	s := bitset.MaskOf(0, 1)
	cheap := &Node{Set: s, Cost: 5}
	costly := &Node{Set: s, Cost: 9}
	if !m.Improve(s, costly) {
		t.Error("first plan must install")
	}
	if m.Improve(s, costly) {
		t.Error("equal-cost plan must not reinstall")
	}
	if !m.Improve(s, cheap) {
		t.Error("cheaper plan must install")
	}
	if m.Get(s) != cheap {
		t.Error("memo kept the wrong plan")
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMurmurFinalizerAvalanche(t *testing.T) {
	// Flipping one input bit must flip roughly half the output bits.
	for bit := 0; bit < 64; bit++ {
		a := Murmur3Fmix64(0x12345678)
		b := Murmur3Fmix64(0x12345678 ^ (1 << uint(bit)))
		diff := a ^ b
		ones := 0
		for d := diff; d != 0; d &= d - 1 {
			ones++
		}
		if ones < 16 || ones > 48 {
			t.Errorf("bit %d: only %d output bits flipped", bit, ones)
		}
	}
}
