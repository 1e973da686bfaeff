package bitset

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 3, 63)
	if !m.Has(0) || !m.Has(3) || !m.Has(63) || m.Has(1) {
		t.Fatalf("membership broken: %v", m)
	}
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	if m.Lowest() != 0 || m.Highest() != 63 {
		t.Errorf("Lowest/Highest = %d/%d", m.Lowest(), m.Highest())
	}
	if got := m.Remove(3); got.Has(3) || got.Count() != 2 {
		t.Errorf("Remove failed: %v", got)
	}
	if s := m.String(); s != "{0, 3, 63}" {
		t.Errorf("String = %q", s)
	}
}

func TestMaskFull(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64} {
		f := Full(n)
		if f.Count() != n {
			t.Errorf("Full(%d).Count() = %d", n, f.Count())
		}
	}
}

func TestMaskSetAlgebraProperties(t *testing.T) {
	f := func(a, b uint64) bool {
		ma, mb := Mask(a), Mask(b)
		union := ma.Union(mb)
		inter := ma.Intersect(mb)
		diff := ma.Diff(mb)
		// |A ∪ B| + |A ∩ B| = |A| + |B|
		if union.Count()+inter.Count() != ma.Count()+mb.Count() {
			return false
		}
		// A \ B and B are disjoint; their union is A ∪ B.
		if !diff.Disjoint(mb) || diff.Union(mb) != union {
			return false
		}
		// Subset relations.
		if !inter.SubsetOf(ma) || !inter.SubsetOf(mb) || !ma.SubsetOf(union) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNextSubsetEnumeratesAllSubsets(t *testing.T) {
	super := MaskOf(1, 4, 9, 17, 30)
	seen := map[Mask]bool{}
	for sub := super.LowestBit(); !sub.Empty(); sub = sub.NextSubset(super) {
		if !sub.SubsetOf(super) {
			t.Fatalf("%v not a subset of %v", sub, super)
		}
		if seen[sub] {
			t.Fatalf("duplicate subset %v", sub)
		}
		seen[sub] = true
	}
	if want := (1 << super.Count()) - 1; len(seen) != want {
		t.Errorf("enumerated %d non-empty subsets, want %d", len(seen), want)
	}
}

func TestMaskElementsForEachAgree(t *testing.T) {
	f := func(a uint64) bool {
		m := Mask(a)
		var viaForEach []int
		m.ForEach(func(i int) { viaForEach = append(viaForEach, i) })
		els := m.Elements()
		if len(els) != len(viaForEach) || len(els) != bits.OnesCount64(a) {
			return false
		}
		for i := range els {
			if els[i] != viaForEach[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetMatchesMaskSemantics(t *testing.T) {
	// Dynamic Set and Mask must implement identical set algebra; verify on
	// random operations within 64 bits.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		a, b := Mask(rng.Uint64()), Mask(rng.Uint64())
		sa, sb := FromMask(64, a), FromMask(64, b)
		checks := []struct {
			name string
			m    Mask
			s    Set
		}{
			{"union", a.Union(b), sa.Union(sb)},
			{"intersect", a.Intersect(b), sa.Intersect(sb)},
			{"diff", a.Diff(b), sa.Diff(sb)},
		}
		for _, c := range checks {
			if !c.s.Equal(FromMask(64, c.m)) {
				t.Fatalf("%s mismatch: mask %v set %v", c.name, c.m, c.s)
			}
		}
		if a.Disjoint(b) != sa.Disjoint(sb) {
			t.Fatal("Disjoint mismatch")
		}
		if a.SubsetOf(b) != sa.SubsetOf(sb) {
			t.Fatal("SubsetOf mismatch")
		}
		if a.Count() != sa.Count() {
			t.Fatal("Count mismatch")
		}
		if !a.Empty() && a.Lowest() != sa.Lowest() {
			t.Fatal("Lowest mismatch")
		}
	}
}

func TestSetLargeWidth(t *testing.T) {
	s := NewSet(1000)
	for _, i := range []int{0, 63, 64, 512, 999} {
		s.Add(i)
	}
	if s.Count() != 5 {
		t.Errorf("Count = %d, want 5", s.Count())
	}
	if !s.Has(512) || s.Has(511) {
		t.Error("membership across words broken")
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 4 {
		t.Error("Remove across words broken")
	}
	els := s.Elements()
	want := []int{0, 63, 512, 999}
	for i, v := range want {
		if els[i] != v {
			t.Errorf("Elements[%d] = %d, want %d", i, els[i], v)
		}
	}
}

func TestSetKeyUniqueness(t *testing.T) {
	a := SetOf(200, 1, 100, 199)
	b := SetOf(200, 1, 100, 198)
	if a.Key() == b.Key() {
		t.Error("distinct sets share a key")
	}
	if a.Key() != a.Clone().Key() {
		t.Error("clone changes key")
	}
}

func TestSetInPlaceOps(t *testing.T) {
	a := SetOf(128, 1, 2, 3, 100)
	b := SetOf(128, 3, 100, 127)
	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 5 {
		t.Errorf("UnionWith count = %d", u.Count())
	}
	i := a.Clone()
	i.IntersectWith(b)
	if i.Count() != 2 || !i.Has(3) || !i.Has(100) {
		t.Errorf("IntersectWith wrong: %v", i)
	}
	d := a.Clone()
	d.DiffWith(b)
	if d.Count() != 2 || d.Has(3) {
		t.Errorf("DiffWith wrong: %v", d)
	}
}
