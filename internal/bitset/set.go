package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a dynamically sized bitmap set of relation indices. It is used by
// the heuristic layer (IDP2, UnionDP, GOO, ...) where queries may join
// thousands of relations and therefore do not fit in a single Mask.
//
// All binary operations require both operands to have the same width; sets
// produced by the same NewSet(n) family satisfy this.
type Set struct {
	words []uint64
}

// NewSet returns an empty set able to hold indices [0, n).
func NewSet(n int) Set {
	return Set{words: make([]uint64, (n+63)/64)}
}

// NewSets returns count empty sets able to hold indices [0, n), all in one
// allocation.
func NewSets(count, n int) []Set {
	w := (n + 63) / 64
	words := make([]uint64, count*w)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*w : (i+1)*w : (i+1)*w]}
	}
	return sets
}

// SetOf returns a set of width n containing the given indices.
func SetOf(n int, indices ...int) Set {
	s := NewSet(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// FromMask converts a Mask into a width-n Set.
func FromMask(n int, m Mask) Set {
	s := NewSet(n)
	if len(s.words) > 0 {
		s.words[0] = uint64(m)
	}
	return s
}

// Width returns the capacity of the set in bits.
func (s Set) Width() int { return len(s.words) * 64 }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w}
}

// Add inserts index i.
//
//mpdp:hotpath
func (s Set) Add(i int) { s.words[i/64] |= 1 << uint(i%64) }

// Remove deletes index i.
//
//mpdp:hotpath
func (s Set) Remove(i int) { s.words[i/64] &^= 1 << uint(i%64) }

// Has reports whether i is in the set.
//
//mpdp:hotpath
func (s Set) Has(i int) bool { return s.words[i/64]&(1<<uint(i%64)) != 0 }

// Empty reports whether the set has no elements.
//
//mpdp:hotpath
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the cardinality.
//
//mpdp:hotpath
func (s Set) Count() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// UnionWith adds every element of o to s in place.
//
//mpdp:hotpath
func (s Set) UnionWith(o Set) {
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o, in place.
//
//mpdp:hotpath
func (s Set) IntersectWith(o Set) {
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DiffWith removes every element of o from s in place.
//
//mpdp:hotpath
func (s Set) DiffWith(o Set) {
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Union returns s ∪ o as a new set.
func (s Set) Union(o Set) Set {
	out := s.Clone()
	out.UnionWith(o)
	return out
}

// Intersect returns s ∩ o as a new set.
func (s Set) Intersect(o Set) Set {
	out := s.Clone()
	out.IntersectWith(o)
	return out
}

// Diff returns s \ o as a new set.
func (s Set) Diff(o Set) Set {
	out := s.Clone()
	out.DiffWith(o)
	return out
}

// Disjoint reports whether s ∩ o = ∅.
//
//mpdp:hotpath
func (s Set) Disjoint(o Set) bool {
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ o.
//
//mpdp:hotpath
func (s Set) SubsetOf(o Set) bool {
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain the same elements.
//
//mpdp:hotpath
func (s Set) Equal(o Set) bool {
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Lowest returns the smallest element, or -1 if the set is empty.
//
//mpdp:hotpath
func (s Set) Lowest() int {
	for i, w := range s.words {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Elements returns the elements in increasing order.
func (s Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls f for every element in increasing order.
//
//mpdp:hotpath
func (s Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for ; w != 0; w &= w - 1 {
			f(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// Key returns a string usable as a map key identifying the set contents.
func (s Set) Key() string {
	var b strings.Builder
	for _, w := range s.words {
		b.WriteByte(byte(w))
		b.WriteByte(byte(w >> 8))
		b.WriteByte(byte(w >> 16))
		b.WriteByte(byte(w >> 24))
		b.WriteByte(byte(w >> 32))
		b.WriteByte(byte(w >> 40))
		b.WriteByte(byte(w >> 48))
		b.WriteByte(byte(w >> 56))
	}
	return b.String()
}

// String renders the set as "{i, j, ...}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
