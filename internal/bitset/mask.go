// Package bitset provides the relation-set representations used throughout
// the optimizer: a fixed-width 64-bit Mask for dynamic-programming inner
// loops (queries and partitions of up to 64 relations) and a dynamic Set for
// the heuristic layer, which must address graphs with 1000+ relations.
//
// The paper (§2.2.1, §5) represents all relation sets and adjacency lists as
// bitmap sets; where the paper expands a dense subset rank with the
// parallel-bit-deposit (PDEP) instruction, the spider lattice of package dp
// unranks its sets by a count table of bounded compositions instead.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

// Mask is a set of up to 64 relations, one bit per relation index.
// The zero value is the empty set.
type Mask uint64

// MaskOf returns the set containing exactly the given relation indices.
func MaskOf(indices ...int) Mask {
	var m Mask
	for _, i := range indices {
		m |= 1 << uint(i)
	}
	return m
}

// Single returns the singleton set {i}.
//
//mpdp:hotpath
func Single(i int) Mask { return 1 << uint(i) }

// Full returns the set {0, 1, ..., n-1}.
//
//mpdp:hotpath
func Full(n int) Mask {
	if n >= 64 {
		return ^Mask(0)
	}
	return (1 << uint(n)) - 1
}

// Has reports whether relation i is in the set.
//
//mpdp:hotpath
func (m Mask) Has(i int) bool { return m&(1<<uint(i)) != 0 }

// Add returns m ∪ {i}.
//
//mpdp:hotpath
func (m Mask) Add(i int) Mask { return m | 1<<uint(i) }

// Remove returns m \ {i}.
//
//mpdp:hotpath
func (m Mask) Remove(i int) Mask { return m &^ (1 << uint(i)) }

// Union returns m ∪ o.
//
//mpdp:hotpath
func (m Mask) Union(o Mask) Mask { return m | o }

// Intersect returns m ∩ o.
//
//mpdp:hotpath
func (m Mask) Intersect(o Mask) Mask { return m & o }

// Diff returns m \ o.
//
//mpdp:hotpath
func (m Mask) Diff(o Mask) Mask { return m &^ o }

// Empty reports whether the set is empty.
//
//mpdp:hotpath
func (m Mask) Empty() bool { return m == 0 }

// Count returns the cardinality |m|.
//
//mpdp:hotpath
func (m Mask) Count() int { return bits.OnesCount64(uint64(m)) }

// Lowest returns the smallest relation index in m.
// It must not be called on the empty set.
//
//mpdp:hotpath
func (m Mask) Lowest() int { return bits.TrailingZeros64(uint64(m)) }

// LowestBit returns the singleton set containing the smallest element of m,
// or the empty set if m is empty.
//
//mpdp:hotpath
func (m Mask) LowestBit() Mask { return m & -m }

// Highest returns the largest relation index in m.
// It must not be called on the empty set.
//
//mpdp:hotpath
func (m Mask) Highest() int { return 63 - bits.LeadingZeros64(uint64(m)) }

// Disjoint reports whether m ∩ o = ∅.
//
//mpdp:hotpath
func (m Mask) Disjoint(o Mask) bool { return m&o == 0 }

// SubsetOf reports whether m ⊆ o.
//
//mpdp:hotpath
func (m Mask) SubsetOf(o Mask) bool { return m&^o == 0 }

// Elements returns the relation indices in m in increasing order.
func (m Mask) Elements() []int {
	out := make([]int, 0, m.Count())
	for s := m; s != 0; s &= s - 1 {
		out = append(out, s.Lowest())
	}
	return out
}

// ForEach calls f for every relation index in m in increasing order.
//
//mpdp:hotpath
func (m Mask) ForEach(f func(i int)) {
	for s := m; s != 0; s &= s - 1 {
		f(s.Lowest())
	}
}

// NextSubset steps through the non-empty subsets of super in increasing
// numeric order. Starting from sub = 0, repeated application
//
//	sub = sub.NextSubset(super)
//
// yields every non-empty subset of super exactly once and returns 0 after the
// last one. This is the standard (sub - super) & super trick used by the
// subset-precedence enumeration of DPSub.
//
//mpdp:hotpath
func (m Mask) NextSubset(super Mask) Mask {
	return (m - super) & super
}

// String renders the set as "{i, j, ...}".
func (m Mask) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	m.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		b.WriteString(strconv.Itoa(i))
	})
	b.WriteByte('}')
	return b.String()
}
