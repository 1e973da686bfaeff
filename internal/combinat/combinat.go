// Package combinat implements the combinatorial number system used by the
// vertex-based enumerators (DPSub, MPDP) to map a dense rank in
// [0, C(n,k)) to the rank-th k-subset of an n-element universe and back.
//
// The GPU workflow of the paper (§5, "Unrank") assigns each device thread a
// rank and lets it materialize its own subset with no coordination; the same
// scheme drives the level-synchronous CPU-parallel variants here.
package combinat

import (
	"math/bits"

	"repro/internal/bitset"
)

// MaxN is the largest universe size supported by the precomputed binomial
// table. 64 covers every Mask-width query the exact optimizers accept.
const MaxN = 64

// binom[n][k] = C(n, k), saturated at the largest uint64 to avoid overflow
// in the unreachable upper-right corner of the table.
var binom [MaxN + 1][MaxN + 1]uint64

func init() {
	for n := 0; n <= MaxN; n++ {
		binom[n][0] = 1
		for k := 1; k <= n; k++ {
			sum := binom[n-1][k-1] + binom[n-1][k]
			if sum < binom[n-1][k-1] { // overflow: saturate
				sum = ^uint64(0)
			}
			binom[n][k] = sum
		}
	}
}

// Binomial returns C(n, k) for 0 <= n <= MaxN. Out-of-range k yields 0.
func Binomial(n, k int) uint64 {
	if k < 0 || k > n || n > MaxN {
		return 0
	}
	return binom[n][k]
}

// Unrank returns the rank-th k-subset of {0, ..., n-1} in colexicographic
// order as a Mask. rank must be in [0, C(n,k)).
//
// Colexicographic unranking proceeds from the largest candidate element
// downward: element c is included iff rank >= C(c, remaining), mirroring the
// combinadic decomposition rank = C(c_k, k) + C(c_{k-1}, k-1) + ... + C(c_1, 1).
func Unrank(rank uint64, n, k int) bitset.Mask {
	var m bitset.Mask
	c := n - 1
	for i := k; i >= 1; i-- {
		for Binomial(c, i) > rank {
			c--
		}
		m = m.Add(c)
		rank -= Binomial(c, i)
		c--
	}
	return m
}

// Rank is the inverse of Unrank: it returns the colexicographic rank of the
// k-subset m (with k = m.Count()) among the k-subsets of any sufficiently
// large universe.
func Rank(m bitset.Mask) uint64 {
	var rank uint64
	i := 1
	m.ForEach(func(c int) {
		rank += Binomial(c, i)
		i++
	})
	return rank
}

// NextCombination returns the colexicographically next k-subset after m
// using Gosper's hack, or 0 when m is the last k-subset representable in 64
// bits. It allows cheap sequential iteration without repeated unranking.
// Gosper divides by the lowest set bit of m; a shift by its index is the
// same quotient without the division.
func NextCombination(m bitset.Mask) bitset.Mask {
	u := uint64(m)
	r := u + u&-u
	if u == 0 || r == 0 {
		return 0
	}
	return bitset.Mask(r | (r^u)>>2>>bits.TrailingZeros64(u))
}
