// Package combinat holds the binomial coefficients of the combinatorial
// number system. The GPU workflow of the paper (§5, "Unrank") assigns each
// device thread a rank in [0, C(n, k)) and lets it materialize the rank-th
// k-subset with no coordination; the device model (package gpusim) bills
// that kernel's C(n, k) candidates per level from this table.
package combinat

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
