package combinat

import "testing"

func TestBinomialSmallValues(t *testing.T) {
	cases := []struct {
		n, k int
		want uint64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{52, 5, 2598960}, {30, 15, 155117520},
		{5, 6, 0}, {3, -1, 0}, {65, 2, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialPascalIdentity(t *testing.T) {
	for n := 2; n <= 40; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at (%d, %d)", n, k)
			}
		}
	}
}
