package obs

import (
	"math/rand"
	"testing"
	"time"
)

func TestHistBucketRoundTrip(t *testing.T) {
	// Every bucket's low bound must map back to that bucket, and bounds
	// must be strictly increasing — the histogram's integrity invariants.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		low := bucketLow(i)
		if low <= prev {
			t.Fatalf("bucket %d low %d not above previous %d", i, low, prev)
		}
		if got := bucketIdx(low); got != i {
			t.Fatalf("bucketIdx(bucketLow(%d)) = %d", i, got)
		}
		prev = low
	}
}

func TestHistQuantileError(t *testing.T) {
	// Uniform values 1..100ms: quantiles must land within the 6.25%
	// log-linear bucket width of the exact answer.
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	for _, tc := range []struct {
		q     float64
		exact time.Duration
	}{
		{0.50, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1.00, 100 * time.Millisecond},
	} {
		got := h.Quantile(tc.q)
		lo := tc.exact - tc.exact/16
		hi := tc.exact + tc.exact/8
		if got < lo || got > hi {
			t.Errorf("p%.0f = %v, want within [%v, %v]", tc.q*100, got, lo, hi)
		}
	}
	if h.Max() != 100*time.Millisecond {
		t.Errorf("Max = %v, want exactly 100ms", h.Max())
	}
	if h.Count() != 100 {
		t.Errorf("Count = %d, want 100", h.Count())
	}
}

func TestHistMergeMatchesCombinedStream(t *testing.T) {
	// The property cluster rollups rely on: merge(a, b) must report the
	// same quantiles as a single histogram fed both streams — exactly the
	// same, not just within the error bound, because both sides bucket
	// identically. Streams are deliberately skewed differently (one
	// microsecond-ish node, one millisecond-ish node) so the merged
	// distribution looks like neither input.
	rng := rand.New(rand.NewSource(7))
	a, b, combined := &Histogram{}, &Histogram{}, &Histogram{}
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Int63n(int64(900*time.Microsecond))) + 50*time.Microsecond
		a.Record(d)
		combined.Record(d)
	}
	for i := 0; i < 2000; i++ {
		d := time.Duration(rng.Int63n(int64(40*time.Millisecond))) + time.Millisecond
		b.Record(d)
		combined.Record(d)
	}

	merged := &Histogram{}
	merged.MergeSnapshot(a.Export())
	merged.MergeSnapshot(b.Export())

	if merged.Count() != combined.Count() {
		t.Fatalf("merged count %d != combined %d", merged.Count(), combined.Count())
	}
	if merged.Sum() != combined.Sum() {
		t.Fatalf("merged sum %d != combined %d", merged.Sum(), combined.Sum())
	}
	if merged.Max() != combined.Max() {
		t.Fatalf("merged max %v != combined %v", merged.Max(), combined.Max())
	}
	for _, q := range []float64{0, 0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 0.999, 1} {
		if got, want := merged.Quantile(q), combined.Quantile(q); got != want {
			t.Errorf("q=%v: merged %v != combined %v", q, got, want)
		}
	}
}

func TestHistMergeQuantileWithinErrorBound(t *testing.T) {
	// Belt and braces on the same property against ground truth: merged
	// quantiles must sit within the documented 6.25% relative error of the
	// exact order statistics of the union stream.
	rng := rand.New(rand.NewSource(11))
	var exact []time.Duration
	parts := make([]*Histogram, 3)
	merged := &Histogram{}
	for p := range parts {
		parts[p] = &Histogram{}
		scale := time.Duration(1<<uint(p*3)) * time.Millisecond
		for i := 0; i < 1500; i++ {
			d := time.Duration(rng.Int63n(int64(scale))) + scale/4
			parts[p].Record(d)
			exact = append(exact, d)
		}
		merged.MergeSnapshot(parts[p].Export())
	}
	sortDurations(exact)
	for _, q := range []float64{0.50, 0.95, 0.99} {
		rank := int(q*float64(len(exact)) + 0.5)
		if rank < 1 {
			rank = 1
		}
		truth := exact[rank-1]
		got := merged.Quantile(q)
		lo := truth - truth/16
		hi := truth + truth/8
		if got < lo || got > hi {
			t.Errorf("q=%v: merged %v outside [%v, %v] around exact %v", q, got, lo, hi, truth)
		}
	}
}

func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

func TestHistCountBelowBoundary(t *testing.T) {
	h := &Histogram{}
	// Values straddling the 2^20ns (~1.05ms) exposition bound.
	below := []int64{100, 1 << 10, 1<<20 - 1}
	atOrAbove := []int64{1 << 20, 1<<20 + 1, 1 << 25}
	for _, v := range below {
		h.Record(time.Duration(v))
	}
	for _, v := range atOrAbove {
		h.Record(time.Duration(v))
	}
	if got := h.CountBelowBoundary(1 << 20); got != uint64(len(below)) {
		t.Fatalf("CountBelowBoundary(2^20) = %d, want %d", got, len(below))
	}
	if got := h.CountBelowBoundary(1 << 10); got != 1 {
		t.Fatalf("CountBelowBoundary(2^10) = %d, want 1 (only 100ns below)", got)
	}
	if got := h.CountBelowBoundary(1 << 34); got != h.Count() {
		t.Fatalf("CountBelowBoundary(2^34) = %d, want all %d", got, h.Count())
	}
}

func TestHistMergeNil(t *testing.T) {
	h := &Histogram{}
	h.Record(time.Millisecond)
	h.MergeSnapshot((&Histogram{}).Export())
	if h.Count() != 1 || h.Max() != time.Millisecond {
		t.Fatalf("merging an empty histogram changed count %d or max %v", h.Count(), h.Max())
	}
}
