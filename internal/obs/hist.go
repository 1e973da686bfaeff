package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a lock-free HDR-style log-linear latency histogram: each
// power-of-two octave of nanoseconds is split into 16 linear sub-buckets,
// bounding the relative quantile error at 1/16 (6.25%) across the full
// nanosecond-to-hours range in ~8KB of counters. Record is a single atomic
// add, cheap enough to sit on the serving path without perturbing the
// measurement.
//
// Because every Histogram uses the same fixed bucket layout, histograms
// merge losslessly by bucket-wise addition (MergeSnapshot of an Export):
// the cluster coordinator can sum per-node histograms and report
// cluster-wide quantiles with the same error bound as any single node's.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
}

const (
	subBits  = 4
	subCount = 1 << subBits // linear sub-buckets per octave
	// 16 exact buckets below 2^4, then 16 per octave up to 2^63.
	histBuckets = subCount + (63-subBits)*subCount
)

// bucketIdx maps a nanosecond value to its bucket.
func bucketIdx(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subCount {
		return int(v)
	}
	k := bits.Len64(uint64(v)) - 1 // octave: 2^k <= v < 2^(k+1), k >= subBits
	sub := int(v>>(uint(k)-subBits)) - subCount
	idx := subCount + (k-subBits)*subCount + sub
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketLow returns the smallest value mapping to bucket idx; together with
// the next bucket's low bound it brackets every recorded value.
func bucketLow(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	rem := idx - subCount
	k := rem/subCount + subBits
	sub := rem % subCount
	return int64(subCount+sub) << (uint(k) - subBits)
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	v := d.Nanoseconds()
	h.counts[bucketIdx(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations in nanoseconds.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observation, exactly.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Mean returns the arithmetic mean of all observations.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// CountBelowBoundary returns how many observations landed in buckets that
// lie entirely below the nanosecond bound v. When v is a bucket boundary
// (as the exposition bounds of MetricsWriter.Histogram are), this is the
// exact count of observations < v, which Prometheus's inclusive le buckets
// absorb with at most one-observation-width error at the boundary itself.
func (h *Histogram) CountBelowBoundary(v int64) uint64 {
	idx := bucketIdx(v)
	var total uint64
	for i := 0; i < idx; i++ {
		total += h.counts[i].Load()
	}
	return total
}

// HistogramSnapshot is a histogram's serializable form: the non-empty
// buckets as a sparse index→count map plus the scalar tallies. Because the
// bucket layout is fixed and shared, a snapshot merges losslessly into any
// live Histogram (MergeSnapshot) — it is how node-mode peers ship their
// latency distributions to the coordinator's cluster-wide rollup.
type HistogramSnapshot struct {
	Buckets map[int]uint64 `json:"buckets,omitempty"`
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	MaxNS   int64          `json:"max_ns"`
}

// Export copies the histogram into its serializable form. A snapshot of a
// histogram that is concurrently recording is consistent enough for
// monitoring (each bucket is read atomically; the set is not one cut), the
// same contract as Quantile.
func (h *Histogram) Export() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		MaxNS: h.max.Load(),
	}
	for i := 0; i < histBuckets; i++ {
		if c := h.counts[i].Load(); c > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]uint64)
			}
			s.Buckets[i] = c
		}
	}
	return s
}

// MergeSnapshot adds a snapshot's observations into h, bucket by bucket.
// The merge is lossless: quantiles of the merged histogram equal quantiles
// of one histogram fed both streams. Out-of-range bucket indexes (a peer from a future layout) clamp into the
// top bucket rather than being dropped, so counts still reconcile.
func (h *Histogram) MergeSnapshot(s HistogramSnapshot) {
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if i < 0 {
			i = 0
		}
		if i >= histBuckets {
			i = histBuckets - 1
		}
		h.counts[i].Add(c)
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	v := s.MaxNS
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Quantile returns the latency at quantile q in [0,1]: the upper bound of
// the bucket holding the q-th observation (conservative — a reported p99
// is never below the true p99 by more than the 6.25% bucket width). The
// top quantile is clamped to the exact recorded max.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based.
	rank := uint64(q*float64(n) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= rank {
			hi := h.max.Load()
			if i+1 < histBuckets {
				if b := bucketLow(i+1) - 1; b < hi {
					hi = b
				}
			}
			return time.Duration(hi)
		}
	}
	return time.Duration(h.max.Load())
}
