package service

import (
	"time"

	"repro/internal/backend"
	"repro/internal/obs"
)

// LatencySet is the service's live latency distributions: end-to-end
// request time split by outcome — cache hits and misses per backend, shed
// rejections — plus the queue-wait distribution of cold requests. Every
// histogram shares obs.Histogram's fixed bucket layout, so an exported set
// merges losslessly into another (Export, MergeExport); the cluster
// coordinator folds every node's set this way and reports cluster-wide
// quantiles with a single node's error bound.
type LatencySet struct {
	Hit       [len(backend.IDs)]obs.Histogram
	Miss      [len(backend.IDs)]obs.Histogram
	Shed      obs.Histogram
	QueueWait obs.Histogram
}

// each calls fn on every histogram of the set with its export key, in one
// fixed order: "hit:<backend>" and "miss:<backend>" per backend, then
// "shed" and "queue_wait".
func (l *LatencySet) each(fn func(key string, h *obs.Histogram)) {
	for i, id := range backend.IDs {
		fn("hit:"+string(id), &l.Hit[i])
		fn("miss:"+string(id), &l.Miss[i])
	}
	fn("shed", &l.Shed)
	fn("queue_wait", &l.QueueWait)
}

// nonEmpty maps the key of each of l's non-empty histograms to f of it (nil
// when every histogram is empty).
func nonEmpty[V any](l *LatencySet, f func(*obs.Histogram) V) map[string]V {
	out := make(map[string]V)
	l.each(func(key string, h *obs.Histogram) {
		if h.Count() > 0 {
			out[key] = f(h)
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// Export renders the set's non-empty histograms in serializable form,
// keyed like Quantiles — how a node-mode peer ships its distributions to
// the coordinator.
func (l *LatencySet) Export() map[string]obs.HistogramSnapshot {
	return nonEmpty(l, (*obs.Histogram).Export)
}

// MergeExport folds an exported set back into l, bucket-wise and lossless.
// Unknown keys (a peer with a newer backend registry) are dropped.
func (l *LatencySet) MergeExport(m map[string]obs.HistogramSnapshot) {
	l.each(func(key string, h *obs.Histogram) {
		if snap, ok := m[key]; ok {
			h.MergeSnapshot(snap)
		}
	})
}

// Quantiles is the JSON rendering of one latency distribution.
type Quantiles struct {
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

func quantilesOf(h *obs.Histogram) Quantiles {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return Quantiles{
		Count:  h.Count(),
		MeanMS: ms(h.Mean()),
		P50MS:  ms(h.Quantile(0.50)),
		P95MS:  ms(h.Quantile(0.95)),
		P99MS:  ms(h.Quantile(0.99)),
		MaxMS:  ms(h.Max()),
	}
}

// Quantiles renders the non-empty distributions, keyed "hit:<backend>",
// "miss:<backend>", "shed" and "queue_wait" — the `latency` object of
// /v1/stats.
func (l *LatencySet) Quantiles() map[string]Quantiles { return nonEmpty(l, quantilesOf) }

// WriteMetrics emits the set's histograms in exposition format, as part of
// WriteNodeMetrics.
func (l *LatencySet) WriteMetrics(mw *obs.MetricsWriter) {
	const reqHelp = "End-to-end request latency by outcome and backend."
	for i, id := range backend.IDs {
		mw.Histogram("mpdp_request_seconds", reqHelp,
			obs.Labels{"outcome": "hit", "backend": string(id)}, &l.Hit[i])
		mw.Histogram("mpdp_request_seconds", reqHelp,
			obs.Labels{"outcome": "miss", "backend": string(id)}, &l.Miss[i])
	}
	mw.Histogram("mpdp_shed_seconds",
		"Latency of requests rejected by admission control.", nil, &l.Shed)
	mw.Histogram("mpdp_queue_wait_seconds",
		"Time cold requests spent in the admission queue.", nil, &l.QueueWait)
}
