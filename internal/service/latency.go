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
	Hit       [numBackends]obs.Histogram
	Miss      [numBackends]obs.Histogram
	Shed      obs.Histogram
	QueueWait obs.Histogram
}

// Export renders the set's non-empty histograms in serializable form,
// keyed like Quantiles ("hit:<backend>", "miss:<backend>", "shed",
// "queue_wait") — how a node-mode peer ships its distributions to the
// coordinator.
func (l *LatencySet) Export() map[string]obs.HistogramSnapshot {
	out := make(map[string]obs.HistogramSnapshot)
	for i, id := range backend.IDs() {
		if i >= numBackends {
			break
		}
		if l.Hit[i].Count() > 0 {
			out["hit:"+string(id)] = l.Hit[i].Export()
		}
		if l.Miss[i].Count() > 0 {
			out["miss:"+string(id)] = l.Miss[i].Export()
		}
	}
	if l.Shed.Count() > 0 {
		out["shed"] = l.Shed.Export()
	}
	if l.QueueWait.Count() > 0 {
		out["queue_wait"] = l.QueueWait.Export()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// MergeExport folds an exported set back into l, bucket-wise and lossless.
// Unknown keys (a peer with a newer backend registry) are dropped.
func (l *LatencySet) MergeExport(m map[string]obs.HistogramSnapshot) {
	for key, snap := range m {
		if h := l.histFor(key); h != nil {
			h.MergeSnapshot(snap)
		}
	}
}

// histFor resolves an export key to its histogram, nil when unknown.
func (l *LatencySet) histFor(key string) *obs.Histogram {
	switch key {
	case "shed":
		return &l.Shed
	case "queue_wait":
		return &l.QueueWait
	}
	for i, id := range backend.IDs() {
		if i >= numBackends {
			break
		}
		switch key {
		case "hit:" + string(id):
			return &l.Hit[i]
		case "miss:" + string(id):
			return &l.Miss[i]
		}
	}
	return nil
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
func (l *LatencySet) Quantiles() map[string]Quantiles {
	out := make(map[string]Quantiles)
	for i, id := range backend.IDs() {
		if i >= numBackends {
			break
		}
		if l.Hit[i].Count() > 0 {
			out["hit:"+string(id)] = quantilesOf(&l.Hit[i])
		}
		if l.Miss[i].Count() > 0 {
			out["miss:"+string(id)] = quantilesOf(&l.Miss[i])
		}
	}
	if l.Shed.Count() > 0 {
		out["shed"] = quantilesOf(&l.Shed)
	}
	if l.QueueWait.Count() > 0 {
		out["queue_wait"] = quantilesOf(&l.QueueWait)
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// WriteMetrics emits the set's histograms in exposition format, as part of
// WriteNodeMetrics.
func (l *LatencySet) WriteMetrics(mw *obs.MetricsWriter) {
	const reqHelp = "End-to-end request latency by outcome and backend."
	for i, id := range backend.IDs() {
		if i >= numBackends {
			break
		}
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
