// Package obs is the serving stack's zero-dependency observability layer:
// the measurement primitives every request-path package shares, with no
// imports outside the standard library so any layer (dp, gpusim, backend,
// service, cluster, httpapi, loadgen) can use it without cycles.
//
// Four pieces:
//
//   - Trace: a lightweight per-request span recorder carried on the
//     context. Layers record the phases they own (queue-wait, cache probe,
//     enumeration, GPU launch/transfer/cycles, plan materialization, ...)
//     into the same trace, so one request's time decomposes end to end.
//     Every method is nil-receiver safe: uninstrumented callers pay nothing.
//   - Histogram: a lock-free log-linear latency histogram (16 sub-buckets
//     per power-of-two octave, ≤6.25% relative quantile error). Histograms
//     with the same layout merge by bucket-wise addition, which is what
//     makes cluster-wide percentile rollups exact rather than approximate:
//     merge(a, b) reports the same quantiles as one histogram fed both
//     streams.
//   - MetricsWriter: a hand-rolled Prometheus text-exposition writer
//     (counters, gauges, histograms) so /metrics needs no client library.
//   - SlowLog: a bounded in-memory ring of the slowest requests with their
//     span breakdowns, plus an optional JSON-lines slow-query log above a
//     latency threshold. The HTTP front door owns the one instance.
//
// See OBSERVABILITY.md for the span taxonomy and metric names.
package obs
