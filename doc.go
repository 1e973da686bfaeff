// Package repro is a from-scratch Go reproduction of "Efficient Massively
// Parallel Join Optimization for Large Queries" (SIGMOD 2022): the MPDP
// join-order algorithm, every baseline it is evaluated against, the IDP2 and
// UnionDP heuristics built on top of it, a SIMT GPU execution model standing
// in for the paper's CUDA implementation, and a benchmark harness that
// regenerates every table and figure of the evaluation section. On top of
// the library sits an optimizer-as-a-service front-end (internal/service,
// cmd/mpdp-serve): a sharded fingerprint-keyed plan cache plus adaptive
// routing across heterogeneous execution backends (internal/backend) —
// sequential CPU, parallel CPU, a multi-device simulated GPU that serves
// large trees and cyclic graphs exactly, and the heuristics beyond the
// exact bands — turning the reproduction into something that serves
// query streams rather than only measuring them. The service scales out in
// turn through internal/cluster and cmd/mpdp-cluster: a consistent-hash
// ring of service nodes with replication, failure detection and cache-aware
// rebalancing, so isomorphic queries from any entry point share one warm
// plan cache and a node loss costs no requests.
//
// The public, embeddable entry point is pkg/optimizer: typed Query/Catalog
// builders, the algorithm registry, and one context-first interface —
// Optimize(ctx, q, opts...) — with three drivers (InProcess over the
// library, Served over the service, Remote over the versioned /v1 HTTP
// API that both binaries serve from the shared internal/httpapi mux).
// Cancelling the context aborts in-flight enumerations on every driver.
//
// Start with pkg/optimizer and API.md for the public surface, internal/service
// and SERVICE.md for the serving layer, internal/cluster and CLUSTER.md for
// the distributed layer, bench/README.md for the repository benchmark, and
// DESIGN.md for the system inventory and the map from the paper's evaluation
// to the tests and workloads that reproduce it.
package repro
