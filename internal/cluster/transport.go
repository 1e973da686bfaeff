package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/service"
)

// ReqKind names one RPC on the node protocol.
type ReqKind int

const (
	// ReqOptimize plans Query on the target node's service.
	ReqOptimize ReqKind = iota
	// ReqPing is the health check.
	ReqPing
	// ReqExport returns the node's cache entries: the one under Key when
	// Key is set, otherwise all of them.
	ReqExport
	// ReqImport installs Entries into the node's cache.
	ReqImport
	// ReqFlush drops the node's cache.
	ReqFlush
	// ReqStats returns the node's service counters, cache size and latency
	// histograms — how the coordinator folds remote (node-mode) peers into
	// its cluster-wide snapshot and /metrics rollup.
	ReqStats
	// ReqBumpEpoch advances the node's catalog stats epoch; cached entries
	// stamped with older epochs are not flushed.
	ReqBumpEpoch
	// ReqCacheInfo returns the node's plan-cache summary with its TopN
	// hottest entries.
	ReqCacheInfo
	// ReqInvalidate drops the entry under Key.
	ReqInvalidate
)

func (k ReqKind) String() string {
	switch k {
	case ReqOptimize:
		return "optimize"
	case ReqPing:
		return "ping"
	case ReqExport:
		return "export"
	case ReqImport:
		return "import"
	case ReqFlush:
		return "flush"
	case ReqStats:
		return "stats"
	case ReqBumpEpoch:
		return "bump-epoch"
	case ReqCacheInfo:
		return "cache-info"
	case ReqInvalidate:
		return "invalidate"
	}
	return fmt.Sprintf("reqkind(%d)", int(k))
}

// Request is one message from the coordinator to a node.
//
// Every field here must also appear in the HTTP transport's wireRequest
// (httptransport.go) — the wire-parity test in transport_test.go fails the
// build when a field is added on one side only, which is how epochs are
// kept from silently vanishing on the socket path.
type Request struct {
	Kind  ReqKind
	Query *cost.Query
	// Fingerprint is Query's canonical fingerprint on ReqOptimize, computed
	// once at the front door; the node plans under it as given (nil: the
	// node fingerprints Query itself).
	Fingerprint *service.Fingerprint
	Key         string
	Entries     []service.Entry
	// TopN bounds the entry listing of ReqCacheInfo.
	TopN int
}

// Response is a node's answer. Like Request, its fields are mirrored by
// wireResponse and pinned by the wire-parity test.
type Response struct {
	Result  *service.Result
	Entries []service.Entry
	// Stats answers ReqStats.
	Stats *NodeStats
	// Info answers ReqCacheInfo.
	Info *service.CacheInfo
	// OldEpoch and NewEpoch answer ReqBumpEpoch.
	OldEpoch uint64
	NewEpoch uint64
	// Found answers ReqInvalidate: whether the entry existed.
	Found bool
}

// ErrUnreachable is the transport-level failure: the node is partitioned,
// crashed, its reply was lost, or the per-attempt timeout expired before
// an answer arrived. It is the retryable error class — the coordinator's
// retry/backoff and circuit-breaker machinery keys off it.
var ErrUnreachable = errors.New("cluster: node unreachable")

// Transport delivers RPCs from the coordinator to nodes. The context
// carries the caller's cancellation through to the target node's service.
// Implementations must be safe for concurrent use.
type Transport interface {
	Call(ctx context.Context, to string, req Request) (*Response, error)
}

// handler is the node side of the transport.
type handler interface {
	handle(ctx context.Context, req Request) (*Response, error)
}

// nodeAttacher is implemented by transports that can host in-process nodes:
// attach makes h reachable under id and returns the detach function. The
// LocalTransport dispatches by function call; the HTTPTransport starts a
// real loopback listener per node, so the same cluster wiring exercises
// actual sockets.
type nodeAttacher interface {
	attach(id string, h handler) (detach func(), err error)
}

// FaultController is the whole-node fault surface every cluster transport
// supports: Cut makes a node unreachable (crash/partition), Heal reconnects
// it. The FaultTransport middleware layers finer-grained faults (asymmetric
// partitions, probabilistic drops, latency, slowdowns) over any Transport.
type FaultController interface {
	Cut(id string)
	Heal(id string)
}

// sleepCtx waits for d or until ctx is cancelled, whichever comes first,
// and reports whether the full duration elapsed. Injected latency and
// retry backoff both use it so a cancelled caller is never parked on a
// timer it no longer cares about.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// LocalTransport is a deterministic in-process Transport, simulator style:
// calls are direct function calls into the target node, with injectable
// per-destination latency and injectable failures. Cutting a node models a
// crash or partition — calls to it fail with ErrUnreachable, and a reply
// from a call already in flight when the cut lands is dropped too, exactly
// as a real crash loses responses that were on the wire.
type LocalTransport struct {
	mu    sync.RWMutex
	nodes map[string]handler
	cut   map[string]bool

	// latency, when non-nil, returns the simulated delay for one call; the
	// transport sleeps for it before dispatching. Deterministic functions
	// give deterministic schedules.
	latency func(to string, kind ReqKind) time.Duration

	calls atomicCounter
	fails atomicCounter
}

// NewLocalTransport returns an empty transport; nodes register as they
// are created.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{nodes: make(map[string]handler), cut: make(map[string]bool)}
}

// SetLatency installs the injectable latency model (nil: no delay).
func (t *LocalTransport) SetLatency(f func(to string, kind ReqKind) time.Duration) {
	t.mu.Lock()
	t.latency = f
	t.mu.Unlock()
}

// register attaches a node under its ID.
func (t *LocalTransport) register(id string, h handler) {
	t.mu.Lock()
	t.nodes[id] = h
	t.mu.Unlock()
}

// attach implements nodeAttacher: in-process nodes dispatch by direct call.
func (t *LocalTransport) attach(id string, h handler) (func(), error) {
	t.register(id, h)
	return func() { t.deregister(id) }, nil
}

// deregister detaches a node (graceful leave; subsequent calls fail).
func (t *LocalTransport) deregister(id string) {
	t.mu.Lock()
	delete(t.nodes, id)
	t.mu.Unlock()
}

// Cut makes a node unreachable, simulating a crash or partition.
func (t *LocalTransport) Cut(id string) {
	t.mu.Lock()
	t.cut[id] = true
	t.mu.Unlock()
}

// Heal reconnects a previously Cut node.
func (t *LocalTransport) Heal(id string) {
	t.mu.Lock()
	delete(t.cut, id)
	t.mu.Unlock()
}

// Calls returns how many RPCs were attempted; Fails how many failed at the
// transport layer.
func (t *LocalTransport) Calls() uint64 { return t.calls.load() }
func (t *LocalTransport) Fails() uint64 { return t.fails.load() }

// Call dispatches one RPC.
func (t *LocalTransport) Call(ctx context.Context, to string, req Request) (*Response, error) {
	t.calls.add(1)
	t.mu.RLock()
	h, ok := t.nodes[to]
	down := t.cut[to]
	lat := t.latency
	t.mu.RUnlock()

	if lat != nil {
		// The injected delay honours the caller's cancellation: a caller
		// that gave up must not stay parked for the full simulated RTT.
		if !sleepCtx(ctx, lat(to, req.Kind)) {
			return nil, ctx.Err() // caller gave up, not a node fault
		}
	}
	if !ok || down {
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s)", ErrUnreachable, to, req.Kind)
	}
	resp, err := h.handle(ctx, req)
	// A cut that landed while the call was running drops the reply.
	t.mu.RLock()
	down = t.cut[to]
	t.mu.RUnlock()
	if down {
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s reply lost)", ErrUnreachable, to, req.Kind)
	}
	return resp, err
}
