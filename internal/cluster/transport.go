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

// Request is one message from the coordinator to a node. Its JSON tags
// are the HTTP transport's socket keys: wireRequest (httptransport.go)
// embeds it and adds only the query in its internal/wire form, so a field
// added here travels on every transport at once.
type Request struct {
	Kind ReqKind `json:"kind"`
	// Query rides the socket as wireRequest.Query.
	Query *cost.Query `json:"-"`
	// Fingerprint is Query's canonical fingerprint on ReqOptimize, computed
	// once at the front door; the node plans under it as given (nil: the
	// node fingerprints Query itself).
	Fingerprint *service.Fingerprint `json:"fingerprint,omitempty"`
	Key         string               `json:"key,omitempty"`
	Entries     []service.Entry      `json:"entries,omitempty"`
	// TopN bounds the entry listing of ReqCacheInfo.
	TopN int `json:"top_n,omitempty"`
}

// Response is a node's answer. Like Request it is its own JSON form:
// wireResponse embeds it and adds only the node-side error.
type Response struct {
	Result  *service.Result `json:"result,omitempty"`
	Entries []service.Entry `json:"entries,omitempty"`
	// Stats answers ReqStats.
	Stats *NodeStats `json:"stats,omitempty"`
	// Info answers ReqCacheInfo.
	Info *service.CacheInfo `json:"info,omitempty"`
	// OldEpoch and NewEpoch answer ReqBumpEpoch.
	OldEpoch uint64 `json:"old_epoch,omitempty"`
	NewEpoch uint64 `json:"new_epoch,omitempty"`
	// Found answers ReqInvalidate: whether the entry existed.
	Found bool `json:"found,omitempty"`
}

// ErrUnreachable is the transport-level failure: the node is partitioned,
// crashed, its reply was lost, or the per-attempt timeout expired before
// an answer arrived. It is the retryable error class — the coordinator's
// retry/backoff and the failure detector key off it.
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

// LocalTransport is the in-process Transport: calls are direct function
// calls into the target node. It simulates no faults; wrap it in a
// FaultTransport for crashes, partitions and injected latency. A call to a
// node that is not attached fails with ErrUnreachable.
type LocalTransport struct {
	mu    sync.RWMutex
	nodes map[string]handler
}

// NewLocalTransport returns an empty transport; nodes register as they
// are created.
func NewLocalTransport() *LocalTransport {
	return &LocalTransport{nodes: make(map[string]handler)}
}

// attach implements nodeAttacher: in-process nodes dispatch by direct call.
// The returned detach is a graceful leave; later calls to id fail.
func (t *LocalTransport) attach(id string, h handler) (func(), error) {
	t.mu.Lock()
	t.nodes[id] = h
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.nodes, id)
		t.mu.Unlock()
	}, nil
}

// Call dispatches one RPC.
func (t *LocalTransport) Call(ctx context.Context, to string, req Request) (*Response, error) {
	t.mu.RLock()
	h, ok := t.nodes[to]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s (%s)", ErrUnreachable, to, req.Kind)
	}
	return h.handle(ctx, req)
}
