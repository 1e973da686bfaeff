package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Direction selects which half of a coordinator↔node link a fault applies
// to. The coordinator originates every RPC, so an "A→B cut, B→A fine"
// asymmetric partition maps onto the two halves of one call: DirRequest
// loses the request before the node sees it; DirReply lets the node do the
// work and loses the answer on the way back — the nastier failure, because
// the cluster's state changed even though the coordinator saw an error.
type Direction int

const (
	// DirBoth faults both halves of the link.
	DirBoth Direction = iota
	// DirRequest faults the coordinator→node half: requests are lost, the
	// node never sees them.
	DirRequest
	// DirReply faults the node→coordinator half: the node processes the
	// request, the reply is lost.
	DirReply
)

func (d Direction) String() string {
	switch d {
	case DirRequest:
		return "request"
	case DirReply:
		return "reply"
	}
	return "both"
}

// linkFault is the live fault state of one coordinator→node link.
type linkFault struct {
	cut     bool
	dropReq float64 // P(request lost)
	dropRep float64 // P(reply lost)
	latency time.Duration
	jitter  time.Duration
	slow    time.Duration // slow-node degradation, applied before dispatch
}

// FaultTransport wraps any Transport with a seeded, deterministic fault
// model — the only one in the cluster: the base transports simulate no
// faults. Faults are per-link and directional: whole-node cuts (Cut/Heal,
// what Cluster.KillNode and ReviveNode call), asymmetric partitions
// (requests lost but replies fine, or the reverse), probabilistic drops,
// injected latency with jitter, and slow-node degradation. All decisions
// come from one seeded RNG, so a chaos schedule replays the same fault
// pattern for the same seed.
//
// FaultTransport passes node attachment through to the wrapped transport,
// so it can wrap either LocalTransport or HTTPTransport inside a Cluster.
type FaultTransport struct {
	base Transport

	mu    sync.Mutex
	rng   *rand.Rand
	links map[string]*linkFault

	injected atomic.Uint64 // faults actually applied (drops, cuts observed by a call)
}

// NewFaultTransport wraps base with a fault model seeded by seed.
func NewFaultTransport(base Transport, seed int64) *FaultTransport {
	return &FaultTransport{
		base:  base,
		rng:   rand.New(rand.NewSource(seed)),
		links: make(map[string]*linkFault),
	}
}

func (f *FaultTransport) link(id string) *linkFault {
	l := f.links[id]
	if l == nil {
		l = &linkFault{}
		f.links[id] = l
	}
	return l
}

// Cut makes a node fully unreachable in both directions.
func (f *FaultTransport) Cut(id string) {
	f.mu.Lock()
	f.link(id).cut = true
	f.mu.Unlock()
}

// Heal clears a full cut; finer-grained faults (Partition, SetLatency,
// Slow) stay until cleared themselves.
func (f *FaultTransport) Heal(id string) {
	f.mu.Lock()
	f.link(id).cut = false
	f.mu.Unlock()
}

// Partition drops a fraction p of traffic on the chosen half of the link
// to id: p=1 is a hard directional cut, 0<p<1 a lossy link. p=0 heals
// that direction.
func (f *FaultTransport) Partition(id string, dir Direction, p float64) {
	f.mu.Lock()
	l := f.link(id)
	switch dir {
	case DirRequest:
		l.dropReq = p
	case DirReply:
		l.dropRep = p
	default:
		l.dropReq, l.dropRep = p, p
	}
	f.mu.Unlock()
}

// SetLatency injects base±jitter of extra delay on every call to id
// (jitter is uniform in [0,jitter)). Zero clears it.
func (f *FaultTransport) SetLatency(id string, base, jitter time.Duration) {
	f.mu.Lock()
	l := f.link(id)
	l.latency, l.jitter = base, jitter
	f.mu.Unlock()
}

// Slow degrades a node: every call to it pays d of extra service time
// before dispatch — the sick-but-alive node that answers pings and drags
// down its shard. Zero clears it.
func (f *FaultTransport) Slow(id string, d time.Duration) {
	f.mu.Lock()
	f.link(id).slow = d
	f.mu.Unlock()
}

// Clear removes every fault on the link to id.
func (f *FaultTransport) Clear(id string) {
	f.mu.Lock()
	delete(f.links, id)
	f.mu.Unlock()
}

// ClearAll removes every fault on every link.
func (f *FaultTransport) ClearAll() {
	f.mu.Lock()
	f.links = make(map[string]*linkFault)
	f.mu.Unlock()
}

// Injected returns how many faults the transport actually applied to
// calls (cuts observed, requests dropped, replies dropped) — the number
// chaos reconciliation checks the coordinator's counters against.
func (f *FaultTransport) Injected() uint64 { return f.injected.Load() }

// Call applies the link's fault schedule around one dispatch on the base
// transport. Fault decisions (coin flips, jitter) are drawn under the lock
// from the seeded RNG; the sleeps honour the caller's context.
func (f *FaultTransport) Call(ctx context.Context, to string, req Request) (*Response, error) {
	f.mu.Lock()
	l := f.links[to]
	var (
		cut     bool
		delay   time.Duration
		dropReq bool
		dropRep bool
	)
	if l != nil {
		cut = l.cut
		delay = l.latency + l.slow
		if l.jitter > 0 {
			delay += time.Duration(f.rng.Int63n(int64(l.jitter)))
		}
		dropReq = l.dropReq > 0 && f.rng.Float64() < l.dropReq
		dropRep = l.dropRep > 0 && f.rng.Float64() < l.dropRep
	}
	f.mu.Unlock()

	if !sleepCtx(ctx, delay) {
		return nil, ctx.Err()
	}
	if cut || dropReq {
		f.injected.Add(1)
		return nil, fmt.Errorf("%w: %s (%s %s)", ErrUnreachable, to, req.Kind,
			map[bool]string{true: "cut", false: "request dropped"}[cut])
	}
	resp, err := f.base.Call(ctx, to, req)
	// Re-read the cut state: a cut that lands while the call is in flight
	// loses the reply, as does a reply-direction drop — in both cases the
	// node may have done the work.
	f.mu.Lock()
	if l := f.links[to]; l != nil && l.cut {
		dropRep = true
	}
	f.mu.Unlock()
	if err == nil && dropRep {
		f.injected.Add(1)
		return nil, fmt.Errorf("%w: %s (%s reply lost)", ErrUnreachable, to, req.Kind)
	}
	return resp, err
}

// attach passes node hosting through to the wrapped transport.
func (f *FaultTransport) attach(id string, h handler) (func(), error) {
	a, ok := f.base.(nodeAttacher)
	if !ok {
		return nil, fmt.Errorf("cluster: transport %T cannot host nodes", f.base)
	}
	return a.attach(id, h)
}

// Close closes the wrapped transport when it is closable.
func (f *FaultTransport) Close() error {
	if c, ok := f.base.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
