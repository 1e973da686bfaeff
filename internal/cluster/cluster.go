// Package cluster scales the optimizer-as-a-service layer out to N nodes:
// a consistent-hash ring keyed by the canonical join-graph fingerprint
// routes every query to one owner node plus R-1 replicas, so isomorphic
// queries entering through any front door land on the same warm plan
// cache; a coordinator handles node join/leave, ping-based failure
// detection, failover to replicas, cache-aware rebalancing on ring
// changes, and read-repair of plan-cache entries between replicas.
//
// Two transports carry the coordinator→node RPCs: LocalTransport calls
// in-process nodes directly; HTTPTransport ships the same RPCs as JSON over
// real TCP sockets, hosting in-process nodes on loopback listeners or
// dialing remote node-mode peers (JoinPeer). Neither simulates faults: the
// FaultTransport middleware is the one fault model, layering seeded
// crashes (KillNode), asymmetric partitions, drops, latency and slowdowns
// over either, so every distributed behaviour is deterministic and
// testable. Request-path calls go through a guarded path: retry with
// full-jitter backoff on transport faults, each attempt under the caller's
// own context, so a node may take its service's whole time budget; an
// owner that still fails counts toward the failure detector, and the
// request fails over to the next replica. See CLUSTER.md for the design.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/service"
)

// Config tunes a Cluster. The zero value selects the defaults listed on
// each field.
type Config struct {
	// Nodes is the initial node count (0: 4; negative: start empty — the
	// peers mode, where members arrive via JoinPeer or AddNode).
	Nodes int
	// Replicas is the number of nodes that hold each key, owner included
	// (0: 2). Clamped to the live node count when the cluster is smaller.
	Replicas int
	// FailureThreshold is the number of consecutive failed RPCs (requests
	// or pings) after which a node is declared dead and removed from the
	// ring (0: 2).
	FailureThreshold int
	// HealthInterval runs a background health sweep this often. Zero
	// disables the background checker; CheckHealth can always be called
	// manually (tests drive it deterministically).
	HealthInterval time.Duration
	// Transport carries the coordinator→node RPCs (nil: a fresh
	// LocalTransport). Pass an HTTPTransport to host nodes on real loopback
	// sockets. Wrap either in a FaultTransport to inject faults: KillNode
	// and ReviveNode need one. Close closes the transport along with the
	// cluster.
	Transport Transport
	// Retry tunes the guarded request path: retry count and backoff. Zero
	// fields take RetryPolicy's defaults.
	Retry RetryPolicy
	// Seed seeds the coordinator's jitter RNG (0: 1); fault schedules get
	// their own seed in NewFaultTransport.
	Seed int64
	// FlapThreshold deaths within FlapWindow mark a node as flapping: its
	// next ring re-entry is deferred by an exponentially growing
	// quarantine, QuarantineBase doubling up to QuarantineMax, so a node
	// stuck in a crash loop stops churning the ring and the caches.
	// Defaults: 3 deaths in 10s, quarantine 500ms..30s.
	FlapThreshold  int
	FlapWindow     time.Duration
	QuarantineBase time.Duration
	QuarantineMax  time.Duration
	// Service configures each node's service.Service. Remember that every
	// node gets its own worker pool: N nodes with default Workers hold
	// N*GOMAXPROCS workers.
	Service service.Config
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if c.Nodes < 0 {
		c.Nodes = 0
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FlapThreshold <= 0 {
		c.FlapThreshold = 3
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 10 * time.Second
	}
	if c.QuarantineBase <= 0 {
		c.QuarantineBase = 500 * time.Millisecond
	}
	if c.QuarantineMax <= 0 {
		c.QuarantineMax = 30 * time.Second
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Result is one cluster answer: the serving node's service result plus
// routing information.
type Result struct {
	*service.Result
	// Node is the ID of the node that served the request.
	Node string
	// Failover is true when an earlier owner was unreachable and a replica
	// served the request.
	Failover bool
}

// ErrNoNodes is returned when no live node remains to serve a request.
var ErrNoNodes = errors.New("cluster: no alive nodes")

// ErrClosed is returned by cluster operations after Close.
var ErrClosed = errors.New("cluster: closed")

// nodeState is everything the coordinator holds on one member: the
// in-process node and its transport detach hook (both nil for a remote
// peer joined via JoinPeer), and its health view, including the flap
// history behind the quarantine logic.
type nodeState struct {
	n      *node
	detach func()

	fails int // consecutive failed RPCs
	dead  bool

	deaths    []time.Time // recent deaths, pruned to FlapWindow
	quarUntil time.Time   // no ring re-entry before this
	quarSet   time.Time   // when the current quarantine was imposed
	quarLevel int         // exponential-backoff level
}

// noteDeath records one death for flap detection; callers hold c.mu.
func (st *nodeState) noteDeath(now time.Time, window time.Duration) {
	st.deaths = append(st.deaths, now)
	st.pruneDeaths(now, window)
}

func (st *nodeState) pruneDeaths(now time.Time, window time.Duration) {
	i := 0
	for i < len(st.deaths) && now.Sub(st.deaths[i]) > window {
		i++
	}
	st.deaths = st.deaths[i:]
}

// Cluster is the coordinator plus its member nodes; create with New,
// release with Close. All methods are safe for concurrent use. The member
// table, nodes, is the one record of who belongs: an ID is a member exactly
// while it has an entry there, in-process node or remote peer.
type Cluster struct {
	cfg       Config
	transport Transport
	retry     RetryPolicy
	rng       *lockedRand
	counters  counters

	// callLatOK/callLatFail are the guarded transport path's per-attempt
	// latency distributions, by outcome.
	callLatOK   obs.Histogram
	callLatFail obs.Histogram

	mu     sync.Mutex
	ring   *ring
	nodes  map[string]*nodeState
	nextID int
	closed bool

	// rebalanceMu serializes cache migrations (rebalances and graceful
	// leaves) so concurrent topology changes do not interleave imports.
	rebalanceMu sync.Mutex

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds a cluster of cfg.Nodes nodes and, when cfg.HealthInterval is
// set, starts the background health checker.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:   cfg,
		retry: cfg.Retry,
		rng:   newLockedRand(cfg.Seed),
		ring:  newRing(),
		nodes: make(map[string]*nodeState),
		quit:  make(chan struct{}),
	}
	c.transport = cfg.Transport
	if c.transport == nil {
		c.transport = NewLocalTransport()
	}
	for i := 0; i < cfg.Nodes; i++ {
		// An attach failure (a transport that cannot listen) surfaces as a
		// smaller cluster and, at zero members, ErrNoNodes on first use;
		// LocalTransport attaches never fail.
		c.AddNode()
	}
	if cfg.HealthInterval > 0 {
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			t := time.NewTicker(cfg.HealthInterval)
			defer t.Stop()
			for {
				select {
				case <-c.quit:
					return
				case <-t.C:
					c.CheckHealth()
				}
			}
		}()
	}
	return c
}

// unwrapTransport finds a concrete transport type under any FaultTransport
// wrapping.
func unwrapTransport[T Transport](t Transport) (T, bool) {
	for {
		if v, ok := t.(T); ok {
			return v, true
		}
		ft, ok := t.(*FaultTransport)
		if !ok {
			var zero T
			return zero, false
		}
		t = ft.base
	}
}

// Close stops the health checker, detaches and closes every in-process
// node's service, and closes the transport when it is closable (an
// HTTPTransport's loopback listeners, for instance). Idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	states := make([]*nodeState, 0, len(c.nodes))
	for _, st := range c.nodes {
		states = append(states, st)
	}
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	for _, st := range states {
		if st.n != nil {
			st.detach()
			st.n.close()
		}
	}
	if tc, ok := c.transport.(interface{ Close() error }); ok {
		tc.Close()
	}
}

// Transport returns the cluster's transport; under a FaultTransport, that
// is where tests and demos inject faults.
func (c *Cluster) Transport() Transport { return c.transport }

// maintCtx bounds one background maintenance RPC (replication, rebalance,
// pings, drains): maintenance must not hang on a wedged socket, and it has
// no caller deadline of its own to inherit.
func (c *Cluster) maintCtx() (context.Context, context.CancelFunc) {
	const maintTimeout = 2 * time.Second
	//mpdpvet:ignore ctxfirst background maintenance has no caller context to inherit
	return context.WithTimeout(context.Background(), maintTimeout)
}

// Owners returns the nodes currently responsible for a canonical key,
// owner first.
func (c *Cluster) Owners(key string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.owners(key, c.cfg.Replicas)
}

// AliveNodes returns the IDs of the ring members, sorted.
func (c *Cluster) AliveNodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.nodes()
}

// Optimize routes q to the owner of its canonical fingerprint, failing
// over to replicas while the failure detector catches up with dead nodes.
// Fresh plans are replicated to the other owners, so a warm entry survives
// the loss of Replicas-1 nodes.
//
// Cancelling ctx propagates through the transport into the serving node's
// service, aborting the in-flight optimization; the cancellation is not
// treated as a node failure. A nil ctx means context.Background().
//
// Optimize fingerprints q on every call; callers that ask the same query
// again should service.Prepare it once and use OptimizePrepared.
func (c *Cluster) Optimize(ctx context.Context, q *cost.Query) (*Result, error) {
	return c.OptimizePrepared(ctx, service.Prepare(q))
}

// sweepOutcome is what one pass over a key's owners produced.
type sweepOutcome struct {
	res            *Result // non-nil: a node served the request
	err            error   // non-nil: terminal error to surface as-is
	sawUnreachable bool
	sawShed        bool
	lastErr        error
	down           []string // owners this sweep found unreachable
}

// sweep tries a key's owners in ring order through the guarded call path.
func (c *Cluster) sweep(ctx context.Context, p *service.Prepared, tr *obs.Trace, owners []string) sweepOutcome {
	var out sweepOutcome
	req := Request{Kind: ReqOptimize, Query: p.Query, Fingerprint: &p.Fingerprint}
	for i, id := range owners {
		resp, err := c.call(ctx, id, req)
		switch {
		case err == nil:
			c.noteSuccess(id)
			if i > 0 {
				if out.sawUnreachable {
					c.counters.failovers.Add(1)
				} else if out.sawShed {
					// Every earlier owner shed: this replica absorbed
					// overflow from a hot shard, not a failure.
					c.counters.overflows.Add(1)
				}
			}
			if !resp.Result.CacheHit || i > 0 {
				// Fresh plan, or a failover hit whose earlier owners may
				// lack the entry: push it to the other owners
				// (replication doubling as read-repair).
				repDone := tr.StartSpan(obs.PhaseReplicate)
				c.replicate(p.Key, id, owners, out.down)
				repDone()
			}
			out.res = &Result{Result: resp.Result, Node: id, Failover: i > 0 && out.sawUnreachable}
			return out
		case errors.Is(err, service.ErrOverloaded):
			// The owner is alive but shedding load. Replicas hold the
			// same warm entries, so overflowing to the next one spreads
			// a Zipf-hot shard's traffic instead of rejecting it — and
			// it must not feed the failure detector: an overloaded node
			// is the last one the ring should remove.
			out.sawShed = true
			out.lastErr = err
		case errors.Is(err, ErrUnreachable), errors.Is(err, service.ErrClosed):
			// Unreachable (after the guarded path's own retries), or a node
			// whose service closed under a racing RemoveNode/Close: either
			// way this node cannot answer and a replica can.
			out.lastErr = err
			out.sawUnreachable = true
			out.down = append(out.down, id)
			c.noteFailure(id)
		default:
			// The node answered and rejected the query; replicas are
			// deterministic copies and would answer the same. Caller
			// cancellation is accounted separately — a disconnecting
			// client is not a cluster error.
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				c.counters.canceled.Add(1)
			} else {
				c.counters.errors.Add(1)
			}
			out.err = err
			return out
		}
	}
	return out
}

// OptimizePrepared is Optimize for a query whose fingerprint the caller
// already holds: the carried key picks the owners and travels on to the
// serving node, so the request is not canonicalised again anywhere. A trace
// on ctx (the HTTP front door attaches one) records the replicate spans.
func (c *Cluster) OptimizePrepared(ctx context.Context, p *service.Prepared) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := obs.FromContext(ctx)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()
	c.counters.requests.Add(1)

	var lastErr error
	var lastOut sweepOutcome
	// Each sweep over an all-unreachable owner set adds one failure per
	// owner, so after FailureThreshold sweeps those nodes are dead, the
	// ring has changed, and the next sweep sees fresh owners: the loop is
	// bounded and ends at ErrNoNodes when nobody is left.
	for attempt := 0; attempt <= c.cfg.FailureThreshold; attempt++ {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		owners := c.Owners(p.Key)
		if len(owners) == 0 {
			break
		}
		out := c.sweep(ctx, p, tr, owners)
		if out.res != nil || out.err != nil {
			return out.res, out.err
		}
		lastOut = out
		if out.lastErr != nil {
			lastErr = out.lastErr
		}
		if !out.sawUnreachable {
			// The sweep failed without a single unreachable owner — every
			// owner shed. The ring will not change, so another sweep would
			// only hammer nodes that just asked for relief.
			break
		}
	}
	if lastOut.sawShed && !lastOut.sawUnreachable {
		// All owners shed: surface the retryable condition (the HTTP layer
		// maps it to 503 + Retry-After). Each node already counted its shed;
		// the coordinator does not double it as an error.
		return nil, fmt.Errorf("cluster: all owners overloaded: %w", service.ErrOverloaded)
	}
	c.counters.errors.Add(1)
	if lastErr == nil {
		return nil, ErrNoNodes
	}
	return nil, fmt.Errorf("%w (last: %v)", ErrNoNodes, lastErr)
}

// replicate copies the cache entry under key from the node that just
// served it to the remaining owners, skipping the ones the request just
// found unreachable (down): the request already counted their failure,
// and a push would only wait on them. Maintenance traffic uses the raw
// transport — a failed replication is repaired by the next read, so it
// earns no retries.
func (c *Cluster) replicate(key, from string, owners, down []string) {
	if len(owners) <= 1 {
		return
	}
	ctx, cancel := c.maintCtx()
	defer cancel()
	resp, err := c.transport.Call(ctx, from, Request{Kind: ReqExport, Key: key})
	if err != nil || len(resp.Entries) == 0 {
		return
	}
	req := Request{Kind: ReqImport, Entries: resp.Entries}
	for _, id := range owners {
		if id == from || slices.Contains(down, id) {
			continue
		}
		ictx, icancel := c.maintCtx()
		if _, err := c.transport.Call(ictx, id, req); err == nil {
			c.counters.replicated.Add(1)
		} else if errors.Is(err, ErrUnreachable) {
			c.noteFailure(id)
		}
		icancel()
	}
}

// attachNode makes a node reachable on the transport.
func (c *Cluster) attachNode(id string, h handler) (func(), error) {
	a, ok := c.transport.(nodeAttacher)
	if !ok {
		return nil, fmt.Errorf("cluster: transport %T cannot host nodes", c.transport)
	}
	return a.attach(id, h)
}

// AddNode creates an in-process node, joins it to the ring and rebalances
// warm entries onto it. It returns the new node's ID. The error is nil for
// LocalTransport clusters; socket transports can fail to listen.
func (c *Cluster) AddNode() (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	id := fmt.Sprintf("node-%d", c.nextID)
	c.nextID++
	c.mu.Unlock()

	n := newNode(id, c.cfg.Service)
	det, err := c.attachNode(id, n)
	if err != nil {
		n.close()
		return "", err
	}
	c.mu.Lock()
	c.nodes[id] = &nodeState{n: n, detach: det}
	c.ring.add(id)
	c.mu.Unlock()
	c.rebalance()
	return id, nil
}

// JoinPeer adds a remote node-mode peer (see NewNodeServer) to the ring
// under id, reachable at addr. The coordinator pings it once before
// admitting it. Requires a transport with a peer table (HTTPTransport,
// possibly under a FaultTransport).
func (c *Cluster) JoinPeer(id, addr string) error {
	ht, ok := unwrapTransport[*HTTPTransport](c.transport)
	if !ok {
		return fmt.Errorf("cluster: transport %T has no peer table", c.transport)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if _, dup := c.nodes[id]; dup {
		c.mu.Unlock()
		return fmt.Errorf("cluster: node %s already a member", id)
	}
	c.mu.Unlock()

	ht.SetPeer(id, addr)
	ctx, cancel := c.maintCtx()
	_, err := c.transport.Call(ctx, id, Request{Kind: ReqPing})
	cancel()
	if err != nil {
		ht.RemovePeer(id)
		return fmt.Errorf("cluster: peer %s at %s unreachable: %w", id, addr, err)
	}
	c.mu.Lock()
	c.nodes[id] = &nodeState{}
	c.ring.add(id)
	c.mu.Unlock()
	c.rebalance()
	return nil
}

// RemoveNode gracefully drains a member: it leaves the ring, its warm
// cache entries migrate to their new owners, and (for in-process nodes)
// its service is closed. Remote peers keep running — they just stop being
// members.
func (c *Cluster) RemoveNode(id string) error {
	c.mu.Lock()
	st, ok := c.nodes[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: unknown node %s", id)
	}
	wasDead := st.dead
	c.ring.remove(id)
	delete(c.nodes, id)
	c.mu.Unlock()

	if !wasDead {
		// Drain while still reachable on the transport.
		c.rebalanceMu.Lock()
		ctx, cancel := c.maintCtx()
		if resp, err := c.transport.Call(ctx, id, Request{Kind: ReqExport}); err == nil {
			c.pushEntries(resp.Entries, id)
		}
		cancel()
		c.rebalanceMu.Unlock()
	}
	if st.n != nil {
		st.detach()
	} else if ht, ok := unwrapTransport[*HTTPTransport](c.transport); ok {
		ht.RemovePeer(id)
	}
	// A node that rejoins under the same ID starts healthy: no link fault
	// carried over from its previous membership.
	if ft, ok := c.transport.(*FaultTransport); ok {
		ft.Clear(id)
	}
	if st.n != nil {
		st.n.close()
	}
	return nil
}

// faults returns the cluster's fault model: its transport, when that is a
// FaultTransport.
func (c *Cluster) faults() (*FaultTransport, error) {
	ft, ok := c.transport.(*FaultTransport)
	if !ok {
		return nil, fmt.Errorf("cluster: transport %T injects no faults (wrap it in a FaultTransport)", c.transport)
	}
	return ft, nil
}

// KillNode makes a node unreachable without any cleanup — a simulated
// crash, cut in the cluster's FaultTransport. The failure detector will
// declare it dead and rebalance. It fails when the transport is not a
// FaultTransport.
func (c *Cluster) KillNode(id string) error {
	ft, err := c.faults()
	if err != nil {
		return err
	}
	ft.Cut(id)
	return nil
}

// ReviveNode heals a killed node's link; the next health sweep rejoins it
// to the ring (quarantine permitting) and rebalances warm entries back
// onto it. It fails when the transport is not a FaultTransport.
func (c *Cluster) ReviveNode(id string) error {
	ft, err := c.faults()
	if err != nil {
		return err
	}
	ft.Heal(id)
	return nil
}

// noteSuccess resets a node's consecutive-failure count.
func (c *Cluster) noteSuccess(id string) {
	c.mu.Lock()
	if st := c.nodes[id]; st != nil && !st.dead {
		st.fails = 0
	}
	c.mu.Unlock()
}

// noteFailure feeds the failure detector: FailureThreshold consecutive
// failures declare the node dead, remove it from the ring and rebalance.
func (c *Cluster) noteFailure(id string) {
	c.mu.Lock()
	st := c.nodes[id]
	died := st != nil && c.strike(id, st)
	c.mu.Unlock()
	if died {
		c.rebalance()
	}
}

// strike counts one failed call against a node. At FailureThreshold
// consecutive failures it declares a live node dead and takes it off the
// ring, reporting true; the caller then rebalances. Callers hold c.mu.
func (c *Cluster) strike(id string, st *nodeState) bool {
	st.fails++
	if st.dead || st.fails < c.cfg.FailureThreshold {
		return false
	}
	st.dead = true
	st.noteDeath(time.Now(), c.cfg.FlapWindow)
	c.ring.remove(id)
	c.counters.deaths.Add(1)
	return true
}

// CheckHealth pings every member once, applying the failure detector to
// the results: repeatedly unreachable nodes are declared dead and leave
// the ring; previously dead nodes that answer rejoin it — unless they are
// flapping, in which case re-entry waits out an exponentially growing
// quarantine (Config.Flap*/Quarantine*), so a crash-looping node stops
// churning the ring. Any membership change triggers a rebalance, which
// re-warms a rejoining node's cache. Pings use the raw transport and reach
// dead members too: the health checker is how a dead node's recovery is
// noticed. The background checker (Config.HealthInterval) calls this on a
// ticker; tests call it directly.
func (c *Cluster) CheckHealth() {
	changed := false
	for _, m := range c.members() {
		id := m.id
		ctx, cancel := c.maintCtx()
		_, err := c.transport.Call(ctx, id, Request{Kind: ReqPing})
		cancel()
		c.mu.Lock()
		st := c.nodes[id]
		if st == nil { // removed concurrently
			c.mu.Unlock()
			continue
		}
		if err == nil {
			st.fails = 0
			if st.dead && c.tryRejoin(id, st) {
				changed = true
			}
		} else if c.strike(id, st) {
			changed = true
		}
		c.mu.Unlock()
	}
	if changed {
		c.rebalance()
	}
}

// tryRejoin decides whether a dead-but-answering node re-enters the ring
// now, applying the flap quarantine. Callers hold c.mu.
func (c *Cluster) tryRejoin(id string, st *nodeState) bool {
	now := time.Now()
	st.pruneDeaths(now, c.cfg.FlapWindow)
	if now.Before(st.quarUntil) {
		// Serving its quarantine; keep probing, keep it out of the ring.
		return false
	}
	diedAgain := len(st.deaths) > 0 && st.deaths[len(st.deaths)-1].After(st.quarSet)
	if len(st.deaths) >= c.cfg.FlapThreshold && diedAgain {
		// Flapping: this is a fresh flap episode (a death since the last
		// quarantine), so impose the next, longer quarantine instead of
		// letting the node churn the ring again.
		d := c.cfg.QuarantineBase << uint(st.quarLevel)
		if d <= 0 || d > c.cfg.QuarantineMax {
			d = c.cfg.QuarantineMax
		}
		st.quarUntil = now.Add(d)
		st.quarSet = now
		st.quarLevel++
		c.counters.quarantined.Add(1)
		return false
	}
	st.dead = false
	if len(st.deaths) == 0 {
		st.quarLevel = 0
	}
	c.ring.add(id)
	c.counters.rejoins.Add(1)
	return true
}

// member is one cluster member as the coordinator sees it.
type member struct {
	id   string
	n    *node // the in-process node; nil for a remote peer
	dead bool
}

// members lists every member, in-process and remote, sorted by ID.
func (c *Cluster) members() []member {
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := make([]member, 0, len(c.nodes))
	for id, st := range c.nodes {
		ms = append(ms, member{id: id, n: st.n, dead: st.dead})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].id < ms[j].id })
	return ms
}

// rebalance migrates warm cache entries after a topology change: every
// live node's entries are re-keyed against the current ring, and each
// entry is pushed to the owners that should now hold it. Holders keep
// their copies (the LRU evicts them naturally), so rebalancing adds warmth
// rather than removing it — though a destination already at capacity
// evicts its own coldest entries to make room, as with any insert.
// Unreachable nodes are skipped — detecting them is the failure detector's
// job, not the rebalancer's.
func (c *Cluster) rebalance() {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	for _, id := range c.AliveNodes() {
		ctx, cancel := c.maintCtx()
		resp, err := c.transport.Call(ctx, id, Request{Kind: ReqExport})
		cancel()
		if err != nil {
			continue
		}
		c.pushEntries(resp.Entries, id)
	}
}

// pushEntries imports entries into their current owners, batching one
// ReqImport per destination node. Entries already held by holder are not
// re-sent to it.
func (c *Cluster) pushEntries(entries []service.Entry, holder string) {
	batches := make(map[string][]service.Entry)
	for _, e := range entries {
		for _, owner := range c.Owners(e.Key) {
			if owner != holder {
				batches[owner] = append(batches[owner], e)
			}
		}
	}
	for id, batch := range batches {
		ctx, cancel := c.maintCtx()
		if _, err := c.transport.Call(ctx, id, Request{Kind: ReqImport, Entries: batch}); err == nil {
			c.counters.rebalanced.Add(uint64(len(batch)))
		}
		cancel()
	}
}

// FlushAll drops every member's plan cache. It targets
// all known members, not just ring members, so a node that is
// dead-but-revivable does not carry pre-flush entries back on rejoin; a
// node that is partitioned at flush time still misses the call. A
// statistics change does not call for it (see BumpStatsEpochAll).
func (c *Cluster) FlushAll() {
	for _, m := range c.members() {
		ctx, cancel := c.maintCtx()
		c.transport.Call(ctx, m.id, Request{Kind: ReqFlush})
		cancel()
	}
}

// BumpStatsEpochAll advances the catalog stats epoch on every known member
// and returns the lowest old epoch and highest new epoch observed. Nothing
// is flushed: entries cached under older epochs keep answering the queries
// that still carry their statistics, and a query under the new ones has a
// new fingerprint (see service.BumpStatsEpoch). A member unreachable at
// bump time keeps its old epoch until the next bump reaches it — the same
// partition caveat FlushAll has, but harmless: the epoch is provenance, so
// a missed bump mislabels that member's next entries, never a plan.
func (c *Cluster) BumpStatsEpochAll() (old, cur uint64) {
	for _, m := range c.members() {
		ctx, cancel := c.maintCtx()
		resp, err := c.transport.Call(ctx, m.id, Request{Kind: ReqBumpEpoch})
		cancel()
		if err != nil {
			continue
		}
		if old == 0 || resp.OldEpoch < old {
			old = resp.OldEpoch
		}
		if resp.NewEpoch > cur {
			cur = resp.NewEpoch
		}
	}
	return old, cur
}

// CacheInfo aggregates the plan-cache summaries of every alive node:
// capacities and plan counts sum (replicated entries count once per
// holder), the stats epoch is the highest observed, and the entry listing
// merges per-node listings by fingerprint — hits sum across holders —
// truncated to the topN hottest.
func (c *Cluster) CacheInfo(topN int) service.CacheInfo {
	agg := service.CacheInfo{Entries: []service.CacheEntryInfo{}}
	byKey := make(map[string]service.CacheEntryInfo)
	for _, id := range c.AliveNodes() {
		ctx, cancel := c.maintCtx()
		resp, err := c.transport.Call(ctx, id, Request{Kind: ReqCacheInfo, TopN: topN})
		cancel()
		if err != nil || resp.Info == nil {
			continue
		}
		info := resp.Info
		agg.Plans += info.Plans
		agg.Capacity += info.Capacity
		agg.Shards += info.Shards
		if info.StatsEpoch > agg.StatsEpoch {
			agg.StatsEpoch = info.StatsEpoch
		}
		for _, e := range info.Entries {
			m, ok := byKey[e.Fingerprint]
			if !ok {
				byKey[e.Fingerprint] = e
				continue
			}
			m.Hits += e.Hits
			if e.Epoch > m.Epoch {
				m.Epoch = e.Epoch
			}
			byKey[e.Fingerprint] = m
		}
	}
	for _, e := range byKey {
		agg.Entries = append(agg.Entries, e)
	}
	sort.SliceStable(agg.Entries, func(i, j int) bool {
		if agg.Entries[i].Hits != agg.Entries[j].Hits {
			return agg.Entries[i].Hits > agg.Entries[j].Hits
		}
		return agg.Entries[i].Fingerprint < agg.Entries[j].Fingerprint
	})
	if topN >= 0 && len(agg.Entries) > topN {
		agg.Entries = agg.Entries[:topN]
	}
	return agg
}

// Invalidate drops the entry under the given canonical fingerprint on every
// known member, reporting whether any member held it.
func (c *Cluster) Invalidate(key string) (found bool) {
	for _, m := range c.members() {
		ctx, cancel := c.maintCtx()
		resp, err := c.transport.Call(ctx, m.id, Request{Kind: ReqInvalidate, Key: key})
		cancel()
		if err != nil {
			continue
		}
		found = found || resp.Found
	}
	return found
}

// StatsEpoch returns the highest catalog stats epoch any alive node
// reports (nodes that missed a bump lag until the next one reaches them).
func (c *Cluster) StatsEpoch() uint64 {
	var epoch uint64
	for _, id := range c.AliveNodes() {
		if st, err := c.statsOf(id); err == nil && st.Snapshot.StatsEpoch > epoch {
			epoch = st.Snapshot.StatsEpoch
		}
	}
	return epoch
}

// statsOf fetches a member's stats over the transport.
func (c *Cluster) statsOf(id string) (*NodeStats, error) {
	ctx, cancel := c.maintCtx()
	defer cancel()
	resp, err := c.transport.Call(ctx, id, Request{Kind: ReqStats})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("cluster: node %s returned no stats", id)
	}
	return resp.Stats, nil
}

// memberStats reads a member's stats: an in-process node by a direct call,
// so a cut node keeps reporting, a remote peer over the transport.
func (c *Cluster) memberStats(m member) (*NodeStats, error) {
	if m.n != nil {
		return m.n.stats(), nil
	}
	return c.statsOf(m.id)
}

// CacheLen sums the cached-plan count over all members (replicated entries
// count once per holder). Unreachable remote peers contribute zero.
func (c *Cluster) CacheLen() int {
	total := 0
	for _, m := range c.members() {
		if st, err := c.memberStats(m); err == nil {
			total += st.CacheLen
		}
	}
	return total
}

// Snapshot copies the cluster's instrumentation: coordinator counters,
// membership and per-node service counters (remote peers are polled over
// the transport).
func (c *Cluster) Snapshot() Snapshot {
	s, _, _ := c.collectStats()
	return s
}

// collectStats builds the snapshot, the sum of the node snapshots and the
// cluster-wide merged latency set in one pass over the members, so
// /metrics polls each remote peer once, not twice.
func (c *Cluster) collectStats() (Snapshot, service.Snapshot, *service.LatencySet) {
	s := Snapshot{
		Requests:       c.counters.requests.Load(),
		Failovers:      c.counters.failovers.Load(),
		Overflows:      c.counters.overflows.Load(),
		Replicated:     c.counters.replicated.Load(),
		Rebalanced:     c.counters.rebalanced.Load(),
		Deaths:         c.counters.deaths.Load(),
		Rejoins:        c.counters.rejoins.Load(),
		Errors:         c.counters.errors.Load(),
		Canceled:       c.counters.canceled.Load(),
		Retries:        c.counters.retries.Load(),
		TransportCalls: c.counters.transportCalls.Load(),
		TransportFails: c.counters.transportFails.Load(),
		Quarantined:    c.counters.quarantined.Load(),
		Replicas:       c.cfg.Replicas,
		PerNode:        make(map[string]NodeSnapshot),
	}
	lat := &service.LatencySet{}
	var snaps []service.Snapshot
	for _, m := range c.members() {
		if m.dead {
			s.DeadNodes = append(s.DeadNodes, m.id)
		} else {
			s.AliveNodes = append(s.AliveNodes, m.id)
		}
		st, err := c.memberStats(m)
		if err != nil {
			// Unreachable peer: keep it in the membership view with zero
			// counters rather than dropping it from the snapshot.
			s.PerNode[m.id] = NodeSnapshot{Dead: m.dead}
			continue
		}
		s.PerNode[m.id] = NodeSnapshot{Snapshot: st.Snapshot, CacheLen: st.CacheLen, Dead: m.dead}
		snaps = append(snaps, st.Snapshot)
		lat.MergeExport(st.Latencies)
	}
	t := service.SumSnapshots(snaps)
	s.Shed, s.Queued, s.QueueDepth, s.InFlight = t.Shed, t.Queued, t.QueueDepth, t.InFlight
	s.StatsEpoch = t.StatsEpoch
	s.HitRate, s.AvgHitMicros, s.AvgMissMicros = t.HitRate, t.AvgHitMicros, t.AvgMissMicros
	s.Backends = t.Backends
	s.Latency = lat.Quantiles()
	return s, t, lat
}

// WriteMetrics emits the cluster's live metrics in Prometheus text
// exposition format: the coordinator's own counters (mpdp_cluster_*), the
// guarded transport path (mpdp_transport_*: attempts, fails, retries and
// attempt latency), and every node family through the service's own
// writer: the node counters summed, the highest stats epoch and the node
// latency histograms merged bucket-wise — one scrape of the front door
// answers cluster-wide p50/p95/p99 per backend.
func (c *Cluster) WriteMetrics(w io.Writer) error {
	s, nodes, lat := c.collectStats()
	cachePlans := 0
	for _, ns := range s.PerNode {
		cachePlans += ns.CacheLen
	}
	mw := obs.NewMetricsWriter(w)
	mw.Counter("mpdp_cluster_requests_total", "Requests entering the cluster front door.", nil, s.Requests)
	mw.Counter("mpdp_cluster_failovers_total", "Requests a replica served after an owner was unreachable.", nil, s.Failovers)
	mw.Counter("mpdp_cluster_overflows_total", "Requests a replica absorbed after every earlier owner shed.", nil, s.Overflows)
	mw.Counter("mpdp_cluster_replicated_entries_total", "Plan-cache entries pushed to replica owners.", nil, s.Replicated)
	mw.Counter("mpdp_cluster_rebalanced_entries_total", "Plan-cache entries migrated on topology changes.", nil, s.Rebalanced)
	mw.Counter("mpdp_cluster_deaths_total", "Nodes declared dead by the failure detector.", nil, s.Deaths)
	mw.Counter("mpdp_cluster_rejoins_total", "Dead nodes that rejoined the ring.", nil, s.Rejoins)
	mw.Counter("mpdp_cluster_quarantined_total", "Ring re-entries deferred because the node was flapping.", nil, s.Quarantined)
	mw.Counter("mpdp_cluster_errors_total", "Front-door requests that failed.", nil, s.Errors)
	mw.Counter("mpdp_cluster_canceled_total", "Front-door requests whose caller cancelled.", nil, s.Canceled)
	mw.Gauge("mpdp_cluster_alive_nodes", "Ring members alive.", nil, float64(len(s.AliveNodes)))
	mw.Gauge("mpdp_cluster_cache_plans", "Cached plans summed over all nodes.", nil, float64(cachePlans))

	// The guarded transport path.
	mw.Counter("mpdp_transport_calls_total", "Guarded request-path transport attempts.", nil, s.TransportCalls)
	mw.Counter("mpdp_transport_fails_total", "Transport attempts that failed at the transport layer.", nil, s.TransportFails)
	mw.Counter("mpdp_transport_retries_total", "Extra transport attempts after a fault.", nil, s.Retries)
	const attemptHelp = "Latency of guarded transport attempts by outcome."
	mw.Histogram("mpdp_transport_attempt_seconds", attemptHelp, obs.Labels{"outcome": "ok"}, &c.callLatOK)
	mw.Histogram("mpdp_transport_attempt_seconds", attemptHelp, obs.Labels{"outcome": "fail"}, &c.callLatFail)

	// Node families under the same names and help mpdp-serve exposes, so
	// the same dashboards read either binary.
	service.WriteNodeMetrics(mw, nodes, cachePlans, lat)
	return mw.Flush()
}
