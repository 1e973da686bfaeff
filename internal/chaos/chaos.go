// Package chaos is the deterministic fault-injection suite for the cluster:
// it replays a seeded schedule of kills, revives, asymmetric partitions,
// slow links and flaps against a cluster under open-loop load, then checks
// the invariants that make the cluster's fault story honest rather than
// anecdotal:
//
//   - no request is lost or mis-errored — every offered request ends in
//     success, a shed (503-class), an unavailable (503-class), or the
//     caller's own deadline (499-class); any other error is a violation;
//   - every plan served during the storm is cost-identical to a
//     single-node reference optimizer — failover and replication must
//     never change an answer;
//   - after the storm heals, the goroutine count settles back to the
//     pre-cluster baseline — faults must not leak workers, waiters or
//     timers;
//   - the guarded-transport counters reconcile with the injected faults:
//     a storm with real faults must show failovers, retries, overflows or
//     breaker skips, and a control run with no faults must show none.
//
// Schedules are pure data (Schedule, built by the named constructors)
// and are deterministic given a seed: the same seed yields
// the same schedule, the same fault decisions inside FaultTransport, and
// the same offered load mix.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/cost"
	"repro/internal/leaktest"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/service"
)

// EventKind names one fault-schedule action.
type EventKind string

const (
	// Kill crashes a node (its transport endpoint vanishes).
	Kill EventKind = "kill"
	// Revive restores a killed node; it rejoins the ring at the next
	// health check, quarantine permitting.
	Revive EventKind = "revive"
	// Partition cuts a link to the node with probability P in direction
	// Dir (request, reply, or both) — P=1 is a hard cut, P<1 a lossy link.
	Partition EventKind = "partition"
	// HealLink clears every fault on the node's link (partitions, loss,
	// latency, slowness).
	HealLink EventKind = "heal"
	// Slow adds D of service delay to every call to the node — the
	// degraded-but-alive failure mode that kills tail latency without
	// tripping the failure detector.
	Slow EventKind = "slow"
)

// Event is one scheduled fault action, At after the load phase starts.
type Event struct {
	At   time.Duration
	Kind EventKind
	// Node indexes the cluster's nodes ("node-<Node>").
	Node int
	// Dir and P parameterize Partition; D parameterizes Slow.
	Dir cluster.Direction
	P   float64
	D   time.Duration
}

// Schedule is a named, seeded fault schedule. The seed drives the
// FaultTransport's probabilistic decisions and the load mix, so a schedule
// replays identically.
type Schedule struct {
	Name   string
	Seed   int64
	Events []Event
}

// faulty reports whether the event degrades its target (used to track the
// healthy set for the warm-healthy latency histogram).
func (e Event) faulty() bool { return e.Kind != Revive && e.Kind != HealLink }

// KillSchedule is the basic crash-failover storm: the first replica owner
// dies a tenth of the way in and comes back at 60%, leaving the tail of
// the phase to observe recovery.
func KillSchedule(seed int64, phase time.Duration) Schedule {
	return Schedule{
		Name: "kill",
		Seed: seed,
		Events: []Event{
			{At: phase / 10, Kind: Kill, Node: 1},
			{At: phase * 6 / 10, Kind: Revive, Node: 1},
		},
	}
}

// PartitionSchedule is the asymmetric-partition storm: node 1 stops
// receiving requests entirely (requests cut, replies fine) while node 2
// answers but loses 70% of its replies — the direction split exercises
// both halves of the fault model, and the lossy link exercises retries.
func PartitionSchedule(seed int64, phase time.Duration) Schedule {
	return Schedule{
		Name: "partition",
		Seed: seed,
		Events: []Event{
			{At: phase / 10, Kind: Partition, Node: 1, Dir: cluster.DirRequest, P: 1},
			{At: phase / 10, Kind: Partition, Node: 2, Dir: cluster.DirReply, P: 0.7},
			{At: phase * 6 / 10, Kind: HealLink, Node: 1},
			{At: phase * 6 / 10, Kind: HealLink, Node: 2},
		},
	}
}

// SlowFlapSchedule combines the two detector-hostile failure modes: node 1
// degrades (every call +D delay, alive the whole time) while node 2 flaps
// — dies and returns twice in quick succession, which must land it in
// quarantine rather than churning the ring.
func SlowFlapSchedule(seed int64, phase time.Duration) Schedule {
	return Schedule{
		Name: "slow+flap",
		Seed: seed,
		Events: []Event{
			{At: phase / 20, Kind: Slow, Node: 1, D: 5 * time.Millisecond},
			{At: phase * 2 / 10, Kind: Kill, Node: 2},
			{At: phase * 25 / 100, Kind: Revive, Node: 2},
			{At: phase * 3 / 10, Kind: Kill, Node: 2},
			{At: phase * 35 / 100, Kind: Revive, Node: 2},
			{At: phase * 6 / 10, Kind: HealLink, Node: 1},
		},
	}
}

// ControlSchedule injects nothing: the null hypothesis every chaos run is
// compared against. Its reconciliation invariant is inverted — any
// failover or breaker skip on a fault-free run is a bug.
func ControlSchedule(seed int64) Schedule {
	return Schedule{Name: "control", Seed: seed}
}

// Config sizes one chaos run; both fields are required.
type Config struct {
	// Rate is the offered load in req/s; Phase is the fault window — events
	// fire inside it, load runs through it. After the phase the run heals
	// everything, waits for the ring to recover, and offers Phase/2 more
	// load to measure the healed state.
	Rate  float64
	Phase time.Duration
}

// The cluster under test and its working set: three nodes, two replicas,
// six warm queries of 6..7 relations, and a health check every 10ms — the
// chaos driver plays the role cmd/mpdp-cluster's health loop plays in
// production.
const (
	nodeCount   = 3
	replicas    = 2
	poolSize    = 6
	healthEvery = 10 * time.Millisecond
)

var poolSpan = []int{6, 7}

// Report is one chaos run's outcome. Violations() renders the failed
// invariants; an empty slice means the run held every guarantee.
type Report struct {
	Schedule string
	Seed     int64
	// Faults counts schedule events that degrade a node; LinkFaults the
	// subset routed through the fault transport (partitions, slow links),
	// whose firing shows up in Injected. Kills bypass the transport — the
	// endpoint just vanishes — so a kill-only schedule has Injected 0.
	Faults     int
	LinkFaults int
	Injected   uint64
	Storm      *loadgen.Result
	Healed     *loadgen.Result
	// harnessLate: p99 launch lateness of either load phase exceeded the
	// mean gap 1/Rate — a schedule offered that late was not the schedule.
	harnessLate bool

	// The request ledger: every offered request must be accounted for in
	// an allowed class. Unavailable counts ErrNoNodes (503-class);
	// MisErrored counts everything outside the allowed classes and must
	// be zero. Lost is offered minus all accounted classes and must be
	// zero.
	Offered     int
	OK          int
	Shed        int
	Timeouts    int
	Unavailable int
	MisErrored  int
	Lost        int

	// CostMismatches counts served plans whose cost differed from the
	// single-node reference — must be zero: faults may slow answers,
	// never change them.
	CostMismatches int

	// Goroutine hygiene: the post-heal count must settle back to the
	// pre-cluster baseline.
	GoroutinesBefore int
	GoroutinesAfter  int

	// Latency evidence for the breaker story: p99 of all served requests
	// during the storm and after heal, and p99 of warm hits served by
	// healthy nodes during the storm (the population the breaker is
	// supposed to protect).
	StormP99       time.Duration
	HealedP99      time.Duration
	WarmHealthyP99 time.Duration

	// Cluster is the final counter snapshot, for reconciliation.
	Cluster cluster.Snapshot
}

// Violations lists every invariant the run broke, empty when none.
func (r *Report) Violations() []string {
	var v []string
	badge := func(format string, args ...any) {
		v = append(v, fmt.Sprintf(format, args...))
	}
	if r.Storm.Dropped > 0 || r.Healed.Dropped > 0 {
		badge("harness saturated: dropped %d storm / %d healed arrivals", r.Storm.Dropped, r.Healed.Dropped)
	}
	if r.harnessLate {
		badge("harness saturated: p99 launch lateness %v storm / %v healed exceeds the mean gap 1/Rate",
			r.Storm.Late.Quantile(0.99), r.Healed.Late.Quantile(0.99))
	}
	if r.OK == 0 {
		badge("no request succeeded at all")
	}
	if r.MisErrored > 0 {
		badge("%d request(s) mis-errored outside the allowed classes", r.MisErrored)
	}
	if r.Lost != 0 {
		badge("%d request(s) unaccounted for", r.Lost)
	}
	if r.CostMismatches > 0 {
		badge("%d plan(s) diverged from the single-node reference cost", r.CostMismatches)
	}
	if r.GoroutinesAfter > r.GoroutinesBefore {
		badge("goroutines leaked: %d before, %d after heal", r.GoroutinesBefore, r.GoroutinesAfter)
	}
	guarded := r.Cluster.Failovers + r.Cluster.Overflows + r.Cluster.BreakerSkips + r.Cluster.Retries
	if r.LinkFaults > 0 && r.Injected == 0 {
		badge("schedule declared link faults but the fault transport injected none")
	}
	// Reconciliation: every fault must leave a counter trace somewhere —
	// the guarded path (failovers, retries, skips), the failure detector
	// (deaths, quarantines) or the transport itself (injected). A storm
	// that shows up nowhere means the instrumentation is lying.
	evidence := guarded + r.Cluster.Deaths + r.Cluster.Quarantined + r.Injected
	if r.Faults > 0 && evidence == 0 {
		badge("faults fired but left no counter trace (guarded path, detector and transport all zero)")
	}
	if r.Faults == 0 {
		if r.Cluster.Failovers != 0 || r.Cluster.BreakerSkips != 0 {
			badge("control run recorded %d failover(s) and %d breaker skip(s)", r.Cluster.Failovers, r.Cluster.BreakerSkips)
		}
		if r.Unavailable != 0 || r.Timeouts != 0 {
			badge("control run had %d unavailable and %d timeout(s)", r.Unavailable, r.Timeouts)
		}
	}
	return v
}

// Run replays sched against a fresh cluster under open-loop load and
// returns the full report. It is synchronous and self-contained: it builds
// the cluster, plays the schedule, heals, measures recovery and tears
// everything down. Cancelling ctx cuts the load phases short; a nil ctx
// is normalized to context.Background().
func Run(ctx context.Context, cfg Config, sched Schedule) *Report {
	if ctx == nil {
		ctx = context.Background()
	}
	rep := &Report{Schedule: sched.Name, Seed: sched.Seed}
	for _, e := range sched.Events {
		if e.faulty() {
			rep.Faults++
		}
		if e.Kind == Partition || e.Kind == Slow {
			rep.LinkFaults++
		}
	}

	// The reference optimizer: one plain service, no cluster, no faults.
	// Every fingerprint the load can offer (pool entries and their
	// isomorphic twins) must cost exactly what it says.
	pool := loadgen.NewPool(poolSize, poolSpan, sched.Seed)
	refCost := make(map[string]float64, len(pool))
	ref := service.New(service.Config{Workers: 2})
	for _, q := range pool {
		res, err := ref.Optimize(ctx, q)
		if err != nil {
			ref.Close()
			panic("chaos: reference optimize failed: " + err.Error())
		}
		refCost[res.Key] = res.Plan.Cost
	}
	ref.Close()

	rep.GoroutinesBefore = leaktest.Count()

	ft := cluster.NewFaultTransport(cluster.NewLocalTransport(), sched.Seed)
	c := cluster.New(cluster.Config{
		Nodes:     nodeCount,
		Replicas:  replicas,
		Transport: ft,
		Seed:      sched.Seed,
		Retry: cluster.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
		Breaker: cluster.BreakerConfig{
			Threshold: 4,
			Window:    200 * time.Millisecond,
			OpenFor:   50 * time.Millisecond,
		},
		FlapThreshold:  2,
		FlapWindow:     10 * time.Second,
		QuarantineBase: 100 * time.Millisecond,
		QuarantineMax:  time.Second,
		Service:        service.Config{Workers: 2},
	})

	nodes := c.AliveNodes()
	nodeID := func(i int) string { return nodes[i%len(nodes)] }

	// faulted is the set of currently-degraded nodes, maintained by the
	// event player and read by the measuring target: warm hits on nodes
	// NOT in this set are the breaker's protected population.
	var faultedMu sync.Mutex
	faulted := map[string]bool{}
	setFaulted := func(id string, bad bool) {
		faultedMu.Lock()
		if bad {
			faulted[id] = true
		} else {
			delete(faulted, id)
		}
		faultedMu.Unlock()
	}
	isFaulted := func(id string) bool {
		faultedMu.Lock()
		defer faultedMu.Unlock()
		return faulted[id]
	}

	var unavailable, misErrored, costMismatch atomic.Int64
	warmHealthy := &obs.Histogram{}
	target := func(ctx context.Context, q *cost.Query) error {
		start := time.Now()
		res, err := c.Optimize(ctx, q)
		switch {
		case err == nil:
			if want, ok := refCost[res.Key]; ok && res.Plan.Cost != want {
				costMismatch.Add(1)
			}
			if res.CacheHit && !isFaulted(res.Node) {
				warmHealthy.Record(time.Since(start))
			}
			return nil
		case errors.Is(err, service.ErrOverloaded):
			return err // loadgen counts the shed
		case errors.Is(err, cluster.ErrNoNodes):
			// 503-class on the wire, same as a shed: the cluster said "not
			// now", honestly and promptly. Tracked separately in the report.
			unavailable.Add(1)
			return service.ErrOverloaded
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			return err
		default:
			misErrored.Add(1)
			return err
		}
	}

	// Warm the working set before the storm: replicate every pool entry
	// so failover has warm replicas to land on.
	for _, q := range pool {
		if _, err := c.Optimize(ctx, q); err != nil {
			misErrored.Add(1)
		}
	}

	// The event player and the health loop: apply each event at its time,
	// run CheckHealth on a steady cadence (detection, rejoin, quarantine).
	events := append([]Event(nil), sched.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	stop := make(chan struct{})
	var player sync.WaitGroup
	player.Add(1)
	phaseStart := time.Now()
	go func() {
		defer player.Done()
		next := 0
		tick := time.NewTicker(healthEvery)
		defer tick.Stop()
		for {
			for next < len(events) && time.Since(phaseStart) >= events[next].At {
				e := events[next]
				id := nodeID(e.Node)
				switch e.Kind {
				case Kill:
					ft.Cut(id)
					setFaulted(id, true)
				case Revive:
					ft.Heal(id)
					setFaulted(id, false)
				case Partition:
					ft.Partition(id, e.Dir, e.P)
					setFaulted(id, true)
				case HealLink:
					ft.Clear(id)
					setFaulted(id, false)
				case Slow:
					ft.Slow(id, e.D)
					setFaulted(id, true)
				}
				next++
			}
			select {
			case <-stop:
				return
			case <-tick.C:
				c.CheckHealth()
			}
		}
	}()

	storm := loadgen.Run(ctx, target, loadgen.Config{
		Rate:     cfg.Rate,
		Duration: cfg.Phase,
		Pool:     pool,
		Seed:     sched.Seed,
	})

	// Heal the world: clear every link fault, cuts included, and keep
	// health-checking until the full membership is back (quarantines are
	// bounded, so this converges).
	ft.ClearAll()
	for _, id := range nodes {
		setFaulted(id, false)
	}
	healDeadline := time.Now().Add(5 * time.Second)
	for len(c.AliveNodes()) < len(nodes) && time.Now().Before(healDeadline) {
		if !sleepCtx(ctx, healthEvery) {
			break
		}
		c.CheckHealth()
	}

	healed := loadgen.Run(ctx, target, loadgen.Config{
		Rate:     cfg.Rate,
		Duration: cfg.Phase / 2,
		Pool:     pool,
		Seed:     sched.Seed + 1,
	})

	close(stop)
	player.Wait()

	rep.Injected = ft.Injected()
	rep.Cluster = c.Snapshot()
	c.Close()

	// Post-heal goroutine settle: orderly shutdown is asynchronous.
	settleDeadline := time.Now().Add(5 * time.Second)
	rep.GoroutinesAfter = leaktest.Count()
	for rep.GoroutinesAfter > rep.GoroutinesBefore && time.Now().Before(settleDeadline) {
		if !sleepCtx(ctx, 10*time.Millisecond) {
			break
		}
		rep.GoroutinesAfter = leaktest.Count()
	}

	rep.Storm, rep.Healed = storm, healed
	meanGap := time.Duration(float64(time.Second) / cfg.Rate)
	rep.harnessLate = storm.Late.Quantile(0.99) > meanGap || healed.Late.Quantile(0.99) > meanGap
	rep.Offered = storm.Offered + healed.Offered
	rep.OK = storm.OK + healed.OK
	rep.Shed = storm.Shed + healed.Shed
	rep.Timeouts = storm.Timeout + healed.Timeout
	rep.Unavailable = int(unavailable.Load())
	rep.MisErrored = int(misErrored.Load())
	rep.Lost = rep.Offered - rep.OK - rep.Shed - rep.Timeouts -
		(storm.Dropped + healed.Dropped) - (storm.Errors + healed.Errors)
	rep.CostMismatches = int(costMismatch.Load())
	rep.StormP99 = storm.Hist.Quantile(0.99)
	rep.HealedP99 = healed.Hist.Quantile(0.99)
	rep.WarmHealthyP99 = warmHealthy.Quantile(0.99)
	return rep
}

// sleepCtx waits for d or until ctx is done, reporting whether the full
// duration elapsed. The poll loops above use it so a cancelled harness
// stops promptly instead of sleeping through its own shutdown.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
