// Package dp implements the exact join-order optimizers evaluated in the
// paper: the vertex-based DPSize and DPSub baselines, the edge-based DPCCP
// baseline, and the paper's contribution MPDP (tree-specialised Algorithm 2
// and the general block-based hybrid enumeration of Algorithm 3).
//
// Every algorithm is instrumented with the paper's two efficiency counters
// (§2.1): EvaluatedCounter (join pairs examined) and CCPCounter (valid
// csg-cmp pairs, counting both orientations), and all of them return the
// same optimal bushy no-cross-product plan, which the test suite enforces.
//
// The DP hot path is allocation-free in steady state: the memo is the
// struct-of-arrays plan.Table (direct-addressed when the census is dense,
// the paper's §5 Murmur3 open addressing when it is sparse), and plan trees
// are materialized only once per run, at its end, from an arena. Table,
// census and arena are borrowed from the caller's Workspace when it hands
// one in, so a run that follows another allocates next to nothing. Every
// evaluator prunes before it fetches: a candidate pair finds each child's
// slot once, reads the two costs from the table's cost lane, applies the
// child-cost bound (bestWin.hopeless), and only a pair that survives it
// reads the cold records of the same slots and is costed from their
// scalars (joinCost). On a tree the pair itself costs one AND: Algorithm 2
// reads an edge index built once per run (Input.ForTree) instead of walking
// the graph. On a spider — a star, a chain, a snowflake — MPDP needs neither
// census nor table: the spider lattice (RunMPDP) unranks each level and
// keeps the DP in flat lanes indexed by each arm's depth.
package dp

import (
	"context"
	"errors"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Stats carries the instrumentation counters of one optimizer run.
type Stats struct {
	// Evaluated is the paper's EvaluatedCounter: the number of join pairs
	// the algorithm examined, valid or not. CPU MPDP examines each block
	// pair once, from its side without the block's lowest vertex: a valid
	// pair counts twice, once per orientation costed, and one whose other
	// side is disconnected once. So CCP ≤ Evaluated, with equality on trees,
	// cycles, cliques and any set whose blocks have no invalid pairs — far
	// below the every-subset-of-every-block volume the paper plots and a
	// device executes; that one is CounterReport.MPDPEvaluated
	// (UnrankedPairs), and it is what the GPU-model runs report here.
	Evaluated uint64
	// CCP is the paper's CCP-Counter: the number of valid join pairs
	// (connected-subgraph complement pairs), including symmetric ones.
	CCP uint64
	// ConnectedSets is the number of connected subsets the algorithm
	// materialized (the size of the DP lattice actually visited).
	ConnectedSets uint64
	// Deprecated: bench-compat; remove with the probes. Always 0.
	WarmSeeded uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Evaluated += other.Evaluated
	s.CCP += other.CCP
	s.ConnectedSets += other.ConnectedSets
}

// Errors returned by the optimizers.
var (
	// ErrTooLarge is returned for queries beyond the Mask width.
	ErrTooLarge = errors.New("dp: exact optimization supports at most 64 relations")
	// ErrDisconnected is returned when the join graph is disconnected and
	// no cross-product-free plan exists.
	ErrDisconnected = errors.New("dp: join graph is disconnected (cross products are not considered)")
	// ErrTimeout is returned when the optimizer exceeded its deadline.
	ErrTimeout = errors.New("dp: optimization timed out")
)

// Input is one optimization task over a (sub)query of at most 64 relations.
type Input struct {
	Q *cost.Query
	M *cost.Model

	// Ctx, when non-nil, carries the time budget and caller cancellation:
	// the enumerators abort with context.Cause as soon as their deadline
	// checker observes Done, so a budget set as
	// context.WithTimeoutCause(ctx, d, ErrTimeout) returns ErrTimeout. A
	// nil Ctx means "never cancelled" (context.Background semantics without
	// the interface call on the hot path).
	Ctx context.Context

	// Leaves optionally overrides the base plans for each relation; the
	// heuristic layer passes materialized composite plans here (IDP2 temp
	// tables, UnionDP partition plans). When nil, sequential scans are used.
	// Leaf nodes are used as-is; their Set field is rewritten to the local
	// singleton.
	Leaves []*plan.Node

	// Workspace, when non-nil, is the memory the run borrows: DP table,
	// census, evaluator scratch and the arena of the returned plan tree,
	// which therefore stays valid only until the workspace's next run
	// begins. Long-lived callers keep one per worker.
	// When nil the run allocates all of it afresh. No result depends on it.
	Workspace *Workspace

	// Threads is the worker count of parallel.MPDP, which runs RunMPDP at
	// it (0: GOMAXPROCS). Nothing in this package reads it — MPDP, DPSub,
	// DPCCP and DPSize are sequential — and neither does the GPU model
	// (gpusim.Run).
	Threads int

	// cuts is Algorithm 2's edge index of Q.G, set by ForTree.
	cuts []graph.TreeCut
}

// ForTree returns the input readied for Algorithm 2's evaluator
// (EvaluateSetMPDPTree): carrying the edge index of its join graph, which
// must be a tree. Every driver that hands sets to that evaluator calls it
// once per run. The index is built here, per run, and not cached on the
// graph, which concurrent requests share; it is the workspace's memory when
// the input has one, and read-only once built, so the level workers of one
// run share it. A query past the mask width gets none: the run refuses it
// before any set is evaluated.
func (in Input) ForTree() Input {
	if in.Q.N() <= 64 {
		in.cuts = in.Workspace.treeCuts(in.Q.G)
	}
	return in
}

// Func is the common signature of every exact optimizer.
type Func func(in Input) (*plan.Node, Stats, error)

// Winner is the value-typed result of one per-set evaluation (the best
// split of the set plus its costing); see plan.Winner.
type Winner = plan.Winner

// Deadline is a cheap cooperative budget checker: Expired polls the
// caller's context only every few thousand iterations, and Err reports its
// cause — ErrTimeout for a budget set with that cause, the caller's own
// cancellation or deadline otherwise.
type Deadline struct {
	done <-chan struct{}
	ctx  context.Context
	err  error
	left int // calls of Expired until the next poll
}

// NewDeadline builds the checker for this input's context. Every driver
// creates its per-worker checkers through this so that the budget and
// caller cancellation reach every enumeration loop.
func (in *Input) NewDeadline() *Deadline {
	d := &Deadline{ctx: in.Ctx, left: deadlinePollInterval}
	if in.Ctx != nil {
		d.done = in.Ctx.Done()
	}
	return d
}

const deadlinePollInterval = 8192

// Expired reports whether the context is done, polling sparsely. Once it
// returns true it keeps returning true and Err returns the cause. The
// enumerators call it once per candidate pair, so the fast path is one
// decrement and one branch; whether there is anything to poll at all is the
// slow path's business.
//
//mpdp:hotpath
func (d *Deadline) Expired() bool {
	d.left--
	if d.left > 0 {
		return false
	}
	return d.poll()
}

// poll is the slow path of Expired, reached every deadlinePollInterval
// calls, and on every call once tripped.
func (d *Deadline) poll() bool {
	if d.err == nil && d.done != nil {
		select {
		case <-d.done:
			d.err = context.Cause(d.ctx)
		default:
		}
	}
	if d.err != nil {
		d.left = 0 // the next call polls again: tripped is sticky
		return true
	}
	d.left = deadlinePollInterval
	return false
}

// Err returns why the deadline tripped: the context's cause. Callers use it
// as the return value after Expired reported true; if the checker never
// tripped (e.g. a sibling worker's did), it polls once more, defaulting to
// ErrTimeout.
func (d *Deadline) Err() error {
	if d.poll() {
		return d.err
	}
	return ErrTimeout
}

// Scratch holds the per-worker reusable buffers of the set evaluators so
// the DP inner loops stay allocation-free. The zero value is ready to use;
// each concurrent worker needs its own.
type Scratch struct {
	// Blocks is the DFS scratch of the per-set block decomposition.
	Blocks graph.BlockScratch
	// walk is the stack of the per-block connected-subset walk.
	walk csgWalk
	// whole is the block list of a set the Dirac test proves 2-connected.
	whole [1]bitset.Mask
}

// SetEvaluator computes the best join of one connected set S given the DP
// table holding the best plans of all smaller connected sets. It returns
// the winning split by value; no plan node is materialized. The level
// barrier (Levels) hands every set to one, at any worker count, for the
// sequential, CPU-parallel and GPU-model runs alike, so that plans and
// counters agree exactly across variants.
type SetEvaluator func(in Input, tab *plan.Table, s bitset.Mask, dl *Deadline, sc *Scratch) (Winner, Stats, error)

// prepared holds the common setup of an optimization run.
type prepared struct {
	leaves []*plan.Node
	ws     *Workspace
}

// prepare validates the input and materializes the per-relation base plans.
// It is the first thing every driver calls, so it is also where a run
// begins on the input's workspace: the previous run's plan tree and census
// are dead from here on. The DP table itself is created by seed once the
// driver knows (or has bounded) the number of connected sets the run will
// store.
func prepare(in Input) (*prepared, error) {
	leaves, err := in.leaves()
	if err != nil {
		return nil, err
	}
	in.Workspace.begin()
	return &prepared{leaves: leaves, ws: in.Workspace}, nil
}

// seed returns the run's struct-of-arrays DP table, empty, pre-sized for
// hint connected sets (including the base relations) and seeded with the
// base entries.
func (p *prepared) seed(hint int) *plan.Table {
	if hint < len(p.leaves) {
		hint = len(p.leaves)
	}
	tab := p.ws.table(len(p.leaves), hint)
	for i, leaf := range p.leaves {
		tab.PutBase(bitset.Single(i), leaf)
	}
	return tab
}

// ConnectedBuckets enumerates every connected subset of the query graph and
// buckets them by cardinality (result[i] holds the size-i sets). It returns
// ErrTimeout (or the context's error) if the budget expires mid-enumeration.
// The buckets are the workspace's when the input has one.
func ConnectedBuckets(in Input) ([][]bitset.Mask, error) {
	dl := in.NewDeadline()
	buckets := connectedSetsBySize(in.Q.G, dl, in.Workspace)
	if buckets == nil {
		return nil, dl.Err()
	}
	return buckets, nil
}

// BucketCount sums the sizes of connected-set buckets, the exact pre-size
// of a census run's table.
func BucketCount(buckets [][]bitset.Mask) int {
	total := 0
	for _, b := range buckets {
		total += len(b)
	}
	return total
}

// finish materializes the full-query plan from the recorded splits — the
// single point where a census run's winning tree becomes plan nodes, and
// the end of the run: tab and the census are dead when it returns, and a
// workspace lets go of them if they were larger than it retains.
func finish(in Input, tab *plan.Table, leaves []*plan.Node, stats *Stats) (*plan.Node, Stats, error) {
	best := tab.Build(bitset.Full(in.Q.N()), leaves, in.Workspace.arena())
	in.Workspace.trim()
	if best == nil {
		return nil, *stats, ErrDisconnected
	}
	return best, *stats, nil
}

// leaves materializes the per-relation base plans.
func (in *Input) leaves() ([]*plan.Node, error) {
	n := in.Q.N()
	if n > 64 {
		return nil, ErrTooLarge
	}
	if n == 0 {
		return nil, errors.New("dp: empty query")
	}
	out := make([]*plan.Node, n)
	nodes := make([]plan.Node, n)
	for i := 0; i < n; i++ {
		if in.Leaves != nil && in.Leaves[i] != nil {
			nodes[i] = *in.Leaves[i] // shallow copy so Set rewrite is local
			nodes[i].Set = bitset.Single(i)
		} else {
			nodes[i] = *in.M.Scan(in.Q, i)
		}
		out[i] = &nodes[i]
	}
	return out, nil
}
