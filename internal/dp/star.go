package dp

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/combinat"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// RunMPDP is MPDP at the given worker count, the one entry of dp.MPDP (one
// worker) and parallel.MPDP (Input.Threads): the star lattice when the join
// graph is a star (starHub), RunLevels with MPDP's evaluator otherwise.
// Plans and counters are the same bits either way and at any worker count.
func RunMPDP(in Input, workers int) (*plan.Node, Stats, error) {
	if hub, ok := starHub(in.Q.G); ok {
		return runStar(in, hub, workers)
	}
	in, evaluate := MPDPEvaluator(in)
	return RunLevels(in, evaluate, workers)
}

// starHub returns the hub of g when g is a star: one relation joined to
// each of the other n − 1 and no other edge, n ≥ 2. A hub is an end of
// every edge, so it is an end of the first. A star with more connected sets
// than the census materializes (maxConnectedSets) is not taken: it goes the
// census's way, which refuses it as it always has.
func starHub(g *graph.Graph) (int, bool) {
	n := g.N
	if n < 2 || n > 64 || len(g.Edges) != n-1 || uint64(1)<<(n-1)+uint64(n-1) > maxConnectedSets {
		return 0, false
	}
	for _, v := range [2]int{g.Edges[0].A, g.Edges[0].B} {
		if g.AdjMask(v).Count() == n-1 {
			return v, true
		}
	}
	return 0, false
}

// runStar is Algorithm 2 on a star, over flat lanes instead of the census
// and the table. Every connected set of two relations or more is the hub
// plus a non-empty subset t of the dimensions, and its CCP pairs are the
// |t| pairs (hub + t∖{d}, {d}), so the DP is indexed by t alone: level k
// holds the C(n−1, k) subsets of k dimensions, which a worker unranks at
// the start of each range it draws (combinat.Unrank) and steps through
// with Gosper's next combination. Nothing is claimed and nothing probed:
// the operands of a pair are lane t∖{d} and dimension d. The levels go
// through the one barrier (Levels), the lanes are the workspace's, and the
// plan is built from them into the workspace's arena.
func runStar(in Input, hub, workers int) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := Prepare(in)
	if err != nil {
		return nil, stats, err
	}
	n := in.Q.N()
	lat := in.Workspace.lattice()
	lat.width = n - 1
	var levels Levels
	levels.start(in, lat, n, workers)
	defer levels.Close()
	lat.seed(in, prep.Leaves, hub)
	stats.ConnectedSets = uint64(n)
	for size := 2; size <= n; size++ {
		st, err := levels.Run(nil, size)
		stats.Add(st)
		if err != nil {
			return nil, stats, err
		}
	}
	best := lat.build(uint64(1)<<lat.width-1, bitset.Full(n), prep.Leaves, in.Workspace.arena())
	in.Workspace.trim()
	return best, stats, nil
}

// starLattice is the DP of runStar. Dimension j is the other end of
// g.Edges[j], so the bits of t ascend in the order the census path offers
// a set's pairs (EvaluateSetMPDPTree: g.Edges order, A's side on the left
// first); with the same arithmetic and the same tie rule, the winners are
// the census path's bit for bit.
type starLattice struct {
	m     *cost.Model
	hub   int
	width int       // dimensions: n − 1
	dims  []starDim // dims[j]: the dimension of g.Edges[j]
	hubOp starDim   // the hub's base plan
	k     int       // dimensions per set of the open level

	// The lanes: entry t is the best plan of the hub joined with the
	// dimensions t, and entry 0 the hub's base plan.
	cost  []float64
	rows  []float64
	lg    []float64 // log2(max(rows, 2)), as plan.Table memoizes it
	split []uint8   // the winning pair: the edge index of the dimension split off | dimLeft
	op    []plan.Op
}

// dimLeft marks a winning pair whose dimension is the left operand.
const dimLeft = 1 << 7

// starDim is one base relation of a star as costing reads it, with what
// plan.Table keeps of a base entry: its scalars, whether it is a leaf (a
// plain scan, which the child-cost bound and an index nested loop require)
// and, for a leaf, the lookup term and whether its relation has the
// primary-key index an index nested loop probes.
type starDim struct {
	side
	lgi      float64 // log2(rows + 2) of a leaf
	sel      float64 // the edge's selectivity
	rel      int
	leaf     bool
	index    bool // a leaf whose relation has a primary-key index
	hubFirst bool // the edge lists the hub as A: the hub side is offered on the left first
}

// starBase describes leaf, the prepared plan of relation rel, as
// plan.Table's PutBase stores it.
func starBase(q *cost.Query, leaf *plan.Node, rel int) starDim {
	d := starDim{side: side{rows: leaf.Rows, cost: leaf.Cost, lg: math.Log2(plan.AtLeast(leaf.Rows, 2))}, rel: rel, leaf: leaf.IsLeaf()}
	if d.leaf {
		d.lgi = math.Log2(leaf.Rows + 2)
		d.index = q.Cat.Rels[uint16(leaf.RelID)&0xff].HasPKIndex
	}
	return d
}

// lattice returns the star lattice of w's runs.
func (w *Workspace) lattice() *starLattice {
	if w == nil {
		return new(starLattice)
	}
	return &w.star
}

// seed readies the lattice for a run on the star of in, whose hub is hub:
// the dimensions in edge order and lanes for every subset of them, lane 0
// holding the hub's base plan. The lanes keep the capacity earlier runs grew
// them to, and nothing is cleared: a level writes every lane of its sets
// before the next level reads one.
func (s *starLattice) seed(in Input, leaves []*plan.Node, hub int) {
	s.m, s.hub = in.M, hub
	s.dims = s.dims[:0]
	for _, e := range in.Q.G.Edges {
		d := starBase(in.Q, leaves[e.A^e.B^hub], e.A^e.B^hub)
		d.sel, d.hubFirst = e.Sel, e.A == hub
		s.dims = append(s.dims, d)
	}
	s.hubOp = starBase(in.Q, leaves[hub], hub)
	size := 1 << s.width
	if cap(s.cost) < size {
		s.cost, s.rows, s.lg = make([]float64, size), make([]float64, size), make([]float64, size)
		s.split, s.op = make([]uint8, size), make([]plan.Op, size)
	}
	s.cost, s.rows, s.lg = s.cost[:size], s.rows[:size], s.lg[:size]
	s.split, s.op = s.split[:size], s.op[:size]
	s.cost[0], s.rows[0], s.lg[0] = s.hubOp.cost, s.hubOp.rows, s.hubOp.lg
}

// capacity is how many sets the lanes hold, what a workspace checks against
// its retention bound.
func (s *starLattice) capacity() int { return cap(s.cost) }

// sets is C(n − 1, size − 1): a set of the level of size relations is the
// hub and size − 1 dimensions.
func (s *starLattice) sets(size int) int {
	if size < 2 {
		return 0
	}
	return int(combinat.Binomial(s.width, size-1))
}

func (s *starLattice) open(_ *plan.Table, size int) { s.k = size - 1 }

// evaluate evaluates the sets of ranks [lo, hi) of the open level, in
// colexicographic order, and writes each one's winner into its lanes. Each
// pair polls the worker's deadline and counts twice, once per orientation,
// as Algorithm 2 counts a tree edge.
//
//mpdp:hotpath
func (s *starLattice) evaluate(lw *levelWorker, lo, hi int) (Stats, error) {
	var stats Stats
	dl, m, dims, hub := lw.dl, s.m, s.dims, &s.hubOp
	cost, rows, lg := s.cost, s.rows, s.lg
	t := uint64(combinat.Unrank(uint64(lo), s.width, s.k))
	for i := lo; i < hi; i++ {
		var b starBest
		for rest := t; rest != 0; rest &= rest - 1 {
			if dl.Expired() {
				return stats, dl.Err()
			}
			stats.Evaluated += 2
			stats.CCP += 2
			j := bits.TrailingZeros64(rest)
			h, d := t&^(1<<j), &dims[j]
			in, out := b.prune(cost[h], d.cost, h == 0 && hub.leaf, d.leaf)
			if !in && !out {
				continue
			}
			hs := side{rows: rows[h], cost: cost[h], lg: lg[h]}
			r := hs.rows * d.rows * d.sel
			// A's side on the left first: the hub side when the edge lists
			// the hub first, the dimension otherwise.
			if in && d.hubFirst {
				b.join(m, hs, d.side, d.lgi, r, d.index, uint8(j))
			}
			if out {
				b.join(m, d.side, hs, hub.lgi, r, h == 0 && hub.index, uint8(j)|dimLeft)
			}
			if in && !d.hubFirst {
				b.join(m, hs, d.side, d.lgi, r, d.index, uint8(j))
			}
		}
		cost[t], rows[t], lg[t] = b.cost, b.rows, math.Log2(plan.AtLeast(b.rows, 2))
		s.split[t], s.op[t] = b.split, b.op
		stats.ConnectedSets++
		t = uint64(combinat.NextCombination(bitset.Mask(t)))
	}
	return stats, nil
}

// starBest is the incumbent of one star set, by lane values: bestWin's
// rule — the first offer, then only a strictly cheaper one — with the
// split recorded as runStar's lanes record it.
type starBest struct {
	cost, rows float64
	op         plan.Op
	split      uint8
	found      bool
}

// prune is the child-cost bound (bestWin.hopeless) on both orientations of
// one pair before either is costed: in is whether hub side ⋈ dimension,
// the dimension the inner, may still beat the incumbent, and out whether
// dimension ⋈ hub side may. hCost and dCost are the two sides' costs, hLeaf
// and dLeaf whether they are leaves.
//
//mpdp:hotpath
func (b *starBest) prune(hCost, dCost float64, hLeaf, dLeaf bool) (in, out bool) {
	return !b.found || !(childBound(hCost, dCost, dLeaf) >= b.cost),
		!b.found || !(childBound(dCost, hCost, hLeaf) >= b.cost)
}

// join costs l ⋈ r producing rows tuples, as joinCost does from the table
// (rLgi and index: the right side's lookup term and whether an index nested
// loop may probe it), and offers it.
//
//mpdp:hotpath
func (b *starBest) join(m *cost.Model, l, r side, rLgi, rows float64, index bool, split uint8) {
	op, c := m.JoinCostCore(l.rows, l.cost, l.lg, r.rows, r.cost, r.lg, rLgi, rows, index)
	if !b.found || c < b.cost {
		b.cost, b.rows, b.op, b.split, b.found = c, rows, op, split, true
	}
}

// build materializes the plan recorded for lane t, which holds the
// relations set, from the arena: lane 0 is the hub's prepared base plan,
// a dimension its own.
func (s *starLattice) build(t uint64, set bitset.Mask, leaves []*plan.Node, a *plan.Arena) *plan.Node {
	if t == 0 {
		return leaves[s.hub]
	}
	j := int(s.split[t] &^ dimLeft)
	d := s.dims[j].rel
	l, r := s.build(t&^(1<<j), set.Remove(d), leaves, a), leaves[d]
	if s.split[t]&dimLeft != 0 {
		l, r = r, l
	}
	return a.NewNode(set, l, r, s.op[t], s.rows[t], s.cost[t])
}
