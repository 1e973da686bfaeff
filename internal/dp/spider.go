package dp

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/plan"
)

// RunMPDP is MPDP at the given worker count, the one entry of dp.MPDP (one
// worker), parallel.MPDP (Input.Threads) and the GPU model on a tree (one
// worker per device): the spider lattice when the join graph is a spider,
// RunLevels with Algorithm 2 on any other tree and Algorithm 3 on any other
// graph. Plans and counters are the same bits either way and at any worker
// count; perLevel is RunLevels'.
func RunMPDP(in Input, workers int, perLevel []Stats) (*plan.Node, Stats, error) {
	if hub, ok := spiderHub(in.Q.G); ok {
		return runSpider(in, hub, workers, perLevel)
	}
	if in.Q.G.IsTree() {
		return RunLevels(in.ForTree(), EvaluateSetMPDPTree, workers, perLevel)
	}
	return RunLevels(in, EvaluateSetMPDP, workers, perLevel)
}

// spiderHub returns the hub of g when g is a spider, a hub with chain arms:
// a tree of 2 to 64 relations with at most one of degree three or more. The
// hub is the lowest-numbered relation of the highest degree: a star's
// centre, a snowflake's fact table, an inner relation of a chain.
func spiderHub(g *graph.Graph) (int, bool) {
	if g.N < 2 || g.N > 64 || !g.IsTree() {
		return 0, false
	}
	hub, branches := 0, 0
	for v := 0; v < g.N; v++ {
		d := g.AdjMask(v).Count()
		if d >= 3 {
			branches++
		}
		if d > g.AdjMask(hub).Count() {
			hub = v
		}
	}
	return hub, branches <= 1
}

// runSpider is Algorithm 2 on a spider, over flat lanes instead of the
// census and the table. A connected set either holds the hub, and then it is
// a prefix of each arm — a depth per arm, whose mixed-radix number is its
// lane rank — or it is an interval of one arm. Its CCP pairs are its edge
// cuts, each a hub set and an interval or two intervals found by arithmetic:
// nothing is claimed or probed. Level k holds the hub sets of depth sum
// k − 1 and the intervals of length k, which the barrier (Levels) shares out
// as ranges of ranks. A spider with more connected sets than the census
// materializes (maxConnectedSets) goes the census's way, which refuses it.
func runSpider(in Input, hub, workers int, perLevel []Stats) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := prepare(in)
	if err != nil {
		return nil, stats, err
	}
	lat := new(spiderLattice)
	if in.Workspace != nil {
		lat = &in.Workspace.spider
	}
	if !lat.layout(in.Q.G, hub) {
		return RunLevels(in.ForTree(), EvaluateSetMPDPTree, workers, perLevel)
	}
	n := in.Q.N()
	var levels Levels
	levels.start(in, lat, n, workers)
	defer levels.Close()
	lat.seed(in, prep.leaves)
	stats.ConnectedSets = uint64(n)
	if err := levels.runAll(nil, n, &stats, perLevel); err != nil {
		return nil, stats, err
	}
	best := lat.buildHub(len(lat.cost)-1, bitset.Full(n), prep.leaves, in.Workspace.arena())
	in.Workspace.trim()
	return best, stats, nil
}

// spiderLattice is the DP of runSpider. A set's pairs are offered in the
// census path's order (EvaluateSetMPDPTree: g.Edges order, A's side on the
// left first), and with the same arithmetic and tie rule the winners are
// the census path's bit for bit.
type spiderLattice struct {
	m     *cost.Model
	n     int
	hub   int
	hubOp spiderSide  // the hub's base plan
	arms  []spiderArm // in the order g.Edges lists their first edges
	edges []spiderEdge

	// prefix[arm.base + d] holds the edges of depths 1..d of an arm, as bits
	// of g.Edges indices, and rel[arm.base + d] is the relation at depth d.
	prefix []uint64
	rel    []int
	count  []int // count[i*n + t]: the depth vectors of the first i arms that sum to t

	size, hubSets int  // the open level's relations per set and hub sets
	width         int  // hub sets in all: Π (length + 1) over the arms
	radix2        bool // every arm is one relation: a star

	// The lanes, by lane rank, lane 0 the hub's base plan: each hub set's
	// best cost, all the child-cost bound reads, its rows and log-rows, and
	// its winning pair — 26 bytes a hub set.
	cost []float64
	cold []spiderCold
	win  []spiderWin
	iv   []spiderSide // iv[arm.off + b(b−1)/2 + a − 1]: depths a..b of an arm
}

// spiderArm is an arm: its length, its digit's weight in a lane rank (Π length
// + 1 of the arms before it), its first interval in iv, its depth 0 in prefix.
type spiderArm struct{ length, stride, off, base int }

// spiderEdge is the cut at depth pos of arm. A hub set at depth d on the
// arm, cut there, leaves the hub set of lane rank − (d + 1)·stride +
// posStride and the interval iv[ivOff + d(d−1)/2].
type spiderEdge struct {
	sel                           float64
	stride, posStride, ivOff, pos int
	arm                           uint8
	innerFirst                    bool // the edge lists its end nearer the hub as A
}

// outerLeft marks a winning pair whose side away from the hub is the left
// operand.
const outerLeft = 1 << 7

// spiderCold is a hub set's rows and log2(max(rows, 2)), as plan.Table keeps them.
type spiderCold struct{ rows, lg float64 }

// spiderWin is a winning pair: its cut's g.Edges index | outerLeft, and its operator.
type spiderWin struct {
	split uint8
	op    plan.Op
}

// spiderSide is the best plan of an interval, or a base plan, as costing
// reads it, with what plan.Table keeps of a base entry: whether it is a leaf
// (a plain scan: the child-cost bound and an index nested loop ask), its
// lookup term log2(rows + 2) and whether it has the primary-key index an
// index nested loop probes; and its winning pair.
type spiderSide struct {
	side
	lgi         float64
	split       uint8
	op          plan.Op
	leaf, index bool
}

// spiderBase describes leaf, a prepared base plan, as plan.Table's PutBase
// stores it.
func spiderBase(q *cost.Query, leaf *plan.Node) spiderSide {
	d := spiderSide{side: side{rows: leaf.Rows, cost: leaf.Cost, lg: math.Log2(plan.AtLeast(leaf.Rows, 2))}, leaf: leaf.IsLeaf()}
	if d.leaf {
		d.lgi = math.Log2(leaf.Rows + 2)
		d.index = q.Cat.Rels[uint16(leaf.RelID)&0xff].HasPKIndex
	}
	return d
}

// layout lays the lattice out for the spider g around hub — its arms, each
// edge's place, the prefix masks and the count table — unless it has more
// than maxConnectedSets sets.
func (s *spiderLattice) layout(g *graph.Graph, hub int) bool {
	n := g.N
	s.n, s.hub = n, hub
	s.arms, s.edges = s.arms[:0], append(s.edges[:0], make([]spiderEdge, len(g.Edges))...)
	s.prefix, s.rel = s.prefix[:0], s.rel[:0]
	var inc [64][2]int // the edges of each relation off the hub, at most two, or −1
	for v := range inc {
		inc[v] = [2]int{-1, -1}
	}
	for e, ed := range g.Edges {
		inc[ed.A], inc[ed.B] = [2]int{e, inc[ed.A][0]}, [2]int{e, inc[ed.B][0]}
	}
	off, stride := 0, 1
	for first, ed := range g.Edges {
		if ed.A != hub && ed.B != hub {
			continue
		}
		a := spiderArm{stride: stride, off: off, base: len(s.rel)}
		s.prefix, s.rel = append(s.prefix, 0), append(s.rel, hub)
		for prev, e := hub, first; e >= 0; {
			ed := g.Edges[e]
			v := ed.A ^ ed.B ^ prev
			a.length++
			s.edges[e] = spiderEdge{ed.Sel, stride, a.length * stride, off + a.length - 1, a.length, uint8(len(s.arms)), ed.A == prev}
			s.prefix, s.rel = append(s.prefix, s.prefix[len(s.prefix)-1]|1<<e), append(s.rel, v)
			prev, e = v, inc[v][0]^inc[v][1]^e // the edge of v not walked in on, or −1
		}
		s.arms = append(s.arms, a)
		off += a.length * (a.length + 1) / 2
		if stride *= a.length + 1; stride+off > maxConnectedSets {
			return false
		}
	}
	s.width, s.iv, s.radix2 = stride, append(s.iv[:0], make([]spiderSide, off)...), len(s.arms) == n-1
	s.count = append(s.count[:0], make([]int, (len(s.arms)+1)*n)...)
	s.count[0] = 1
	for i, a := range s.arms {
		for t := range n {
			for x := range min(a.length, t) + 1 {
				s.count[(i+1)*n+t] += s.count[i*n+t-x]
			}
		}
	}
	return true
}

// seed readies the laid-out lattice for a run of in on the base plans
// leaves: a lane per hub set, lane 0 the hub's base plan, and each interval
// of one relation that relation's. The lanes keep the capacity earlier runs
// grew them to, and nothing is cleared: a level writes every lane of its
// sets before the next reads one.
func (s *spiderLattice) seed(in Input, leaves []*plan.Node) {
	s.m = in.M
	if cap(s.cost) < s.width {
		s.cost, s.cold, s.win = make([]float64, s.width), make([]spiderCold, s.width), make([]spiderWin, s.width)
	}
	s.cost, s.cold, s.win = s.cost[:s.width], s.cold[:s.width], s.win[:s.width]
	s.hubOp = spiderBase(in.Q, leaves[s.hub])
	s.cost[0], s.cold[0] = s.hubOp.cost, spiderCold{rows: s.hubOp.rows, lg: s.hubOp.lg}
	for _, a := range s.arms {
		for d := 1; d <= a.length; d++ {
			s.iv[a.off+d*(d+1)/2-1] = spiderBase(in.Q, leaves[s.rel[a.base+d]])
		}
	}
}

// sets is how many sets the level of size relations has: the hub sets of
// depth sum size − 1, ranked first, and the intervals of length size.
func (s *spiderLattice) sets(size int) int {
	if size < 2 {
		return 0
	}
	sets := s.count[len(s.arms)*s.n+size-1]
	for _, a := range s.arms {
		sets += max(a.length-size+1, 0)
	}
	return sets
}

func (s *spiderLattice) open(_ *plan.Table, size int) {
	s.size, s.hubSets = size, s.count[len(s.arms)*s.n+size-1]
}

// evaluate evaluates the sets of ranks [lo, hi) of the open level, hub sets
// in lane order, then intervals, and writes their winners. Each pair polls
// the worker's deadline and counts twice, as Algorithm 2 counts a tree edge.
//
//mpdp:hotpath
func (s *spiderLattice) evaluate(lw *levelWorker, lo, hi int) (Stats, error) {
	var stats Stats
	dl, m, edges, iv, cost, cold, hub := lw.dl, s.m, s.edges, s.iv, s.cost, s.cold, &s.hubOp
	var depth [64]int
	rank, em := s.unrank(min(lo, s.hubSets-1), &depth)
	for i := lo; i < min(hi, s.hubSets); i++ {
		var b spiderBest
		for rest := em; rest != 0; rest &= rest - 1 {
			if dl.Expired() {
				return stats, dl.Err()
			}
			stats.Evaluated += 2
			stats.CCP += 2
			j := bits.TrailingZeros64(rest)
			e := &edges[j]
			h, y := rank&^(1<<j), &iv[j&63]
			if !s.radix2 {
				d := depth[e.arm&63]
				h, y = rank-(d+1)*e.stride+e.posStride, &iv[e.ivOff+d*(d-1)/2]
			}
			in, out := b.prune(cost[h], y.cost, h == 0 && hub.leaf, y.leaf)
			if !in && !out {
				continue
			}
			// pair, inlined: a call per pair costs a star-18 a tenth.
			x := side{rows: cold[h].rows, cost: cost[h], lg: cold[h].lg}
			r := x.rows * y.rows * e.sel
			if in && e.innerFirst {
				b.join(m, x, y.side, y.lgi, r, y.index, uint8(j))
			}
			if out {
				b.join(m, y.side, x, hub.lgi, r, h == 0 && hub.index, uint8(j)|outerLeft)
			}
			if in && !e.innerFirst {
				b.join(m, x, y.side, y.lgi, r, y.index, uint8(j))
			}
		}
		cost[rank], cold[rank], s.win[rank] = b.cost, spiderCold{b.rows, math.Log2(plan.AtLeast(b.rows, 2))}, spiderWin{b.split, b.op}
		stats.ConnectedSets++
		if s.radix2 {
			// A star's hub set is a subset of its arms, its lane rank and edge
			// mask the same bits: Gosper's hack steps to the next subset.
			u := uint64(rank)
			r := u + u&-u
			rank = int(r | (r^u)>>2>>bits.TrailingZeros64(u))
			em = uint64(rank)
		} else {
			rank, em = s.next(&depth, rank, em)
		}
	}
	for r := max(lo, s.hubSets); r < hi; r++ {
		st, err := s.evaluateInterval(dl, r-s.hubSets)
		if stats.Add(st); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// evaluateInterval evaluates the open level's q-th interval, by arm order.
//
//mpdp:hotpath
func (s *spiderLattice) evaluateInterval(dl *Deadline, q int) (Stats, error) {
	var stats Stats
	a := &s.arms[0]
	for i := 0; q > a.length-s.size; i++ {
		q -= max(a.length-s.size+1, 0)
		a = &s.arms[i+1]
	}
	lo, hi := q+1, q+s.size
	var b spiderBest
	for rest := s.prefix[a.base+hi] &^ s.prefix[a.base+lo]; rest != 0; rest &= rest - 1 {
		if dl.Expired() {
			return stats, dl.Err()
		}
		stats.Evaluated += 2
		stats.CCP += 2
		j := bits.TrailingZeros64(rest)
		e := &s.edges[j]
		x := &s.iv[a.off+(e.pos-1)*(e.pos-2)/2+lo-1]
		y := &s.iv[e.ivOff+hi*(hi-1)/2]
		in, out := b.prune(x.cost, y.cost, x.leaf, y.leaf)
		b.pair(s.m, x, y, in, out, e, uint8(j))
	}
	s.iv[a.off+hi*(hi-1)/2+lo-1] = spiderSide{side: side{rows: b.rows, cost: b.cost, lg: math.Log2(plan.AtLeast(b.rows, 2))}, split: b.split, op: b.op}
	stats.ConnectedSets++
	return stats, nil
}

// unrank returns the lane rank, edge mask and depths of the open level's
// r-th hub set. A level's hub sets are the bounded compositions of its depth
// sum in lane order, the last arm's depth the most significant digit.
//
//mpdp:hotpath
func (s *spiderLattice) unrank(r int, depth *[64]int) (rank int, em uint64) {
	t := s.size - 1
	for i := len(s.arms) - 1; i >= 0; i-- {
		a := &s.arms[i]
		x := 0
		for c := s.count[i*s.n+t]; r >= c; c = s.count[i*s.n+t-x] {
			r -= c
			x++
		}
		depth[i], t = x, t-x
		rank += x * a.stride
		em |= s.prefix[a.base+x]
	}
	return rank, em
}

// next steps depth to the level's next hub set, an odometer: the lowest arm
// that can take a relation from the arms below it does, and the rest of
// theirs refill those arms from the first. It returns the new lane rank and
// edge mask.
//
//mpdp:hotpath
func (s *spiderLattice) next(depth *[64]int, rank int, em uint64) (int, uint64) {
	mass := 0
	for j := range s.arms {
		a := &s.arms[j]
		if mass == 0 || depth[j] == a.length {
			mass += depth[j]
			continue
		}
		em ^= s.prefix[a.base+depth[j]] ^ s.prefix[a.base+depth[j]+1]
		depth[j]++
		rank += a.stride
		mass--
		for i := range s.arms[:j] {
			b := &s.arms[i]
			x := min(mass, b.length)
			em ^= s.prefix[b.base+depth[i]] ^ s.prefix[b.base+x]
			rank += (x - depth[i]) * b.stride
			depth[i], mass = x, mass-x
		}
		break
	}
	return rank, em
}

// spiderBest is the incumbent of one set under bestWin's rule: the first
// offer, then only a strictly cheaper one.
type spiderBest struct {
	cost, rows float64
	op         plan.Op
	split      uint8
	found      bool
}

// prune is the child-cost bound (bestWin.hopeless) on both orientations of a
// pair before either is costed: whether x ⋈ y, x the side nearer the hub,
// and whether y ⋈ x may still beat the incumbent.
//
//mpdp:hotpath
func (b *spiderBest) prune(xCost, yCost float64, xLeaf, yLeaf bool) (in, out bool) {
	return !b.found || !(childBound(xCost, yCost, yLeaf) >= b.cost),
		!b.found || !(childBound(yCost, xCost, xLeaf) >= b.cost)
}

// pair costs the orientations of cut j (e) that prune let through, A's side
// on the left first: in is x ⋈ y, x the side nearer the hub, and out y ⋈ x.
//
//mpdp:hotpath
func (b *spiderBest) pair(m *cost.Model, x, y *spiderSide, in, out bool, e *spiderEdge, j uint8) {
	r := x.rows * y.rows * e.sel
	if in && e.innerFirst {
		b.join(m, x.side, y.side, y.lgi, r, y.index, j)
	}
	if out {
		b.join(m, y.side, x.side, x.lgi, r, x.index, j|outerLeft)
	}
	if in && !e.innerFirst {
		b.join(m, x.side, y.side, y.lgi, r, y.index, j)
	}
}

// join costs l ⋈ r producing rows tuples as joinCost does (rLgi, index: r's
// lookup term and whether an index nested loop may probe it) and offers it.
//
//mpdp:hotpath
func (b *spiderBest) join(m *cost.Model, l, r side, rLgi, rows float64, index bool, split uint8) {
	op, c := m.JoinCostCore(l.rows, l.cost, l.lg, r.rows, r.cost, r.lg, rLgi, rows, index)
	if !b.found || c < b.cost {
		b.cost, b.rows, b.op, b.split, b.found = c, rows, op, split, true
	}
}

// buildHub materializes the plan of lane rank, the relations set, from the
// arena.
func (s *spiderLattice) buildHub(rank int, set bitset.Mask, leaves []*plan.Node, a *plan.Arena) *plan.Node {
	if rank == 0 {
		return leaves[s.hub]
	}
	v := &s.win[rank]
	e := &s.edges[v.split&^outerLeft]
	arm := &s.arms[e.arm]
	d := rank / arm.stride % (arm.length + 1)
	y := s.buildInterval(arm, e.pos, d, leaves, a)
	l, r := s.buildHub(rank-(d+1)*e.stride+e.posStride, set&^y.Set, leaves, a), y
	if v.split&outerLeft != 0 {
		l, r = r, l
	}
	return a.NewNode(set, l, r, v.op, s.cold[rank].rows, s.cost[rank])
}

// buildInterval materializes the plan recorded for depths lo..hi of arm.
func (s *spiderLattice) buildInterval(arm *spiderArm, lo, hi int, leaves []*plan.Node, a *plan.Arena) *plan.Node {
	if lo == hi {
		return leaves[s.rel[arm.base+lo]]
	}
	v := &s.iv[arm.off+hi*(hi-1)/2+lo-1]
	j := s.edges[v.split&^outerLeft].pos
	l, r := s.buildInterval(arm, lo, j-1, leaves, a), s.buildInterval(arm, j, hi, leaves, a)
	if v.split&outerLeft != 0 {
		l, r = r, l
	}
	return a.NewNode(l.Set|r.Set, l, r, v.op, v.rows, v.cost)
}
