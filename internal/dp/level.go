package dp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/plan"
)

// RunLevels is the one whole-run driver of the level-synchronous
// enumerators — MPDP in both of its forms and DPSub — at any worker count:
// the census, the table seeded from it, every level behind the barrier
// (Levels) with evaluate and at most workers workers, then finish. The
// sequential enumerators of this package run it at one worker, the
// CPU-parallel ones (package parallel) at Input.Threads; plans and counters
// are the same bits at any count. When perLevel is non-nil it has an entry
// per size up to the relation count, and perLevel[size] receives what the
// level of that size counted.
func RunLevels(in Input, evaluate SetEvaluator, workers int, perLevel []Stats) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := prepare(in)
	if err != nil {
		return nil, stats, err
	}
	buckets, err := ConnectedBuckets(in)
	if err != nil {
		return nil, stats, err
	}
	levels := NewLevels(in, evaluate, buckets, workers)
	defer levels.Close()
	tab := prep.seed(BucketCount(buckets))
	stats.ConnectedSets = uint64(in.Q.N())
	if err := levels.runAll(tab, in.Q.N(), &stats, perLevel); err != nil {
		return nil, stats, err
	}
	return finish(in, tab, prep.leaves, &stats)
}

// runAll runs the levels of sizes 2 to n, folding their counters into stats
// and, when perLevel is non-nil, storing each in perLevel[size].
func (l *Levels) runAll(tab *plan.Table, n int, stats *Stats, perLevel []Stats) error {
	for size := 2; size <= n; size++ {
		st, err := l.Run(tab, size)
		stats.Add(st)
		if perLevel != nil {
			perLevel[size] = st
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// minSetsPerWorker is the no-helpers-yet gate: a run starts its helpers only
// if some level has at least this many sets for each of two workers. A
// sparse set costs 1–2 µs to evaluate and a helper costs a goroutine start
// and a wake, so a cycle-24 (24 sets on each of 23 levels) or a chain runs
// entirely on the calling goroutine, while a clique, a star or a MusicBrainz
// walk (levels of hundreds to thousands of sets) starts its helpers once.
// Whether a level then fans out is decided on its pair volume (fanOut). See
// DESIGN.md, "The level barrier".
const minSetsPerWorker = 64

// chunkPairs is the fewest candidate pairs one draw should carry, and the
// fewest a worker must be handed before it is brought into a level. A pair
// costs ~30 ns, so a draw of 256 is ~8 µs of work against one
// compare-and-swap, and a level fans out to a second worker from 512 pairs,
// where resident helpers cost about a microsecond to bring in.
const chunkPairs = 256

// spinBudget is how long a helper waits for the next level by spinning
// before it parks. On the 2-vCPU host a goroutine started or woken on an idle
// P drained its first set 43–90 µs after the go statement, median about
// 66 µs: a halted vCPU being woken. A helper that spins for one such wake has
// paid what parking would have cost its caller; one that parks sooner makes
// the caller pay a wake after every short serial step (a level's claims, a
// thin level on the caller alone).
const spinBudget = 66 * time.Microsecond

// fanOut is the level's schedule: how many workers share sets of estimated
// pairsPerSet candidate pairs each, and how many sets one draw hands out.
// Every worker brought in gets at least chunkPairs pairs' worth. A draw is an
// eighth of one worker's even share of the level — the most the slowest
// worker can trail the others by — but never fewer sets than chunkPairs
// pairs, and the whole level when there is nobody to share it with.
func fanOut(sets, pairsPerSet, workers int) (active, chunk int) {
	pairsPerSet = max(pairsPerSet, 1)
	active = min(workers, sets, sets*pairsPerSet/chunkPairs)
	if active <= 1 {
		return 1, max(sets, 1)
	}
	return active, max(sets/(8*active), (chunkPairs+pairsPerSet-1)/pairsPerSet)
}

// Levels is the level barrier of the level-synchronous drivers — the CPU
// counterpart of the paper's one-kernel-per-level structure (§5), shared by
// RunLevels and the spider lattice (runSpider), whichever of them MPDP runs
// on (RunMPDP): dp.MPDP at one worker, parallel.MPDP at Input.Threads and
// the GPU model (gpusim.Run) at one worker per device. Run evaluates the
// connected sets of one size and returns once all of them are stored, so
// every set of the next size finds its children.
//
// The unit of work is an index range of a level: the barrier knows how many
// sets each level has and hands out ranges of their indices, and the
// level's work (levelWork) says what a range is. On the census path
// (NewLevels) it is a run of one census bucket, whose sets the caller claims
// in the table (plan.Table.Claim), serially, before any worker joins; on a
// spider it is a run of ranks, which the worker unranks. Each worker owns a
// contiguous share of the level and drains it from its own end a chunk at a
// time (fanOut); a worker whose share is empty steals chunks from the far
// end of another's. Every set has exactly one producer: the worker that
// drew it writes its winner straight into the set's own slot
// (plan.Table.PutAt) or lanes and counts into its own Stats, and the barrier
// only folds the counts. That is race-free without an atomic per set: a
// level's evaluators read only strictly smaller sets, stored by earlier
// levels; keys and presence bits do not change while the workers run, and a
// worker's join is the happens-before edge from the claims; a worker writes
// only the lanes of the slots of the sets it drew; and the table is
// pre-sized from the census, so no claim grows it. Plans and counters are
// the same bits at any worker count, and no plan node exists until the run
// builds its tree.
//
// The calling goroutine is worker 0. The helpers are goroutines started
// once per run, when the barrier is built, and only if some level has
// minSetsPerWorker sets for each of two workers. Between levels a helper
// spins on the level word for spinBudget, then parks until the caller opens
// a level it is needed in. A level is open from the moment the caller publishes it until
// the caller has drained its own share: a helper that arrives after that
// touches nothing, and Run returns once every helper that did join has left.
// Helpers are retired after the last level with two sets or more; Close
// retires them on any other path and joins them, and the callers defer it,
// so once Close has returned nothing of the run touches the workspace. Every
// worker keeps one evaluator scratch and one Deadline for the whole run,
// so the deadline poll interval counts candidate pairs across levels; the
// scratches are the input's workspace's (Workspace).
type Levels struct {
	work    levelWork
	census  censusWork // the work of NewLevels' runs
	workers []levelWorker
	last    int  // the largest size with two sets or more: helpers retire after it
	live    bool // helpers are started and not retired
	spawned int  // helpers started
	gen     uint32
	wg      sync.WaitGroup

	// pairsPerSet is the previous level's evaluated pairs per set, the
	// estimate the next level's schedule starts from.
	pairsPerSet int

	// The level being run: written by the caller before it opens the level,
	// read by a helper only once it has joined.
	chunk  int
	active int

	level atomic.Uint64 // generation<<32 | closed | helpers inside
}

// levelWork is what the barrier shares out: the sets of each level,
// numbered from 0 in an order the work fixes, and what a worker does with an
// index range of them. The barrier sees nothing but counts and ranges, so
// the census of RunLevels and the spider lattice, which unranks its sets,
// share one pool of helpers and one schedule.
type levelWork interface {
	// sets returns how many sets the level of the given size has.
	sets(size int) int
	// open readies the level of the given size before any worker joins it.
	// It is serial, and tab is the one Levels.Run was handed.
	open(tab *plan.Table, size int)
	// evaluate evaluates sets [lo, hi) of the open level as worker lw, stores
	// their winners, and returns its counters; it stops at the first error.
	evaluate(lw *levelWorker, lo, hi int) (Stats, error)
}

// censusWork is the census path's level: the sets of one census bucket,
// claimed in the table before the workers join, each evaluated by a
// SetEvaluator and its winner written into its own slot (plan.Table.PutAt).
type censusWork struct {
	in        Input
	evaluator SetEvaluator
	buckets   [][]bitset.Mask
	tab       *plan.Table
	level     []bitset.Mask
}

func (c *censusWork) sets(size int) int { return len(c.buckets[size]) }

func (c *censusWork) open(tab *plan.Table, size int) {
	c.tab, c.level = tab, c.buckets[size]
	for _, s := range c.level {
		tab.Claim(s)
	}
}

// evaluate: a set that evaluates without error to no winner is a broken
// evaluator — a connected set of two relations or more always has a split
// — and panics, like a missing child does in MustSlot, rather than leave a
// claimed slot unwritten for the next level to read.
//
//mpdp:hotpath
func (c *censusWork) evaluate(lw *levelWorker, lo, hi int) (Stats, error) {
	// Locals, so that the loop touches nothing of c but the sets.
	in, evaluate, tab := c.in, c.evaluator, c.tab
	direct := tab.Direct()
	var stats Stats
	for _, s := range c.level[lo:hi] {
		win, st, err := evaluate(in, tab, s, lw.dl, lw.sc)
		stats.Add(st)
		if err != nil {
			return stats, err
		}
		if !win.Found {
			panic("dp: a connected set was evaluated to no plan")
		}
		if direct {
			tab.PutAt(tab.MustDirectSlot(s), win)
		} else {
			tab.PutAt(tab.MustSlot(s), win)
		}
		stats.ConnectedSets++
	}
	return stats, nil
}

// The level word: the generation of the level last opened, whether the
// caller has closed it, and how many helpers are inside it.
const (
	levelClosed  = 1 << 31
	levelInside  = levelClosed - 1
	retiredLevel = ^uint32(0) // the generation that sends helpers home
)

// levelWorker is the state one worker carries from level to level. It is
// larger than a cache line, so no two workers' shares share one.
type levelWorker struct {
	// share is [lo, hi) of the current level's set indices this worker
	// owns, packed hi<<32 | lo: the owner draws from lo, thieves from hi.
	share atomic.Uint64

	dl    *Deadline
	sc    *Scratch
	stats Stats // of the level just drained
	err   error

	parked atomic.Bool   // a helper blocked on wake
	wake   chan struct{} // the caller's token for a parked helper
}

// NewLevels prepares a run of evaluate over buckets (as returned by
// ConnectedBuckets) with at most workers concurrent workers, and starts
// the helpers if some level is thick enough to share. Call it right after
// the census, so that the helpers' first wake overlaps seeding the table,
// and defer Close.
func NewLevels(in Input, evaluate SetEvaluator, buckets [][]bitset.Mask, workers int) *Levels {
	l := new(Levels)
	l.census = censusWork{in: in, evaluator: evaluate, buckets: buckets}
	l.start(in, &l.census, len(buckets)-1, workers)
	return l
}

// start readies l to run work's levels, of sizes up to top, with at most
// workers workers, and starts the helpers if some level is thick enough to
// share.
func (l *Levels) start(in Input, work levelWork, top, workers int) {
	l.work = work
	l.workers = make([]levelWorker, max(workers, 1))
	thick := false
	for size := 0; size <= top; size++ {
		sets := work.sets(size)
		if sets >= 2 {
			l.last = size
		}
		thick = thick || sets >= 2*minSetsPerWorker
	}
	for w := range l.workers {
		l.workers[w].dl = in.NewDeadline()
		l.workers[w].sc = in.Workspace.Scratch(w)
	}
	if !thick || len(l.workers) == 1 {
		return
	}
	l.live = true
	l.spawned = len(l.workers) - 1
	l.wg.Add(l.spawned)
	for w := 1; w < len(l.workers); w++ {
		l.workers[w].wake = make(chan struct{}, 1)
		go l.help(w)
	}
}

// Close retires the helpers, if they still run, and joins them. Once it has
// returned, nothing of the run touches the workspace.
func (l *Levels) Close() {
	l.retire()
	l.wg.Wait()
}

// Run evaluates every connected set of the given size, stores the winners
// (in tab on the census path; the spider lattice keeps its own lanes and is
// handed nil) and returns the level's folded counters. On error (budget or
// cancellation) the counters are those of the sets whose evaluation
// finished, and the table is left with the level claimed and only partly
// written: the run is over, and the table is good for nothing but the Reset
// of the next one.
func (l *Levels) Run(tab *plan.Table, size int) (Stats, error) {
	sets := l.work.sets(size)
	l.work.open(tab, size)
	active, chunk := 1, max(sets, 1)
	if l.live {
		active, chunk = fanOut(sets, max(size-1, l.pairsPerSet), len(l.workers))
	}
	l.chunk, l.active = chunk, active
	for w := range l.workers[:active] {
		lw := &l.workers[w]
		lw.stats, lw.err = Stats{}, nil
		lw.share.Store(uint64((w+1)*sets/active)<<32 | uint64(w*sets/active))
	}
	if active > 1 {
		l.open()
	}
	l.drain(0)
	if active > 1 {
		l.close()
	}

	var stats Stats
	var failed error
	for w := range l.workers[:active] {
		stats.Add(l.workers[w].stats)
		if failed == nil {
			failed = l.workers[w].err
		}
	}
	if sets > 0 {
		l.pairsPerSet = int(stats.Evaluated / uint64(2*sets))
	}
	if size >= l.last {
		l.retire()
	}
	return stats, failed
}

// open publishes the level under a new generation and wakes the helpers it
// needs that have parked.
func (l *Levels) open() {
	l.gen++
	l.level.Store(uint64(l.gen) << 32)
	for w := 1; w < l.active; w++ {
		l.workers[w].unpark()
	}
}

// close stops helpers from joining the level and waits for those inside to
// leave.
func (l *Levels) close() {
	l.level.Or(levelClosed)
	for l.level.Load()&levelInside != 0 {
		runtime.Gosched()
	}
}

// retire sends the helpers home: they stop waiting for levels and return.
func (l *Levels) retire() {
	if !l.live {
		return
	}
	l.live = false
	l.level.Store(uint64(retiredLevel) << 32)
	for w := 1; w < len(l.workers); w++ {
		l.workers[w].unpark()
	}
}

// help is helper w's life: wait for a level, join it while it is open, drain
// it if the level needs this helper, leave; until retired.
func (l *Levels) help(w int) {
	defer l.wg.Done()
	lw := &l.workers[w]
	var seen uint32
	for {
		s := lw.await(&l.level, seen)
		if seen = uint32(s >> 32); seen == retiredLevel {
			return
		}
		if l.join(s) {
			if w < l.active {
				l.drain(w)
			}
			l.level.Add(^uint64(0)) // leave
		}
	}
}

// join enters the level the word s announces, unless the caller has closed
// it or opened another since.
func (l *Levels) join(s uint64) bool {
	for gen := s >> 32; s>>32 == gen && s&levelClosed == 0; s = l.level.Load() {
		if l.level.CompareAndSwap(s, s+1) {
			return true
		}
	}
	return false
}

// await returns the level word once its generation is no longer seen:
// spinning for spinBudget, then parked until the caller's token arrives.
func (lw *levelWorker) await(level *atomic.Uint64, seen uint32) uint64 {
	for start := time.Now(); time.Since(start) < spinBudget; runtime.Gosched() {
		if s := level.Load(); uint32(s>>32) != seen {
			return s
		}
	}
	for {
		lw.parked.Store(true)
		if s := level.Load(); uint32(s>>32) != seen {
			if !lw.parked.CompareAndSwap(true, false) {
				<-lw.wake // the caller took the flag: take its token
			}
			return s
		}
		<-lw.wake
	}
}

// unpark hands a parked helper its token. The caller stores the level word
// before it looks at the flag, and the helper sets the flag before it looks
// at the word, so one of them sees the other.
func (lw *levelWorker) unpark() {
	if lw.parked.Load() && lw.parked.CompareAndSwap(true, false) {
		lw.wake <- struct{}{}
	}
}

// take draws up to n set indices from the owner's end of the share.
//
//mpdp:hotpath
func (lw *levelWorker) take(n int) (lo, hi int) {
	for {
		b := lw.share.Load()
		lo, end := int(uint32(b)), int(b>>32)
		if lo >= end {
			return 0, 0
		}
		hi = min(lo+n, end)
		if lw.share.CompareAndSwap(b, uint64(end)<<32|uint64(hi)) {
			return lo, hi
		}
	}
}

// steal draws up to n set indices from the far end of the share.
//
//mpdp:hotpath
func (lw *levelWorker) steal(n int) (lo, hi int) {
	for {
		b := lw.share.Load()
		start, hi := int(uint32(b)), int(b>>32)
		if start >= hi {
			return 0, 0
		}
		lo = max(hi-n, start)
		if lw.share.CompareAndSwap(b, uint64(lo)<<32|uint64(start)) {
			return lo, hi
		}
	}
}

// draw hands worker w its next chunk: from its own share while it lasts,
// then from the far end of the others', nearest first.
//
//mpdp:hotpath
func (l *Levels) draw(w int) (lo, hi int) {
	if lo, hi = l.workers[w].take(l.chunk); lo < hi {
		return lo, hi
	}
	for k := 1; k < l.active; k++ {
		if lo, hi = l.workers[(w+k)%l.active].steal(l.chunk); lo < hi {
			return lo, hi
		}
	}
	return 0, 0
}

// drain is one worker's part of a level: it draws chunks of set indices
// until none are left and has the level's work evaluate each chunk. A worker
// whose evaluation fails (its deadline tripped) empties every share, so its
// siblings stop once the chunk they hold is done; the sets of its chunk
// that it had finished are counted and stored, the one it failed in is not.
//
//mpdp:hotpath
func (l *Levels) drain(w int) {
	lw := &l.workers[w]
	work := l.work
	var stats Stats
	var err error
	for err == nil {
		lo, hi := l.draw(w)
		if lo == hi {
			break
		}
		var st Stats
		st, err = work.evaluate(lw, lo, hi)
		stats.Add(st)
	}
	if err != nil {
		for v := range l.workers[:l.active] {
			l.workers[v].share.Store(0)
		}
	}
	lw.stats, lw.err = stats, err
}
