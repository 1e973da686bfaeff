package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/dp"
	"repro/internal/plan"
)

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
// the CPU-parallel enumerators and the GPU model's tree path. Run evaluates
// the connected sets of one size and returns once all of them are in the
// table, so every set of the next size finds its children.
//
// Before any worker joins, the caller claims every set of the level in the
// table (plan.Table.Claim), serially. Each worker then owns a contiguous
// share of the level in census order and drains it from its own end a chunk
// at a time (fanOut); a worker whose share is empty steals chunks from the
// far end of another's. Every set has exactly one producer: the worker that
// drew it writes its winner straight into the set's own slot
// (plan.Table.PutAt) and counts into its own dp.Stats, and the barrier only
// folds the counts. That is race-free without an atomic per set: a level's
// evaluators read only strictly smaller sets, stored by earlier levels; keys
// and presence bits do not change while the workers run, and a worker's join
// is the happens-before edge from the claims; a worker writes only the lanes
// of the slots of the sets it drew; and the table is pre-sized from the
// census, so no claim grows it. Plans and counters are the same bits at any
// worker count, and no plan node exists until Finish.
//
// The calling goroutine is worker 0. The helpers are goroutines started
// once per run, by NewLevels, and only if some level has minSetsPerWorker
// sets for each of two workers. Between levels a helper spins on the level
// word for spinBudget, then parks until the caller opens a level it is
// needed in. A level is open from the moment the caller publishes it until
// the caller has drained its own share: a helper that arrives after that
// touches nothing, and Run returns once every helper that did join has left.
// Helpers are retired after the last level with two sets or more; Close
// retires them on any other path and joins them, and the callers defer it,
// so once Close has returned nothing of the run touches the workspace. Every
// worker keeps one evaluator scratch and one dp.Deadline for the whole run,
// so the deadline poll interval counts candidate pairs across levels; the
// scratches are the input's workspace's (dp.Workspace).
type Levels struct {
	in       dp.Input
	evaluate dp.SetEvaluator
	buckets  [][]bitset.Mask
	workers  []levelWorker
	last     int  // the largest size with two sets or more: helpers retire after it
	live     bool // helpers are started and not retired
	spawned  int  // helpers started
	gen      uint32
	wg       sync.WaitGroup

	// pairsPerSet is the previous level's evaluated pairs per set, the
	// estimate the next level's schedule starts from.
	pairsPerSet int

	// The level being run: written by the caller before it opens the level,
	// read by a helper only once it has joined.
	tab    *plan.Table
	sets   []bitset.Mask
	chunk  int
	active int

	level atomic.Uint64 // generation<<32 | closed | helpers inside
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

	dl    *dp.Deadline
	sc    *dp.Scratch
	stats dp.Stats // of the level just drained
	err   error

	parked atomic.Bool   // a helper blocked on wake
	wake   chan struct{} // the caller's token for a parked helper
}

// NewLevels prepares a run of evaluate over buckets (as returned by
// dp.ConnectedBuckets) with at most workers concurrent workers, and starts
// the helpers if some level is thick enough to share. Call it right after
// the census, so that the helpers' first wake overlaps seeding the table,
// and defer Close.
func NewLevels(in dp.Input, evaluate dp.SetEvaluator, buckets [][]bitset.Mask, workers int) *Levels {
	l := &Levels{
		in: in, evaluate: evaluate, buckets: buckets,
		workers: make([]levelWorker, max(workers, 1)),
	}
	thick := false
	for size, sets := range buckets {
		if len(sets) >= 2 {
			l.last = size
		}
		thick = thick || len(sets) >= 2*minSetsPerWorker
	}
	for w := range l.workers {
		l.workers[w].dl = in.NewDeadline()
		l.workers[w].sc = in.Workspace.Scratch(w)
	}
	if !thick || len(l.workers) == 1 {
		return l
	}
	l.live = true
	l.spawned = len(l.workers) - 1
	l.wg.Add(l.spawned)
	for w := 1; w < len(l.workers); w++ {
		l.workers[w].wake = make(chan struct{}, 1)
		go l.help(w)
	}
	return l
}

// Close retires the helpers, if they still run, and joins them. Once it has
// returned, nothing of the run touches the workspace.
func (l *Levels) Close() {
	l.retire()
	l.wg.Wait()
}

// Run evaluates every connected set of the given size, stores the winners
// in tab and returns the level's folded counters. On error (budget or
// cancellation) the counters are those of the sets whose evaluation
// finished, and the table is left with the level claimed and only partly
// written: the run is over, and the table is good for nothing but the Reset
// of the next one.
func (l *Levels) Run(tab *plan.Table, size int) (dp.Stats, error) {
	sets := l.buckets[size]
	for _, s := range sets {
		tab.Claim(s)
	}
	active, chunk := 1, max(len(sets), 1)
	if l.live {
		active, chunk = fanOut(len(sets), max(size-1, l.pairsPerSet), len(l.workers))
	}
	l.tab, l.sets, l.chunk, l.active = tab, sets, chunk, active
	for w := range l.workers[:active] {
		lw := &l.workers[w]
		lw.stats, lw.err = dp.Stats{}, nil
		lw.share.Store(uint64((w+1)*len(sets)/active)<<32 | uint64(w*len(sets)/active))
	}
	if active > 1 {
		l.open()
	}
	l.drain(0)
	if active > 1 {
		l.close()
	}

	var stats dp.Stats
	var failed error
	for w := range l.workers[:active] {
		stats.Add(l.workers[w].stats)
		if failed == nil {
			failed = l.workers[w].err
		}
	}
	if len(sets) > 0 {
		l.pairsPerSet = int(stats.Evaluated / uint64(2*len(sets)))
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
// until none are left, evaluates each set it drew and writes the winner into
// that set's claimed slot. A worker whose evaluation fails (its deadline
// tripped) stores and counts nothing for that set and empties every share,
// so its siblings stop once the chunk they hold is done. A set that
// evaluates without error to no winner is a broken evaluator — a connected
// set of two relations or more always has a split — and panics, like a
// missing child does in MustSlot, rather than leave a claimed slot
// unwritten for the next level to read.
//
//mpdp:hotpath
func (l *Levels) drain(w int) {
	lw := &l.workers[w]
	// Locals, so that the loop touches nothing of l but the shares.
	in, evaluate, tab, sets := l.in, l.evaluate, l.tab, l.sets
	var stats dp.Stats
	var err error
	for err == nil {
		lo, hi := l.draw(w)
		if lo == hi {
			break
		}
		for i := lo; i < hi && err == nil; i++ {
			var win dp.Winner
			var st dp.Stats
			win, st, err = evaluate(in, tab, sets[i], lw.dl, lw.sc)
			stats.Add(st)
			if err == nil {
				if !win.Found {
					panic("parallel: a connected set was evaluated to no plan")
				}
				tab.PutAt(tab.MustSlot(sets[i]), win)
				stats.ConnectedSets++
			}
		}
	}
	if err != nil {
		for v := range l.workers[:l.active] {
			l.workers[v].share.Store(0)
		}
	}
	lw.stats, lw.err = stats, err
}
