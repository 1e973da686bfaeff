package plan

import (
	"math"

	"repro/internal/bitset"
)

// Table is the struct-of-arrays DP table used by every CPU enumerator. It
// stores no plan nodes: each set's best cost, best split, operator and
// cardinality live in flat parallel arrays, so the DP inner loops touch
// only value types and never call the allocator, and the winning tree is
// materialized once, at the end of the run (Build), from an Arena.
//
// Addressing follows the density of the run's connected-set census, by one
// parameter-free rule: a table over n relations whose open-addressing
// layout would take at least 2^n slots anyway is direct-addressed — the
// set's bitmap is its slot, with no hash, no key array, no probe chain and
// no growth, in 2^n slots (never more than the hash layout would have had).
// That is every census denser than a quarter of the subsets (cliques,
// stars) and every capped-hint run of at most 13 relations. Sparser runs
// (cycles, chains, snowflakes, MusicBrainz walks) keep the paper's §5 memo:
// open addressing on the Murmur3 64-bit finalizer, a zero key marking an
// empty slot. The rule is evaluated at construction and again whenever the
// hash layout doubles, so a run that starts on the capped hint lands on
// direct addressing as soon as doubling reaches 2^n. The paper hashes
// because a GPU cannot afford 2^n slots for a sparse 30-relation query;
// where the census is ~2^n the hash only adds misses and bytes.
//
// The arrays are laid out by how often the inner loops read them. The cost
// lane is all a pruned candidate pair touches (dp's child-cost bound reads
// two costs and nothing else); rows, the memoized logarithm, operator and
// left split are one cold record fetched only for pairs that survive the
// bound. The inner loops find an operand's slot once (Slot, MustSlot) and
// read both by slot, so a pair pays one probe per operand however much of
// each it ends up reading. The right split is not stored: every winner
// ever recorded is a csg-cmp pair of its set, so Right == Set \ Left.
// Presence is the key array in the hash layout and a bitmap in the direct
// one — never a sentinel in the cost lane, because every float64 bit
// pattern (NaN and ±Inf included) is a cost a caller may store and must
// read back.
//
// The table knows n: it never stores the empty set or a set with a
// relation ≥ n (Put panics), and both probe as absent. Concurrent reads
// are safe while no writer runs. The one concurrent writer is a level of
// the level-parallel drivers: its sets are claimed first (Claim, serial),
// then each worker stores its own sets' winners by slot (PutAt), which
// writes nothing any other worker reads.
type Table struct {
	keys    []bitset.Mask // hash layout only; nil when direct-addressed
	keybuf  []bitset.Mask // the key array, kept across a direct-addressed run
	present []uint64      // direct layout: bit s set when s is stored
	cost    []float64     // the hot lane
	cold    []tcold       // payload of pairs that survive the cost bound

	// leaf holds the relations whose stored base entry is a plain scan: a
	// set is a leaf when it is one of those singletons. leafLgi[i] is
	// log2(rows + 2) of leaf {i}, the index-nested-loop lookup term: only a
	// leaf can be the inner of an index nested loop, so it is memoized for
	// the at most 64 of them and not per stored set.
	leaf    bitset.Mask
	leafLgi [64]float64
	n       uint
	used    int
	mask    uint64 // hash layout: capacity - 1
}

// tcold is the per-entry payload behind the cost lane.
type tcold struct {
	rows float64
	lg   float64     // log2(max(rows, 2)), the merge-join sort term
	left bitset.Mask // left split; zero for base (singleton) entries
	meta uint16      // relID (bits 0-7) | op (bits 8-11)
}

const (
	metaRelID uint16 = 0x00ff
	metaOp    uint16 = 0x0f00
)

// Entry is the value-typed view of one table slot, everything a DP inner
// loop needs to cost a candidate join without touching a plan node. The
// logarithm fields are memoized at insert time: each stored sub-plan is
// re-costed against many candidate partners, so computing its log2 terms
// once per insert instead of twice per pair takes math.Log2 off the hot
// path entirely (the values are the same math.Log2 bits either way). The
// MPDP and DPCCP loops read the same scalars by slot and never assemble
// one; it serves the baselines, Build and the tests.
type Entry struct {
	Set     bitset.Mask
	Left    bitset.Mask // zero for base entries
	Right   bitset.Mask // Set \ Left; zero for base entries
	Rows    float64
	Cost    float64
	LogRows float64 // log2(max(Rows, 2))
	LogIdx  float64 // log2(Rows + 2) when Leaf — all index-NL costing reads — else 0
	Op      Op
	Leaf    bool // the underlying base plan is a plain relation scan
	RelID   int32
}

// Winner is a join candidate that won a per-set evaluation: the split plus
// its costing, everything needed to record the set's best plan by value.
// Left and Right partition the set they are recorded for; the table keeps
// Left and derives Right.
type Winner struct {
	Left  bitset.Mask
	Right bitset.Mask
	Rows  float64
	Cost  float64
	Op    Op
	Found bool
}

// TableSizeHint is the capped pre-size for DP tables (and the matching map
// memos) when the connected-set count is discovered on the fly rather than
// known up front: exact below 2^12 — only dense graphs approach 2^n
// connected sets — growth on demand beyond.
func TableSizeHint(n int) int {
	return 1 << uint(min(n, 12))
}

// NewTable returns a table over n relations with capacity for at least hint
// entries before growing. Size hint from the run's actual connected-set
// count when known (dp.ConnectedBuckets) so steady-state runs never rehash.
func NewTable(n, hint int) *Table {
	t := new(Table)
	t.Reset(n, hint)
	return t
}

// Reset empties the table and readies it for a run over n relations with
// capacity for at least hint entries — the one construction path: NewTable
// is Reset on a zero table, and a recycled table is slot for slot the fresh
// one, because capacity and the direct-versus-hash rule are evaluated on the
// requested capacity, never on what the arrays could hold. Arrays that are
// large enough are kept, and only presence is cleared (the bitmap when
// direct, the key array when hashed): every read of the cost lane and the
// cold records is gated by presence and every insert writes both before the
// slot can be read, so what an earlier run left in the lanes is unreachable.
func (t *Table) Reset(n, hint int) {
	capacity := 16
	for capacity < hint*2 {
		capacity <<= 1
	}
	t.n, t.leaf = uint(n), 0
	t.alloc(capacity)
}

// alloc lays the table out empty: a hash layout of capacity slots, or the
// 2^n direct-addressed slots when capacity is at least that many. Arrays
// the table already has are re-sliced where they are large enough.
func (t *Table) alloc(capacity int) {
	t.used = 0
	direct := capacity>>t.n > 0
	if direct {
		capacity = 1 << t.n
	}
	if cap(t.cost) < capacity {
		t.cost = make([]float64, capacity)
		t.cold = make([]tcold, capacity)
		t.keybuf, t.present = nil, nil // never larger than the lanes: Cap bounds them all
	}
	t.cost, t.cold = t.cost[:capacity], t.cold[:capacity]
	if direct {
		t.keys, t.mask = nil, 0
		t.present = zeroed(t.present, (capacity+63)/64)
		return
	}
	t.keybuf = zeroed(t.keybuf, capacity)
	t.keys, t.mask = t.keybuf, uint64(capacity-1)
}

// zeroed returns a zeroed slice of n elements, in s's array when it fits.
func zeroed[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Cap returns the number of slots the table's arrays can hold, which a
// Reset to a smaller run keeps: what an owner that recycles tables checks
// against its retention bound.
func (t *Table) Cap() int { return cap(t.cost) }

// Len returns the number of stored sets.
func (t *Table) Len() int { return t.used }

// Murmur3Fmix64 is the 64-bit finalizer of MurmurHash3.
//
//mpdp:hotpath
func Murmur3Fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// slot returns the open-addressing slot of s: either the slot holding s or
// the empty slot where s would be inserted. Hash layout only.
//
//mpdp:hotpath
func (t *Table) slot(s bitset.Mask) int {
	i := Murmur3Fmix64(uint64(s)) & t.mask
	for {
		k := t.keys[i]
		if k == s || k == 0 {
			return int(i)
		}
		i = (i + 1) & t.mask
	}
}

// Slot returns the slot of s and whether s is stored there: the one probe
// an inner loop pays per operand, after which CostAt, ScalarsAt and RelIDAt
// read it by index. A slot is good until the next insert of a new set (the
// hash layout may grow). In the direct layout the one compare against the
// lane's length is the bounds check and the "relation ≥ n" test at once,
// and the empty set's bit is never set; in the hash layout neither the
// empty set nor such a set was ever inserted, so their probe chains end on
// an empty slot.
//
//mpdp:hotpath
func (t *Table) Slot(s bitset.Mask) (int, bool) {
	if t.keys != nil {
		i := t.slot(s)
		return i, t.keys[i] != 0
	}
	if uint64(s) >= uint64(len(t.cost)) {
		return 0, false
	}
	return int(s), t.present[s>>6]>>(s&63)&1 != 0
}

// single reports whether s names at most one relation.
func single(s bitset.Mask) bool { return s&(s-1) == 0 }

// IsLeaf reports whether s is a singleton whose stored base plan is a plain
// relation scan — Entry.Leaf without fetching the entry.
//
//mpdp:hotpath
func (t *Table) IsLeaf(s bitset.Mask) bool {
	return single(s) && s&t.leaf != 0
}

// LeafLogIdx returns log2(rows + 2) of the leaf s (IsLeaf), the lookup term
// of an index nested loop into it. The mask is the bounds check: a leaf's
// lowest bit is below 64.
//
//mpdp:hotpath
func (t *Table) LeafLogIdx(s bitset.Mask) float64 {
	return t.leafLgi[s.Lowest()&63]
}

// MustSlot is Slot for probes the DP invariant guarantees to hit (every
// smaller connected set is stored before a level is evaluated): a miss is a
// broken enumerator, and failing loudly here beats silently costing against
// a zero entry.
//
//mpdp:hotpath
func (t *Table) MustSlot(s bitset.Mask) int {
	i, ok := t.Slot(s)
	if !ok {
		panic("plan: DP table is missing a connected set the enumeration invariant guarantees")
	}
	return i
}

// CostAt reads the cost lane of slot i — all a candidate pair touches
// before the child-cost bound decides whether it is costed.
//
//mpdp:hotpath
func (t *Table) CostAt(i int) float64 { return t.cost[i] }

// ScalarsAt reads what costing needs of slot i's cold record: the stored
// cardinality and log2(max(rows, 2)).
//
//mpdp:hotpath
func (t *Table) ScalarsAt(i int) (rows, logRows float64) {
	c := &t.cold[i]
	return c.rows, c.lg
}

// RelIDAt returns the relation id stored with slot i's base entry.
//
//mpdp:hotpath
func (t *Table) RelIDAt(i int) int { return int(t.cold[i].meta & metaRelID) }

// entry assembles the costing view of slot i, which holds s.
//
//mpdp:hotpath
func (t *Table) entry(s bitset.Mask, i int) Entry {
	c := &t.cold[i]
	e := Entry{
		Set:     s,
		Rows:    c.rows,
		Cost:    t.cost[i],
		LogRows: c.lg,
		Op:      Op(c.meta & metaOp >> 8),
		Leaf:    t.IsLeaf(s),
		RelID:   int32(c.meta & metaRelID),
	}
	if e.Leaf {
		e.LogIdx = t.LeafLogIdx(s)
	}
	return e
}

// Get returns the full entry stored for s by value, split masks included.
//
//mpdp:hotpath
func (t *Table) Get(s bitset.Mask) (Entry, bool) {
	i, ok := t.Slot(s)
	if !ok {
		return Entry{}, false
	}
	e := t.entry(s, i)
	if e.Left = t.cold[i].left; e.Left != 0 {
		e.Right = s.Diff(e.Left)
	}
	return e, true
}

// View returns the costing view of s: like Get but without the split
// masks (the split is only needed when materializing). The DP inner loops
// call it only for candidate pairs that survived the cost-lane bound.
//
//mpdp:hotpath
func (t *Table) View(s bitset.Mask) (Entry, bool) {
	i, ok := t.Slot(s)
	if !ok {
		return Entry{}, false
	}
	return t.entry(s, i), true
}

// MustView is View for probes the DP invariant guarantees to hit; it panics
// like MustSlot on a miss.
//
//mpdp:hotpath
func (t *Table) MustView(s bitset.Mask) Entry {
	return t.entry(s, t.MustSlot(s))
}

// Has reports whether s is stored. For subsets of a connected set below the
// current DP level this doubles as the connectivity test: every connected
// set of a smaller size is already in the table.
//
//mpdp:hotpath
func (t *Table) Has(s bitset.Mask) bool {
	_, ok := t.Slot(s)
	return ok
}

// Cost returns the stored cost of s, or found = false. It reads the cost
// lane and the presence of s, nothing else: this is the probe a candidate
// pair pays before the child-cost bound decides whether it is costed.
//
//mpdp:hotpath
func (t *Table) Cost(s bitset.Mask) (float64, bool) {
	i, ok := t.Slot(s)
	if !ok {
		return 0, false
	}
	return t.cost[i], true
}

// PutBase seeds the table entry of singleton set s from its prepared base
// plan (a relation scan, or a composite plan the heuristic layer passes as
// a leaf). This is the only way a set becomes a leaf.
//
//mpdp:hotpath
func (t *Table) PutBase(s bitset.Mask, n *Node) {
	if !single(s) {
		panic("plan: a base entry is a single relation")
	}
	t.setAt(t.insert(s), 0, n.Rows, n.Cost, uint16(n.RelID)&metaRelID|uint16(n.Op)<<8&metaOp)
	if n.IsLeaf() {
		t.leaf |= s
		t.leafLgi[s.Lowest()] = math.Log2(n.Rows + 2)
	} else {
		t.leaf &^= s
	}
}

// Put unconditionally records w as the plan for set s.
//
//mpdp:hotpath
func (t *Table) Put(s bitset.Mask, w Winner) {
	i := t.insert(s)
	if single(s) {
		t.leaf &^= s // a joined plan over one relation is not a scan
	}
	t.setAt(i, w.Left, w.Rows, w.Cost, uint16(w.Op)<<8&metaOp)
}

// Claim makes s present before its plan is known, so that a level's workers
// can then store their winners with PutAt and nothing else: on the direct
// layout it sets s's presence bit, on the hash layout it inserts the key
// (growing first if need be). Until PutAt fills it the slot's content is
// unspecified, so a claimed set must not be read before then — the level
// drivers read only smaller sets. Claims are serial: call it before the
// workers start, never while one runs. s is a joined set of two relations
// or more; a base entry is PutBase's.
func (t *Table) Claim(s bitset.Mask) {
	if single(s) {
		panic("plan: only a joined set is claimed")
	}
	t.insert(s)
}

// PutAt records w as the plan of the claimed set in slot i (Slot of the set
// after its Claim). It writes slot i's lanes and no other word of the table
// — no key, no presence bit, no count, no leaf mask — so workers storing
// into distinct claimed slots at once do not race.
//
//mpdp:hotpath
func (t *Table) PutAt(i int, w Winner) {
	t.setAt(i, w.Left, w.Rows, w.Cost, uint16(w.Op)<<8&metaOp)
}

// insert returns the slot of s, claiming it if s is new; the hash layout
// grows first when that would push it past load 0.7.
//
//mpdp:hotpath
func (t *Table) insert(s bitset.Mask) int {
	if s == 0 || uint64(s)>>t.n != 0 {
		panic("plan: Table cannot store the empty set or a relation outside its query")
	}
	if t.keys != nil && 10*(t.used+1) > 7*len(t.keys) {
		t.grow()
	}
	if t.keys == nil {
		w, b := &t.present[s>>6], uint64(1)<<(s&63)
		if *w&b == 0 {
			*w |= b
			t.used++
		}
		return int(s)
	}
	i := t.slot(s)
	if t.keys[i] == 0 {
		t.keys[i] = s
		t.used++
	}
	return i
}

//mpdp:hotpath
func (t *Table) setAt(i int, left bitset.Mask, rows, cost float64, meta uint16) {
	t.cost[i] = cost
	t.cold[i] = tcold{
		rows: rows,
		lg:   math.Log2(AtLeast(rows, 2)),
		left: left,
		meta: meta,
	}
}

// AtLeast is math.Max(x, floor) for a positive finite floor, to the bit —
// +Inf stays +Inf, any NaN becomes math.NaN()'s canonical pattern, ±0 and
// -Inf become floor — but inlined: math.Max is assembly Go cannot inline,
// a call per costed pair, and the builtin max keeps a NaN's payload.
//
//mpdp:hotpath
func AtLeast(x, floor float64) float64 {
	if x >= floor {
		return x
	}
	if x != x {
		return math.NaN()
	}
	return floor
}

// grow doubles the hash layout, or moves the table to the direct layout
// when the doubled one would take at least 2^n slots.
func (t *Table) grow() {
	old := *t
	// The old arrays are read while the new ones fill: nothing to recycle.
	t.cost, t.cold, t.keybuf, t.present = nil, nil, nil, nil
	t.alloc(len(old.keys) * 2)
	for i, k := range old.keys {
		if k != 0 {
			j := t.insert(k)
			t.cost[j], t.cold[j] = old.cost[i], old.cold[i]
		}
	}
}

// Build materializes the plan tree recorded for set s: interior nodes come
// from the arena, base entries resolve to the prepared per-relation plans
// (leaves[i] is the plan of singleton set {i}). It returns nil when s is
// not in the table.
func (t *Table) Build(s bitset.Mask, leaves []*Node, a *Arena) *Node {
	e, ok := t.Get(s)
	if !ok {
		return nil
	}
	if e.Left == 0 {
		return leaves[s.Lowest()]
	}
	l := t.Build(e.Left, leaves, a)
	r := t.Build(e.Right, leaves, a)
	if l == nil || r == nil {
		return nil
	}
	return a.NewNode(s, l, r, e.Op, e.Rows, e.Cost)
}
