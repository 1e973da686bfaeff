package plan

import "repro/internal/bitset"

// Arena bump-allocates plan nodes in chunks so that materializing a plan
// tree costs one slice allocation per chunk instead of one heap object per
// node, and a whole query's nodes are freed (or recycled) wholesale.
//
// The DP inner loops never materialize nodes at all (they work on the
// value-typed Table entries); the arena serves the one materialization
// point, Table.Build at the end of a run. Reset rewinds the arena while
// keeping its first chunk — a full plan over 64 relations is 63 join nodes —
// so materialization on a recycled arena performs no heap allocation at
// all, and a recycled arena never holds more than that chunk.
//
// Nobody outside a dp.Workspace makes one: the arena is part of the memory
// a run borrows from its owner, rewound when the owner's next run begins.
// Nodes handed out remain valid until then, so whoever keeps a tree past
// its run copies it first (the heuristics splice, the service remaps into
// the cache entry). Not safe for concurrent use.
type Arena struct {
	chunks [][]Node // chunks[i] has len = nodes handed out, cap = chunk size
	ci     int      // index of the active chunk
}

// arenaChunk is the node count of each newly allocated chunk (~28 KiB).
const arenaChunk = 512

// NewArena returns an empty arena. The zero value is also ready to use.
func NewArena() *Arena { return &Arena{} }

// New returns a pointer to a zeroed node from the arena.
//
//mpdp:hotpath
func (a *Arena) New() *Node {
	for {
		if a.ci == len(a.chunks) {
			a.chunks = append(a.chunks, make([]Node, 0, arenaChunk))
		}
		c := a.chunks[a.ci]
		if len(c) == cap(c) {
			a.ci++ // chunk exhausted; the next one is empty or fresh
			continue
		}
		c = c[:len(c)+1]
		a.chunks[a.ci] = c
		n := &c[len(c)-1]
		*n = Node{}
		return n
	}
}

// NewNode returns an arena node initialized as an inner join node.
//
//mpdp:hotpath
func (a *Arena) NewNode(set bitset.Mask, left, right *Node, op Op, rows, cost float64) *Node {
	n := a.New()
	n.Set = set
	n.Left = left
	n.Right = right
	n.Op = op
	n.Rows = rows
	n.Cost = cost
	return n
}

// Reset rewinds the arena, invalidating every node it has handed out. The
// first chunk is kept for the next run; chunks beyond it (only more than
// arenaChunk nodes between two resets get there) are released.
//
//mpdp:hotpath
func (a *Arena) Reset() {
	if len(a.chunks) > 0 {
		clear(a.chunks[1:])
		a.chunks = a.chunks[:1]
		a.chunks[0] = a.chunks[0][:0]
	}
	a.ci = 0
}

// Len returns the number of live nodes handed out since the last Reset.
func (a *Arena) Len() int {
	live := 0
	for _, c := range a.chunks {
		live += len(c)
	}
	return live
}
