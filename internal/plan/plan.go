// Package plan defines join-tree plans and the memo the dynamic programs
// store their best sub-plans in: Table, a struct-of-arrays DP table that is
// direct-addressed where the connected-set census is dense and the paper's
// §5 open-addressing Murmur3 hash table where it is sparse, and Memo, the
// Go-map reference Table is differentially tested against.
package plan

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/bitset"
)

// Op identifies a physical join operator chosen by the cost model.
type Op uint8

// Join operator kinds.
const (
	OpScan Op = iota
	OpHashJoin
	OpNestLoop
	OpIndexNestLoop
	OpMergeJoin
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpScan:
		return "Scan"
	case OpHashJoin:
		return "HashJoin"
	case OpNestLoop:
		return "NestLoop"
	case OpIndexNestLoop:
		return "IndexNLJoin"
	case OpMergeJoin:
		return "MergeJoin"
	}
	return "?"
}

// Node is a node of a (bushy) join tree. Leaves have Left == Right == nil
// and RelID set; inner nodes join Left and Right with operator Op.
//
// Set is the bitmap of base relations under the node in the local index
// space of the query being optimized (valid for queries of <= 64 relations;
// the heuristic layer re-derives sets from leaves where needed).
type Node struct {
	Set   bitset.Mask
	RelID int
	Left  *Node
	Right *Node
	Op    Op

	Rows float64 // estimated output cardinality
	Cost float64 // estimated total cost (includes child costs)
}

// IsLeaf reports whether n scans a base relation.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Relations returns the set of base relation ids under n by walking the
// tree. For DP-produced plans this equals n.Set, but heuristic plans over
// large graphs rely on this method.
func (n *Node) Relations() []int {
	var out []int
	var walk func(*Node)
	walk = func(m *Node) {
		if m == nil {
			return
		}
		if m.IsLeaf() {
			out = append(out, m.RelID)
			return
		}
		walk(m.Left)
		walk(m.Right)
	}
	walk(n)
	return out
}

// Size returns the number of leaves under n.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return n.Left.Size() + n.Right.Size()
}

// Depth returns the height of the tree (1 for a leaf).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// IsLeftDeep reports whether every right child is a leaf.
func (n *Node) IsLeftDeep() bool {
	for !n.IsLeaf() {
		if !n.Right.IsLeaf() {
			return false
		}
		n = n.Left
	}
	return true
}

// String renders the join tree in a compact LISP-ish form with costs.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, nil)
	return b.String()
}

// Explain renders an indented EXPLAIN-style tree using names[i] as the name
// of relation i (nil names fall back to indices).
func (n *Node) Explain(names []string) string {
	// Rendered into recycled scratch, so the returned string is the call's
	// one allocation.
	sp := explainScratch.Get().(*[]byte)
	buf := n.explain((*sp)[:0], names, 0)
	s := string(buf)
	if cap(buf) <= maxPooledExplain {
		*sp = buf
		explainScratch.Put(sp)
	}
	return s
}

// explainScratch recycles Explain's render buffers. One that a 1000-relation
// plan grew past maxPooledExplain is dropped instead, so a rare huge plan
// pins nothing.
var explainScratch = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledExplain = 64 << 10

func (n *Node) write(b *strings.Builder, names []string) {
	if n.IsLeaf() {
		if names != nil {
			b.WriteString(names[n.RelID])
		} else {
			fmt.Fprintf(b, "R%d", n.RelID)
		}
		return
	}
	b.WriteByte('(')
	n.Left.write(b, names)
	b.WriteString(" ⋈ ")
	n.Right.write(b, names)
	b.WriteByte(')')
}

// explain appends n's subtree to buf. It renders with strconv.Append*
// rather than fmt: Explain runs on every /v1/explain answer, and fmt's
// boxing of each operand was a tenth of a warm hit's CPU.
func (n *Node) explain(buf []byte, names []string, indent int) []byte {
	for i := 0; i < indent; i++ {
		buf = append(buf, "  "...)
	}
	if n.IsLeaf() {
		buf = append(buf, "Scan "...)
		if names != nil {
			buf = append(buf, names[n.RelID]...)
		} else {
			buf = append(buf, 'R')
			buf = strconv.AppendInt(buf, int64(n.RelID), 10)
		}
	} else {
		buf = append(buf, n.Op.String()...)
	}
	buf = append(buf, "  (rows="...)
	buf = appendFixed(buf, n.Rows, 0)
	buf = append(buf, " cost="...)
	buf = appendFixed(buf, n.Cost, 1)
	buf = append(buf, ")\n"...)
	if n.IsLeaf() {
		return buf
	}
	buf = n.Left.explain(buf, names, indent+1)
	return n.Right.explain(buf, names, indent+1)
}

// pow10 holds the powers of ten appendFixed counts integer digits against;
// each is exactly representable in a float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16}

// appendFixed appends v exactly as strconv.AppendFloat(buf, v, 'f', prec, 64)
// does, without strconv's arbitrary-precision path: 'f' with a precision
// never takes the Ryu fast path, 'e' with up to 18 significant digits does.
// For 1 <= v < 1e16 the comparisons against pow10 give the number nd of
// integer digits exactly, so 'e' with nd+prec significant digits rounds the
// same exact value at the same decimal position (10^-prec) under the same
// rule (strconv's correct rounding, ties to even) — the digits are the
// same and only the point moves. A rounding that carries into a new leading
// digit (999.96 -> 1.000e+03) shows as a raised exponent and renders as
// 10^nd. Everything else (v < 1, v >= 1e16, NaN, ±Inf, -0) takes the 'f'
// path.
//
//mpdp:hotpath
func appendFixed(buf []byte, v float64, prec int) []byte {
	if !(v >= 1 && v < 1e16) || prec > 2 {
		return strconv.AppendFloat(buf, v, 'f', prec, 64)
	}
	nd := 1
	for v >= pow10[nd] {
		nd++
	}
	start := len(buf)
	buf = strconv.AppendFloat(buf, v, 'e', nd+prec-1, 64)
	s := buf[start:] // d[.ddd]e+XX, nd+prec digits
	if exp := int(s[len(s)-2]-'0')*10 + int(s[len(s)-1]-'0'); exp != nd-1 {
		const zeros = "0000000000000000"
		buf = append(append(buf[:start], '1'), zeros[:nd]...)
		if prec > 0 {
			buf = append(append(buf, '.'), zeros[:prec]...)
		}
		return buf
	}
	// Move the point from behind the first digit to behind the nd-th; the
	// fraction digits are already where they belong.
	copy(s[1:nd], s[2:])
	if prec == 0 {
		return buf[:start+nd]
	}
	s[nd] = '.'
	return buf[:start+nd+1+prec]
}

// Validate checks structural plan invariants against the expected relation
// set: every base relation appears exactly once as a leaf and inner nodes
// partition their children's sets. It returns a descriptive error on the
// first violation. DP plans additionally carry consistent Set fields.
func (n *Node) Validate(expected []int) error {
	want := make(map[int]bool, len(expected))
	for _, r := range expected {
		want[r] = true
	}
	seen := make(map[int]bool)
	var walk func(*Node) error
	walk = func(m *Node) error {
		if m == nil {
			return fmt.Errorf("plan: nil node")
		}
		if m.IsLeaf() {
			if seen[m.RelID] {
				return fmt.Errorf("plan: relation %d appears twice", m.RelID)
			}
			if !want[m.RelID] {
				return fmt.Errorf("plan: unexpected relation %d", m.RelID)
			}
			seen[m.RelID] = true
			return nil
		}
		if m.Left == nil || m.Right == nil {
			return fmt.Errorf("plan: inner node with missing child")
		}
		if err := walk(m.Left); err != nil {
			return err
		}
		return walk(m.Right)
	}
	if err := walk(n); err != nil {
		return err
	}
	if len(seen) != len(want) {
		return fmt.Errorf("plan: covers %d relations, want %d", len(seen), len(want))
	}
	return nil
}
