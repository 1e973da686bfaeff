package service

import (
	"repro/internal/bitset"
	"repro/internal/plan"
)

// remapPlan rewrites a plan tree through the index permutation
// m[oldIndex] = newIndex, producing a fresh tree (cached plans are shared,
// so callers always receive their own copy). Set masks are rebuilt for
// queries of at most 64 relations and left zero beyond that, matching the
// plan.Node contract that heuristic-scale plans re-derive sets from leaves.
//
// This is the warm path of every cache hit, so the copy is bump-allocated
// from one contiguous node slab (plan trees are full binary: 2·leaves − 1
// nodes) instead of one heap object per node.
func remapPlan(p *plan.Node, m []int) *plan.Node {
	if p == nil {
		return nil
	}
	small := len(m) <= 64
	slab := make([]plan.Node, 0, 2*p.Size()-1)
	var walk func(*plan.Node) *plan.Node
	walk = func(n *plan.Node) *plan.Node {
		slab = append(slab, plan.Node{Op: n.Op, Rows: n.Rows, Cost: n.Cost})
		out := &slab[len(slab)-1]
		if n.IsLeaf() {
			out.RelID = m[n.RelID]
			if small {
				out.Set = bitset.Single(out.RelID)
			}
			return out
		}
		out.Left = walk(n.Left)
		out.Right = walk(n.Right)
		if small {
			out.Set = out.Left.Set.Union(out.Right.Set)
		}
		return out
	}
	return walk(p)
}

// invert returns the inverse permutation of m.
func invert(m []int) []int {
	inv := make([]int, len(m))
	for i, v := range m {
		inv[v] = i
	}
	return inv
}
