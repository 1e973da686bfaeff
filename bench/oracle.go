package bench

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/heuristic"
)

// The oracle never goes through the path under test: exact references come
// from dp.DPCCP called directly, heuristic ones from the two baselines the
// paper compares against (GOO and adaptive LinDP), and every returned plan
// is re-read from its rendered tree and checked against the join graph.

const costTol = 1e-9 // relative tolerance of a cost comparison

// baselineSlack is how far above the better heuristic baseline a served
// plan may cost and still count as matching it. IDP2's snowflake plans tie
// with GOO's to within a few percent either way; without the slack each
// such query is a coin flip and the matched share moves with the seed.
const baselineSlack = 0.1

// exactReference is the optimal plan cost of q.
func exactReference(q *cost.Query) (float64, error) {
	p, _, err := dp.DPCCP(dp.Input{Q: q, M: cost.DefaultModel()})
	if err != nil {
		return 0, err
	}
	return p.Cost, nil
}

// baselineReference is min(GOO, LinDP), the better of the two heuristic
// baselines: a served cost ratio below 1 means the MPDP-based heuristic
// beat both.
func baselineReference(q *cost.Query) (float64, error) {
	opt := heuristic.Options{Model: cost.DefaultModel()}
	goo, err := heuristic.GOO(q, opt)
	if err != nil {
		return 0, err
	}
	lin, err := heuristic.Adaptive(q, opt)
	if err != nil {
		return 0, err
	}
	return math.Min(goo.Cost, lin.Cost), nil
}

// computeReferences fills in ref for every op on all cores. first lists ops
// to start with (the expensive ones), so they do not end up alone at the
// tail. An op listed more than once (a replayed pool query) is computed
// once; twins take their base's reference.
func computeReferences(first, rest []*op, exact bool) error {
	var todo, twins []*op
	seen := make(map[*op]bool, len(first)+len(rest))
	for _, o := range append(append([]*op(nil), first...), rest...) {
		switch {
		case seen[o]:
		case o.base != nil:
			twins = append(twins, o)
			if !seen[o.base] { // a pool query the stream never asks as it is
				seen[o.base] = true
				todo = append(todo, o.base)
			}
		default:
			todo = append(todo, o)
		}
		seen[o] = true
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1)) - 1
				if i >= len(todo) {
					return
				}
				o := todo[i]
				var err error
				if exact {
					o.ref, err = exactReference(o.q)
				} else {
					o.ref, err = baselineReference(o.q)
				}
				o.exactRef = exact
				if err != nil {
					errs[w] = fmt.Errorf("reference for %s: %w", o.label, err)
				}
			}
		}()
	}
	wg.Wait()
	for _, o := range twins {
		o.ref, o.exactRef = o.base.ref, o.base.exactRef
	}
	return errors.Join(errs...)
}

// checkDistinct fails when two ops that must each miss the cache share a
// fingerprint: the second would be a hit and measure nothing.
func checkDistinct(ops []*op) error {
	seen := make(map[string]*op, len(ops))
	for _, o := range ops {
		if o.base != nil || o.class == "replay" {
			continue
		}
		if prev, dup := seen[o.fp]; dup {
			return fmt.Errorf("harness: %s and %s share fingerprint %s", prev.label, o.label, o.fp)
		}
		seen[o.fp] = o
	}
	return nil
}

// costAgrees reports whether got equals want within the tolerance.
func costAgrees(got, want float64) bool {
	return math.Abs(got-want) <= costTol*math.Max(math.Abs(got), math.Abs(want))
}

// checkAnswer compares one served cost with the op's reference. An exact
// answer must equal the optimum; a fallback answer may not beat it; against
// a heuristic baseline any cost is acceptable (the ratio is the metric).
func checkAnswer(o *op, servedCost float64, fellBack bool) error {
	if !o.exactRef {
		return nil
	}
	if costAgrees(servedCost, o.ref) {
		return nil
	}
	if fellBack && servedCost > o.ref {
		return nil
	}
	return fmt.Errorf("%s: served cost %.17g, reference %.17g", o.label, servedCost, o.ref)
}

// checkPlan validates a plan as rendered by Explain against q: every
// relation is scanned exactly once, and every join has a predicate between
// its two sides (no cross product on a connected graph).
func checkPlan(q *cost.Query, explain string) error {
	idx := make(map[string]int, q.N())
	for i, name := range q.Names() {
		idx[name] = i
	}
	lines := strings.Split(strings.TrimRight(explain, "\n"), "\n")
	if len(lines) != 2*q.N()-1 {
		return fmt.Errorf("plan has %d nodes, want %d", len(lines), 2*q.N()-1)
	}
	side := make([]int, q.N()) // side[v] == id of the join whose larger input holds v
	seen := make([]bool, q.N())
	pos, nodeID := 0, 0
	// parse consumes the subtree at lines[pos] with the given indent and
	// returns its leaves.
	var parse func(indent int) ([]int, error)
	parse = func(indent int) ([]int, error) {
		if pos >= len(lines) {
			return nil, fmt.Errorf("plan ends early")
		}
		line := lines[pos]
		body := strings.TrimLeft(line, " ")
		if len(line)-len(body) != 2*indent {
			return nil, fmt.Errorf("line %d: indent %d, want %d", pos+1, len(line)-len(body), 2*indent)
		}
		pos++
		if name, ok := strings.CutPrefix(body, "Scan "); ok {
			name, _, _ = strings.Cut(name, "  (")
			v, known := idx[name]
			if !known {
				return nil, fmt.Errorf("plan scans unknown relation %q", name)
			}
			if seen[v] {
				return nil, fmt.Errorf("plan scans %q twice", name)
			}
			seen[v] = true
			return []int{v}, nil
		}
		nodeID++
		id := nodeID
		left, err := parse(indent + 1)
		if err != nil {
			return nil, err
		}
		right, err := parse(indent + 1)
		if err != nil {
			return nil, err
		}
		// Mark the larger side, scan the smaller one's neighbours.
		small, large := left, right
		if len(small) > len(large) {
			small, large = large, small
		}
		for _, v := range large {
			side[v] = id
		}
		joined := false
		for _, v := range small {
			for _, u := range q.G.Neighbors(v) {
				if side[u] == id {
					joined = true
				}
			}
		}
		if !joined {
			return nil, fmt.Errorf("cross product at plan line %d", pos)
		}
		return append(left, right...), nil
	}
	leaves, err := parse(0)
	if err != nil {
		return err
	}
	if pos != len(lines) || len(leaves) != q.N() {
		return fmt.Errorf("plan covers %d of %d relations", len(leaves), q.N())
	}
	return nil
}
