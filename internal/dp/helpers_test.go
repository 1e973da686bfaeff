package dp

import (
	"context"
	"time"

	"repro/internal/plan"
)

// spentBudget returns a context whose time budget ran out an hour ago: its
// cause is ErrTimeout, as core.Optimize sets it.
func spentBudget() context.Context {
	ctx, cancel := context.WithTimeoutCause(context.Background(), -time.Hour, ErrTimeout)
	cancel() // already done: the cause stays ErrTimeout
	return ctx
}

// referenceLevels is the plain per-set loop the level driver (RunLevels)
// must agree with at any worker count: the census, then every set of every
// level in census order, evaluated on the calling goroutine and stored with
// Put, then finish. It shares nothing with Levels — no claims, no shares, no
// in-place writes — so it can tell a defect of the driver from one of the
// evaluators.
func referenceLevels(in Input, evaluate SetEvaluator) (*plan.Node, Stats, error) {
	var stats Stats
	prep, err := prepare(in)
	if err != nil {
		return nil, stats, err
	}
	buckets, err := ConnectedBuckets(in)
	if err != nil {
		return nil, stats, err
	}
	tab := prep.seed(BucketCount(buckets))
	stats.ConnectedSets = uint64(in.Q.N())
	dl, sc := in.NewDeadline(), new(Scratch)
	for _, sets := range buckets[2:] {
		for _, s := range sets {
			win, st, err := evaluate(in, tab, s, dl, sc)
			stats.Add(st)
			if err != nil {
				return nil, stats, err
			}
			stats.ConnectedSets++
			if win.Found {
				tab.Put(s, win)
			}
		}
	}
	return finish(in, tab, prep.leaves, &stats)
}

// referenceMPDP is MPDP over referenceLevels, with its own choice of
// evaluator: Algorithm 2 on a tree, Algorithm 3 otherwise.
func referenceMPDP(in Input) (*plan.Node, Stats, error) {
	if in.Q.G.IsTree() {
		return referenceLevels(in.ForTree(), EvaluateSetMPDPTree)
	}
	return referenceLevels(in, EvaluateSetMPDP)
}
