package service

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/workload"
)

func TestTokenBucketRefillAndRetryHint(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewTokenBucket(10, 2) // 10/s, burst 2, starts full

	if ok, _ := b.Allow(t0, 1); !ok {
		t.Fatal("full bucket denied the first token")
	}
	if ok, _ := b.Allow(t0, 1); !ok {
		t.Fatal("burst-2 bucket denied the second token")
	}
	ok, retry := b.Allow(t0, 1)
	if ok {
		t.Fatal("empty bucket admitted a token")
	}
	// One token refills in 100ms at 10/s.
	if retry <= 0 || retry > 110*time.Millisecond {
		t.Errorf("retry hint = %v, want ~100ms", retry)
	}
	// After 150ms one token is back; a second is not.
	t1 := t0.Add(150 * time.Millisecond)
	if ok, _ := b.Allow(t1, 1); !ok {
		t.Error("bucket did not refill after 150ms at 10/s")
	}
	if ok, _ := b.Allow(t1, 1); ok {
		t.Error("bucket over-refilled")
	}
	// A long idle stretch must clamp at burst, not accumulate.
	t2 := t1.Add(time.Hour)
	if ok, _ := b.Allow(t2, 3); ok {
		t.Error("bucket exceeded its burst after idling")
	}
	if ok, _ := b.Allow(t2, 2); !ok {
		t.Error("bucket lost its burst capacity")
	}
}

func TestRateCapShedsWithErrOverloaded(t *testing.T) {
	svc := New(Config{Workers: 1, Admission: Admission{RatePerSec: 0.001}})
	defer svc.Close()
	q := workload.MusicBrainzQuery(6, rand.New(rand.NewSource(1)))

	if _, err := svc.Optimize(context.Background(), q); err != nil {
		t.Fatalf("burst-funded request failed: %v", err)
	}
	_, err := svc.Optimize(context.Background(), q)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	s := svc.Counters().Snapshot()
	if s.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Shed)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d, want 0 (a shed is not an error)", s.Errors)
	}
}

func TestDeadlineAwareShedRejectsDoomedRequests(t *testing.T) {
	svc := New(Config{Workers: 1})
	defer svc.Close()
	// A deadline already in the past cannot outlive any queue delay: the
	// request is shed before burning a queue slot or a worker run.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := workload.MusicBrainzQuery(6, rand.New(rand.NewSource(2)))
	_, err := svc.Optimize(ctx, q)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded for an already-expired deadline", err)
	}
	if s := svc.Counters().Snapshot(); s.Shed != 1 {
		t.Errorf("shed = %d, want 1", s.Shed)
	}
}

func TestImmediateShedWhenQueueFull(t *testing.T) {
	// MaxQueueWait < 0: a full queue sheds instantly instead of blocking.
	svc := New(Config{
		Workers:    1,
		QueueDepth: 1,
		Timeout:    time.Hour,
		Admission:  Admission{MaxQueueWait: -1},
	})
	defer svc.Close()

	// A near-clique of 17 relations, planned exactly on cpu-parallel, holds
	// the worker for seconds (about 3^17 csg-cmp pairs) until its context is
	// cancelled; anything costed in milliseconds lets the queue drain
	// between two polls of this test.
	big := func(seed int64) func() {
		q := withEdges(workload.Clique(17, rand.New(rand.NewSource(seed))), 0, 16, false)
		ctx, cancel := context.WithCancel(context.Background())
		go svc.Optimize(ctx, q)
		return cancel
	}
	stopA := big(1)
	defer stopA()
	// Wait for A on the worker, then fill the queue with B.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Counters().Snapshot().Queued < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stopB := big(2)
	defer stopB()
	for svc.Counters().Snapshot().QueueDepth < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	q := workload.Cycle(40, rand.New(rand.NewSource(3)))
	_, err := svc.Optimize(context.Background(), q)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want immediate ErrOverloaded with a full queue", err)
	}
}
