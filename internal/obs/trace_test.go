package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTraceNilSafety(t *testing.T) {
	// The whole point of the nil-receiver contract: uninstrumented paths
	// call every method on a nil trace without panicking or allocgarbage.
	var tr *Trace
	done := tr.StartSpan(PhaseEnumerate)
	done()
	tr.ObserveSince(PhaseQueueWait, time.Now())
	tr.ObserveSim(PhaseGPULaunch, time.Millisecond)
	if tr.Spans() != nil || tr.WallUS() != 0 || tr.WallSpanSumUS() != 0 || tr.RequestID() != "" {
		t.Fatal("nil trace must observe nothing")
	}
	if got := FromContext(context.Background()); got != nil {
		t.Fatalf("FromContext on bare context = %v, want nil", got)
	}
	if got := FromContext(nil); got != nil { //nolint:staticcheck // nil ctx is the contract under test
		t.Fatalf("FromContext(nil) = %v, want nil", got)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := NewTrace("req-42")
	ctx := WithTrace(context.Background(), tr)
	got := FromContext(ctx)
	if got != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if got.RequestID() != "req-42" {
		t.Fatalf("RequestID = %q", got.RequestID())
	}

	done := got.StartSpan(PhaseCacheProbe)
	time.Sleep(2 * time.Millisecond)
	done()
	got.ObserveSim(PhaseGPULaunch, 7*time.Millisecond)

	spans := got.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Phase != PhaseCacheProbe || spans[0].Sim {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[0].DurUS < 1000 {
		t.Fatalf("cache_probe span %vus, slept 2ms", spans[0].DurUS)
	}
	if spans[1].Phase != PhaseGPULaunch || !spans[1].Sim || spans[1].DurUS != 7000 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	// Sim time stays out of the wall decomposition: the sum is exactly the
	// one wall span, however long the sleep overran on a loaded host.
	if sum := got.WallSpanSumUS(); sum != spans[0].DurUS {
		t.Fatalf("WallSpanSumUS %v, want the cache_probe span's %v: sim time included", sum, spans[0].DurUS)
	}
	if wall := got.WallUS(); wall < spans[0].DurUS {
		t.Fatalf("wall %vus below span duration %vus", wall, spans[0].DurUS)
	}
}

func TestTraceConcurrentRecording(t *testing.T) {
	// A coalesced flight records from the worker goroutine while followers
	// record their own waits; run under -race this is the real test.
	tr := NewTrace("concurrent")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.ObserveSince(PhaseCoalesceWait, time.Now())
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Spans()); n != 800 {
		t.Fatalf("got %d spans, want 800", n)
	}
}
