package httpapi

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/workload"
)

// TestShedUnderCancellation pins the interaction the admission queue must
// get right: a client that disconnects while its request is parked waiting
// for a queue slot must release cleanly — no queue slot may leak, no
// heuristic fallback may fire, and the worker pool must stay serviceable.
//
// Setup: one worker, a one-deep queue, and a long MaxQueueWait. Request A
// occupies the worker with an exact enumeration that outlasts the test
// (wedgeConfig), request B fills the queue, request C is left blocked on
// admission — then C hangs up.
func TestShedUnderCancellation(t *testing.T) {
	cfg := wedgeConfig()
	cfg.QueueDepth = 1
	cfg.Admission = service.Admission{MaxQueueWait: 30 * time.Second}
	svc := service.New(cfg)
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(New(ServiceEngine(svc), Options{}).Mux())
	t.Cleanup(ts.Close)

	launch := func(n int) (cancel context.CancelFunc, done chan error) {
		ctx, c := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/optimize",
			strings.NewReader(workload.CliqueSQL(n)))
		if err != nil {
			t.Fatal(err)
		}
		done = make(chan error, 1)
		go func() {
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
		return c, done
	}

	cancelA, doneA := launch(workload.WedgeRelations)
	// Wait until A is on the worker and B is queued: two requests have
	// entered the queue, one has been popped.
	cancelB, doneB := launch(workload.WedgeRelations + 1)
	waitFor := func(cond func(service.Snapshot) bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if cond(svc.Counters().Snapshot()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s; snapshot: %+v", what, svc.Counters().Snapshot())
	}
	waitFor(func(s service.Snapshot) bool { return s.Queued == 2 && s.QueueDepth == 1 },
		"A on the worker and B in the queue")

	// C: the queue is full, so its enqueue parks on admission.
	cancelC, doneC := launch(workload.WedgeRelations + 2)
	time.Sleep(200 * time.Millisecond) // let C reach the blocked select
	cancelC()
	select {
	case err := <-doneC:
		if err == nil {
			t.Fatal("cancelled queued request returned a response")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not unblock after cancelling its queued request")
	}

	// The queue slot was never C's: depth still 1 (B), nothing leaked.
	if s := svc.Counters().Snapshot(); s.QueueDepth != 1 {
		t.Errorf("queue_depth = %d after cancelling the parked request, want 1", s.QueueDepth)
	}

	// Release the worker and drain B's dead flight.
	cancelA()
	cancelB()
	<-doneA
	<-doneB
	waitFor(func(s service.Snapshot) bool { return s.QueueDepth == 0 },
		"the queue to drain after cancellations")

	// The pool must be fully serviceable again: a real statement completes
	// exactly, without heuristic fallback.
	resp, err := http.Post(ts.URL+"/v1/optimize", "text/plain", strings.NewReader(testStatement))
	if err != nil {
		t.Fatalf("worker wedged after shed-under-cancellation: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status = %d, want 200", resp.StatusCode)
	}

	s := svc.Counters().Snapshot()
	if s.Canceled < 3 {
		t.Errorf("canceled = %d, want >= 3 (A, B and C all hung up)", s.Canceled)
	}
	if s.Fallbacks != 0 {
		t.Errorf("fallbacks = %d, want 0 — cancellation must not trip the heuristic", s.Fallbacks)
	}
	if s.Shed != 0 {
		t.Errorf("shed = %d, want 0 — cancellation is not overload", s.Shed)
	}
	if s.Errors != 0 {
		t.Errorf("errors = %d, want 0", s.Errors)
	}
}
