package optimizer

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/service"
)

// slowThenFastServers returns two endpoints over one shared service: the
// first delays every response, the second answers immediately.
func slowThenFastServers(t *testing.T, delay time.Duration) (slow, fast string, slowHits, fastHits *atomic.Int64) {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	mux := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux()

	slowHits, fastHits = new(atomic.Int64), new(atomic.Int64)
	slowTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slowHits.Add(1)
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(slowTS.Close)
	fastTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fastHits.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(fastTS.Close)
	return slowTS.URL, fastTS.URL, slowHits, fastHits
}

// TestRemoteHedgesPastSlowNode: with a short hedge delay, a slow first
// endpoint is raced by the second and the fast answer wins long before the
// slow node responds.
func TestRemoteHedgesPastSlowNode(t *testing.T) {
	slow, fast, slowHits, fastHits := slowThenFastServers(t, 20*time.Second)
	r, err := Remote(RemoteConfig{
		Endpoints:  []string{slow, fast},
		HedgeDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	start := time.Now()
	res, err := r.Optimize(context.Background(), Chain(6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("hedged request took %v; the slow node was waited on", elapsed)
	}
	if res.Cost <= 0 {
		t.Fatal("no result")
	}
	// Note: the request counter rotation means either endpoint may be hit
	// first; over two calls both must have been contacted at least once
	// and the overall latency stays bounded by the hedge delay.
	if _, err := r.Optimize(context.Background(), Chain(7, 1)); err != nil {
		t.Fatal(err)
	}
	if slowHits.Load() == 0 || fastHits.Load() == 0 {
		t.Errorf("hedging never contacted both endpoints: slow=%d fast=%d", slowHits.Load(), fastHits.Load())
	}
}

// TestRemoteFailsOverDeadNode: a refused connection on the first endpoint
// triggers an immediate attempt on the next, well before the hedge delay.
func TestRemoteFailsOverDeadNode(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	live := httptest.NewServer(httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux())
	t.Cleanup(live.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on

	r, err := Remote(RemoteConfig{
		Endpoints:  []string{deadURL, live.URL},
		HedgeDelay: time.Hour, // failure-driven failover must not wait for it
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Run enough requests that the rotation starts on the dead node too.
	for i := 0; i < 4; i++ {
		start := time.Now()
		res, err := r.Optimize(context.Background(), Chain(5+i, 1))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if res.Cost <= 0 {
			t.Fatalf("request %d: empty result", i)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("request %d took %v despite failure-driven failover", i, elapsed)
		}
	}
}

// TestRemoteTerminalErrorDoesNotRetry: a deterministic rejection (bad SQL
// → 422) is returned immediately instead of being retried on every node.
func TestRemoteTerminalErrorDoesNotRetry(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	var hits atomic.Int64
	mux := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux()
	counted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(counted.Close)

	r, err := Remote(RemoteConfig{Endpoints: []string{counted.URL, counted.URL}, HedgeDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// A disconnected graph is rejected deterministically with 422.
	b := NewQueryBuilder()
	b.Relation("a", RelStats{Rows: 10})
	b.Relation("b", RelStats{Rows: 10})
	q, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Optimize(context.Background(), q)
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusUnprocessableEntity {
		t.Fatalf("err = %v, want 422 RemoteError", err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("terminal error hit the servers %d times, want 1", got)
	}
}

// TestRemoteAllNodesDown: every endpoint failing yields a joined error,
// not a hang.
func TestRemoteAllNodesDown(t *testing.T) {
	dead1 := httptest.NewServer(http.NotFoundHandler())
	u1 := dead1.URL
	dead1.Close()
	dead2 := httptest.NewServer(http.NotFoundHandler())
	u2 := dead2.URL
	dead2.Close()

	r, err := Remote(RemoteConfig{Endpoints: []string{u1, u2}, HedgeDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := r.Optimize(ctx, Chain(4, 1)); err == nil {
		t.Fatal("all-nodes-down request succeeded")
	}
}

// TestRemoteContextCancellation: cancelling the caller context unblocks
// the driver even while all endpoints hang.
func TestRemoteContextCancellation(t *testing.T) {
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms its client-disconnect watcher,
		// then hang until the client goes away.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(hang.Close)
	r, err := Remote(RemoteConfig{Endpoints: []string{hang.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = r.Optimize(ctx, Chain(4, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancellation did not unblock the driver promptly")
	}
}

// TestRemoteResponseLimits: a response over the 16 MiB bound is the same
// error whether its length was declared or it arrived chunked, and a body
// that ends short of its declared length is an error even when the bytes
// that did arrive are a complete JSON document — never a half-filled Result.
func TestRemoteResponseLimits(t *testing.T) {
	const truncated = `{"relations":3,"edges":3,"cost":42,"rows":7,"algorithm":"DPCCP","fingerprint":"v2:abc"}`
	cases := []struct {
		name    string
		handler http.HandlerFunc
		want    error
	}{
		{"declared over the limit", func(w http.ResponseWriter, r *http.Request) {
			// The client refuses on the header; the body is never sent.
			w.Header().Set("Content-Length", strconv.Itoa(maxResponseBytes+1))
			w.WriteHeader(http.StatusOK)
		}, httpapi.ErrBodyTooLarge},
		{"chunked over the limit", func(w http.ResponseWriter, r *http.Request) {
			chunk := bytes.Repeat([]byte(" "), 1<<20)
			for sent := 0; sent <= maxResponseBytes; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return
				}
				w.(http.Flusher).Flush()
			}
		}, httpapi.ErrBodyTooLarge},
		{"shorter than declared", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(truncated)+100))
			io.WriteString(w, truncated)
		}, io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.handler)
			defer ts.Close()
			r, err := Remote(RemoteConfig{Endpoints: []string{ts.URL}})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			res, err := r.Optimize(context.Background(), MusicBrainz(5, 1))
			if res != nil || !errors.Is(err, tc.want) {
				t.Errorf("Optimize = %+v, %v; want no result and %v", res, err, tc.want)
			}
			var re *RemoteError
			if errors.As(err, &re) {
				t.Errorf("a transport-level failure surfaced as a server envelope: %v", re)
			}
		})
	}
}

// TestRemoteDecodesAnotherVersionsAnswer: a server that adds a field this
// SDK has never heard of is still understood — httpapi's own decoder
// refuses the body and encoding/json, the decoder of record, takes it.
func TestRemoteDecodesAnotherVersionsAnswer(t *testing.T) {
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	mux := httpapi.New(httpapi.ServiceEngine(svc), httpapi.Options{}).Mux()
	var extended atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if extended.Load() {
			body = append([]byte(`{"added_in_v3":{"why":[1,2]},`), body[1:]...)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer ts.Close()
	r, err := Remote(RemoteConfig{Endpoints: []string{ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	q := MusicBrainz(9, 4)
	if _, err := r.Optimize(context.Background(), q, WithExplain()); err != nil { // plans it
		t.Fatal(err)
	}
	want, err := r.Optimize(context.Background(), q, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	extended.Store(true)
	got, err := r.Optimize(context.Background(), q, WithExplain())
	if err != nil {
		t.Fatal(err)
	}
	if raw := []byte(`{"added_in_v3":1,"relations":9}`); httpapi.DecodeResponse(raw, new(httpapi.Response)) {
		t.Fatal("the injected key did not force the fallback: this test tests nothing")
	}
	got.Elapsed, want.Elapsed = 0, 0
	if !reflect.DeepEqual(got, want) || got.Explain == "" || !got.CacheHit {
		t.Errorf("the extended answer decoded to\n%+v\nwant\n%+v", got, want)
	}
}

// TestRemotePooledBuffersUnderConcurrency: request bodies, encoded answers,
// response bodies and the plan renderer's scratch are recycled buffers. One
// handed back while its bytes are still referenced shows as another caller's
// statement or answer, and only with callers in flight together: eight of
// them, each replaying its own query and checking every answer against the
// checksum of its first. Run under -race -count=3 in CI.
func TestRemotePooledBuffersUnderConcurrency(t *testing.T) {
	r := newRemoteOverCluster(t)
	defer r.Close()
	checksum := func(res *Result) [sha256.Size]byte {
		return sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%x|%x|%s|%s",
			res.Fingerprint, res.Explain, math.Float64bits(res.Cost), math.Float64bits(res.Rows), res.Algorithm, res.Shape)))
	}
	const callers, rounds = 8, 60
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		q := MusicBrainz(8+i, int64(i+1))
		first, err := r.Optimize(context.Background(), q, WithExplain())
		if err != nil {
			t.Fatal(err)
		}
		want := checksum(first)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				res, err := r.Optimize(context.Background(), q, WithExplain())
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
				if checksum(res) != want {
					t.Errorf("caller %d, round %d: the answer changed under concurrency:\n%s\nfirst:\n%s", i, n, res.Explain, first.Explain)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}
