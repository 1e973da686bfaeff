package optimizer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// RemoteConfig tunes the HTTP client driver.
type RemoteConfig struct {
	// Endpoints are the base URLs of mpdp-serve or mpdp-cluster servers
	// (e.g. "http://10.0.0.1:8080"). At least one is required.
	Endpoints []string
	// HedgeDelay is how long to wait for the current endpoint before
	// launching a hedged attempt on the next one (0: 2s; negative
	// disables hedging — endpoints are then only tried on failure).
	HedgeDelay time.Duration
	// HTTPClient overrides the transport (nil: http.DefaultClient).
	HTTPClient *http.Client
}

// remote is the HTTP driver: it ships queries over the versioned /v1 wire
// API with per-node hedging — if the first endpoint has not answered
// within HedgeDelay, the same request is raced on the next endpoint and
// the first response wins, which rides out slow or dead nodes without
// waiting for a full timeout.
type remote struct {
	endpoints []string
	hedge     time.Duration
	client    *http.Client
	next      atomic.Uint64
}

// Remote returns the HTTP client driver for the given servers.
func Remote(cfg RemoteConfig) (Optimizer, error) {
	if len(cfg.Endpoints) == 0 {
		return nil, errors.New("optimizer: Remote requires at least one endpoint")
	}
	eps := make([]string, len(cfg.Endpoints))
	for i, e := range cfg.Endpoints {
		if e == "" {
			return nil, fmt.Errorf("optimizer: empty endpoint at index %d", i)
		}
		eps[i] = strings.TrimRight(e, "/")
	}
	hedge := cfg.HedgeDelay
	if hedge == 0 {
		hedge = 2 * time.Second
	}
	client := cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	return &remote{endpoints: eps, hedge: hedge, client: client}, nil
}

func (r *remote) Close() error {
	r.client.CloseIdleConnections()
	return nil
}

// RemoteError is a structured error envelope returned by a server.
type RemoteError struct {
	Status   int
	Code     string
	Message  string
	Detail   string
	Endpoint string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("optimizer: %s answered %d %s: %s", e.Endpoint, e.Status, e.Code, e.Message)
}

// terminal reports whether retrying another endpoint is pointless: the
// servers are deterministic, so a request-level rejection (bad SQL,
// oversize, disconnected graph) will repeat everywhere.
func (e *RemoteError) terminal() bool {
	switch e.Status {
	case http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
		http.StatusNotFound, http.StatusConflict:
		return true
	}
	return false
}

func (r *remote) Optimize(ctx context.Context, q *Query, opts ...Option) (*Result, error) {
	o := applyOptions(opts)
	if o.algorithm != "" {
		return nil, ErrServerRouted
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	body, err := q.wireBody()
	if err != nil {
		return nil, err
	}
	path := "/v1/optimize"
	if o.explain {
		path = "/v1/explain"
	}
	params := url.Values{}
	if o.trace {
		params.Set("trace", "1")
	}
	if o.epoch != 0 {
		params.Set("epoch", strconv.FormatUint(o.epoch, 10))
	}
	if len(params) > 0 {
		path += "?" + params.Encode()
	}

	start := time.Now()
	resp, err := r.hedged(ctx, path, body)
	if err != nil {
		var re *RemoteError
		if errors.As(err, &re) && re.Code == httpapi.CodeStaleEpoch {
			return nil, fmt.Errorf("%w (%s)", ErrStaleEpoch, re.Message)
		}
		return nil, err
	}
	out := &Result{
		Cost:        resp.Cost,
		Rows:        resp.Rows,
		Algorithm:   Algorithm(resp.Algorithm),
		Backend:     resp.Backend,
		Shape:       resp.Shape,
		Fingerprint: resp.Fingerprint,
		CacheHit:    resp.CacheHit,
		Coalesced:   resp.Coalesced,
		FellBack:    resp.FellBack,
		Elapsed:     time.Since(start),
		Explain:     resp.Plan,
		GPUDevices:  resp.GPUDevices,
		GPUSimMS:    resp.GPUSimMS,
		Node:        resp.Node,
		Failover:    resp.Failover,
		StatsEpoch:  resp.StatsEpoch,
		Trace:       traceSpans(resp.Trace),
		TraceWallUS: resp.TraceWallUS,
	}
	return out, nil
}

// outcome is one endpoint attempt's result.
type outcome struct {
	resp *httpapi.Response
	err  error
}

// hedged races the request across endpoints: attempt i starts when
// attempt i-1 has neither answered nor failed within the hedge delay (or
// immediately when it failed). The first success cancels the rest.
func (r *remote) hedged(ctx context.Context, path string, body []byte) (*httpapi.Response, error) {
	n := len(r.endpoints)
	// Rotate the starting endpoint per request to spread load.
	first := int(r.next.Add(1)-1) % n

	if n == 1 || r.hedge <= 0 {
		// Nothing can overlap — one endpoint, or endpoints tried only on
		// failure — so the attempts run on the caller's goroutine, without
		// the channel, goroutine and cancel context a race needs.
		var errs []error
		for i := 0; i < n; i++ {
			out := r.call(ctx, r.endpoints[(first+i)%n], path, body)
			if out.err == nil {
				return out.resp, nil
			}
			if ctx.Err() != nil {
				return nil, context.Cause(ctx)
			}
			var re *RemoteError
			if errors.As(out.err, &re) && re.terminal() {
				return nil, out.err
			}
			errs = append(errs, out.err)
		}
		return nil, errors.Join(errs...)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, n)

	launch := func(i int) {
		ep := r.endpoints[(first+i)%n]
		go func() { results <- r.call(hctx, ep, path, body) }()
	}
	launch(0)
	launched, pending := 1, 1

	timer := time.NewTimer(r.hedge)
	defer timer.Stop()

	var errs []error
	for {
		select {
		case out := <-results:
			if out.err == nil {
				return out.resp, nil
			}
			pending--
			errs = append(errs, out.err)
			var re *RemoteError
			if errors.As(out.err, &re) && re.terminal() {
				return nil, out.err
			}
			if launched < n {
				launch(launched)
				launched++
				pending++
			} else if pending == 0 {
				return nil, errors.Join(errs...)
			}
		case <-timer.C:
			if launched < n {
				launch(launched)
				launched++
				pending++
				timer.Reset(r.hedge)
			}
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
}

// call performs one POST against one endpoint.
func (r *remote) call(ctx context.Context, endpoint, path string, body []byte) outcome {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint+path, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return outcome{err: fmt.Errorf("optimizer: %s: %w", endpoint, err)}
	}
	defer resp.Body.Close()
	raw, err := readResponse(resp, endpoint)
	if err != nil {
		return outcome{err: err}
	}
	defer raw.Release() // both decoders copy every string out
	// The answer crosses the socket on every hit: httpapi's own decoder takes
	// the bytes httpapi emits and refuses anything else (another server
	// version's extra field, say), which encoding/json then decodes as ever.
	var wire httpapi.Response
	if !httpapi.DecodeResponse(raw.Bytes(), &wire) {
		if err := json.Unmarshal(raw.Bytes(), &wire); err != nil {
			return outcome{err: fmt.Errorf("optimizer: %s: decoding response: %w", endpoint, err)}
		}
	}
	return outcome{resp: &wire}
}

// maxResponseBytes bounds one response body.
const maxResponseBytes = 16 << 20

// readResponse reads the body of resp and turns any answer but a 200 into
// its *RemoteError. The caller Releases the body it gets.
func readResponse(resp *http.Response, endpoint string) (*httpapi.Body, error) {
	raw, err := httpapi.ReadBody(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return nil, fmt.Errorf("optimizer: %s: reading response: %w", endpoint, err)
	}
	if resp.StatusCode == http.StatusOK {
		return raw, nil
	}
	defer raw.Release()
	re := &RemoteError{Status: resp.StatusCode, Endpoint: endpoint}
	var env httpapi.Error
	if json.Unmarshal(raw.Bytes(), &env) == nil && env.Code != "" {
		re.Code, re.Message, re.Detail = env.Code, env.Message, env.Detail
	} else {
		re.Code, re.Message = "http_error", strings.TrimSpace(string(raw.Bytes()))
	}
	return nil, re
}
