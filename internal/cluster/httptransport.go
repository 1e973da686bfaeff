package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
)

// RPCPath is the HTTP endpoint a node serves the cluster RPC protocol on.
const RPCPath = "/cluster/rpc"

// wireRequest is the JSON form of a Request. The query rides in the same
// wire shape the public /v1 API uses (internal/wire), so statistics and
// fingerprints survive the socket bit-for-bit; cache entries and results
// marshal their native structs — both sides are this repository. Skew
// between builds is absorbed by the decoder ignoring keys it does not know:
// a peer from before the sub-plan memo was removed still sends sub_entries
// and subs_dropped, and they fall away here.
type wireRequest struct {
	Kind        ReqKind              `json:"kind"`
	Query       *wire.Query          `json:"query,omitempty"`
	Fingerprint *service.Fingerprint `json:"fingerprint,omitempty"`
	Key         string               `json:"key,omitempty"`
	Entries     []service.Entry      `json:"entries,omitempty"`
	TopN        int                  `json:"top_n,omitempty"`
}

// wireResponse is the JSON form of a Response or a node-side error.
type wireResponse struct {
	Result   *service.Result    `json:"result,omitempty"`
	Entries  []service.Entry    `json:"entries,omitempty"`
	Stats    *NodeStats         `json:"stats,omitempty"`
	Info     *service.CacheInfo `json:"info,omitempty"`
	OldEpoch uint64             `json:"old_epoch,omitempty"`
	NewEpoch uint64             `json:"new_epoch,omitempty"`
	Found    bool               `json:"found,omitempty"`
	Err      *wireErr           `json:"err,omitempty"`
}

// wireErr carries a node-side error across the socket with enough class
// information for errors.Is to keep working on the coordinator: the
// sentinel errors the routing loop distinguishes each get a stable code.
type wireErr struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

const (
	wireErrOverloaded = "overloaded"
	wireErrClosed     = "closed"
	wireErrCanceled   = "canceled"
	wireErrDeadline   = "deadline"
	wireErrOther      = "error"
)

func encodeErr(err error) *wireErr {
	code := wireErrOther
	switch {
	case errors.Is(err, service.ErrOverloaded):
		code = wireErrOverloaded
	case errors.Is(err, service.ErrClosed):
		code = wireErrClosed
	case errors.Is(err, context.Canceled):
		code = wireErrCanceled
	case errors.Is(err, context.DeadlineExceeded):
		code = wireErrDeadline
	}
	return &wireErr{Code: code, Msg: err.Error()}
}

func (e *wireErr) decode() error {
	switch e.Code {
	case wireErrOverloaded:
		return fmt.Errorf("%w (remote: %s)", service.ErrOverloaded, e.Msg)
	case wireErrClosed:
		return fmt.Errorf("%w (remote: %s)", service.ErrClosed, e.Msg)
	case wireErrCanceled:
		return fmt.Errorf("%w (remote: %s)", context.Canceled, e.Msg)
	case wireErrDeadline:
		return fmt.Errorf("%w (remote: %s)", context.DeadlineExceeded, e.Msg)
	}
	return errors.New(e.Msg)
}

// maxRPCBody bounds one RPC body; a full cache export of 4096 plans is
// well under this.
const maxRPCBody = 256 << 20

// NodeRPCHandler serves the cluster RPC protocol for one node over HTTP.
// Both the in-process loopback listeners HTTPTransport spawns and the
// node-mode of cmd/mpdp-cluster mount it on RPCPath.
func nodeRPCHandler(h handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRPCBody))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var wreq wireRequest
		if err := json.Unmarshal(body, &wreq); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req := Request{
			Kind:        wreq.Kind,
			Fingerprint: wreq.Fingerprint,
			Key:         wreq.Key,
			Entries:     wreq.Entries,
			TopN:        wreq.TopN,
		}
		if wreq.Query != nil {
			q, err := wreq.Query.ToQuery(nil)
			if err != nil {
				writeWireResponse(w, &wireResponse{Err: &wireErr{Code: wireErrOther, Msg: err.Error()}})
				return
			}
			req.Query = q
			if req.Fingerprint != nil && !isPermutation(req.Fingerprint.Perm, q.N()) {
				// Plans are remapped through Perm unchecked; one that does
				// not fit the query is dropped and the node fingerprints.
				req.Fingerprint = nil
			}
		}
		resp, err := h.handle(r.Context(), req)
		if err != nil {
			writeWireResponse(w, &wireResponse{Err: encodeErr(err)})
			return
		}
		writeWireResponse(w, &wireResponse{
			Result:   resp.Result,
			Entries:  resp.Entries,
			Stats:    resp.Stats,
			Info:     resp.Info,
			OldEpoch: resp.OldEpoch,
			NewEpoch: resp.NewEpoch,
			Found:    resp.Found,
		})
	})
}

// isPermutation reports whether p is a permutation of 0..n-1.
func isPermutation(p []int, n int) bool {
	if len(p) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func writeWireResponse(w http.ResponseWriter, resp *wireResponse) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// HTTPTransport carries coordinator→node RPCs as JSON over real TCP
// sockets. Peers are either remote node-mode processes (SetPeer) or
// in-process nodes the transport hosts itself on loopback listeners
// (attach) — the latter is how the failover and chaos suites exercise the
// full wire path inside one test process, and how `mpdp-cluster
// -transport=http` runs by default.
//
// Cut/Heal mirror LocalTransport's crash semantics from the coordinator's
// viewpoint: calls to a cut peer fail with ErrUnreachable without touching
// the socket, and a reply that lands after the cut is dropped, exactly as
// a real crash loses in-flight responses.
type HTTPTransport struct {
	mu    sync.RWMutex
	peers map[string]string // id -> base URL
	cut   map[string]bool
	local map[string]*nodeListener

	client *http.Client

	calls atomicCounter
	fails atomicCounter
}

// nodeListener is one loopback listener hosting an in-process node.
type nodeListener struct {
	srv *http.Server
	lis net.Listener
}

// NewHTTPTransport returns a transport with no peers; nodes register via
// Cluster.AddNode (loopback listeners) or SetPeer (remote addresses).
func NewHTTPTransport() *HTTPTransport {
	return &HTTPTransport{
		peers: make(map[string]string),
		cut:   make(map[string]bool),
		local: make(map[string]*nodeListener),
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 32,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// SetPeer maps a node ID to its base URL (e.g. "http://127.0.0.1:9001").
// A bare host:port is accepted and gets the scheme prefixed.
func (t *HTTPTransport) SetPeer(id, addr string) {
	if addr != "" && addr[0] != 'h' {
		addr = "http://" + addr
	}
	t.mu.Lock()
	t.peers[id] = addr
	t.mu.Unlock()
}

// RemovePeer forgets a node.
func (t *HTTPTransport) RemovePeer(id string) {
	t.mu.Lock()
	delete(t.peers, id)
	delete(t.cut, id)
	t.mu.Unlock()
}

// Peer returns the base URL registered for id.
func (t *HTTPTransport) Peer(id string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	addr, ok := t.peers[id]
	return addr, ok
}

// Cut makes a node unreachable, simulating a crash or partition; Heal
// reconnects it.
func (t *HTTPTransport) Cut(id string) {
	t.mu.Lock()
	t.cut[id] = true
	t.mu.Unlock()
}

// Heal reconnects a previously Cut node.
func (t *HTTPTransport) Heal(id string) {
	t.mu.Lock()
	delete(t.cut, id)
	t.mu.Unlock()
}

// Calls returns how many RPCs were attempted; Fails how many failed at the
// transport layer.
func (t *HTTPTransport) Calls() uint64 { return t.calls.load() }
func (t *HTTPTransport) Fails() uint64 { return t.fails.load() }

// attach implements nodeAttacher: it starts a real TCP listener on
// loopback serving the node's RPC protocol and registers its address, so
// every coordinator→node call crosses an actual socket.
func (t *HTTPTransport) attach(id string, h handler) (func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: http transport listen for %s: %w", id, err)
	}
	mux := http.NewServeMux()
	mux.Handle(RPCPath, nodeRPCHandler(h))
	srv := &http.Server{Handler: mux}
	go srv.Serve(lis)
	nl := &nodeListener{srv: srv, lis: lis}
	t.mu.Lock()
	t.local[id] = nl
	t.mu.Unlock()
	t.SetPeer(id, "http://"+lis.Addr().String())
	return func() {
		t.mu.Lock()
		delete(t.local, id)
		t.mu.Unlock()
		srv.Close()
		t.RemovePeer(id)
	}, nil
}

// Close shuts down every hosted loopback listener and the client's idle
// connections. The cluster calls it from Cluster.Close.
func (t *HTTPTransport) Close() error {
	t.mu.Lock()
	locals := make([]*nodeListener, 0, len(t.local))
	for id, nl := range t.local {
		locals = append(locals, nl)
		delete(t.local, id)
	}
	t.mu.Unlock()
	for _, nl := range locals {
		nl.srv.Close()
	}
	t.client.CloseIdleConnections()
	return nil
}

// Call dispatches one RPC over the wire.
func (t *HTTPTransport) Call(ctx context.Context, to string, req Request) (*Response, error) {
	t.calls.add(1)
	t.mu.RLock()
	addr, ok := t.peers[to]
	down := t.cut[to]
	t.mu.RUnlock()
	if !ok || down {
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s)", ErrUnreachable, to, req.Kind)
	}

	wreq := wireRequest{
		Kind:        req.Kind,
		Fingerprint: req.Fingerprint,
		Key:         req.Key,
		Entries:     req.Entries,
		TopN:        req.TopN,
	}
	if req.Query != nil {
		wreq.Query = wire.FromQuery(req.Query)
	}
	body, err := json.Marshal(wreq)
	if err != nil {
		return nil, fmt.Errorf("cluster: marshal rpc to %s: %w", to, err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+RPCPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")

	hresp, err := t.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's context died mid-call; that is the caller's
			// cancellation, not a node fault.
			return nil, ctx.Err()
		}
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s: %v)", ErrUnreachable, to, req.Kind, err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s: status %d)", ErrUnreachable, to, req.Kind, hresp.StatusCode)
	}
	var wresp wireResponse
	if err := json.NewDecoder(io.LimitReader(hresp.Body, maxRPCBody)).Decode(&wresp); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s: decode: %v)", ErrUnreachable, to, req.Kind, err)
	}

	// A cut that landed while the call was on the wire drops the reply,
	// mirroring LocalTransport: the node did the work, the coordinator
	// never learns.
	t.mu.RLock()
	down = t.cut[to]
	t.mu.RUnlock()
	if down {
		t.fails.add(1)
		return nil, fmt.Errorf("%w: %s (%s reply lost)", ErrUnreachable, to, req.Kind)
	}
	if wresp.Err != nil {
		return nil, wresp.Err.decode()
	}
	return &Response{
		Result:   wresp.Result,
		Entries:  wresp.Entries,
		Stats:    wresp.Stats,
		Info:     wresp.Info,
		OldEpoch: wresp.OldEpoch,
		NewEpoch: wresp.NewEpoch,
		Found:    wresp.Found,
	}, nil
}

// NodeServer hosts one optimizer node behind the cluster RPC protocol —
// the process `mpdp-cluster -mode node` runs, and the building block for
// multi-process clusters joined via Cluster.JoinPeer.
type NodeServer struct {
	id   string
	node *node
	srv  *http.Server
	lis  net.Listener
}

// NewNodeServer builds a node (service included) that will serve the RPC
// protocol; call Start to listen.
func NewNodeServer(id string, cfg service.Config) *NodeServer {
	return &NodeServer{id: id, node: newNode(id, cfg)}
}

// Service exposes the node's underlying service (tests and stats hooks).
func (ns *NodeServer) Service() *service.Service { return ns.node.svc }

// Handler returns the node's HTTP handler: the RPC endpoint plus a
// trivial /healthz.
func (ns *NodeServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle(RPCPath, nodeRPCHandler(ns.node))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"node\":%q}\n", ns.id)
	})
	return mux
}

// Start listens on addr (":0" for an ephemeral port) and serves until
// Close; it returns the bound address.
func (ns *NodeServer) Start(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	ns.lis = lis
	ns.srv = &http.Server{Handler: ns.Handler()}
	go ns.srv.Serve(lis)
	return lis.Addr().String(), nil
}

// Close stops the listener and the node's service.
func (ns *NodeServer) Close() {
	if ns.srv != nil {
		ns.srv.Close()
	}
	ns.node.close()
}
