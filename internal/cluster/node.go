package cluster

import (
	"context"
	"fmt"

	"repro/internal/service"
)

// node is one cluster member: a service.Service plus the RPC handler the
// transport dispatches into. Nodes hold no ring or membership state — the
// coordinator owns the topology, nodes own plans — so a node can be killed
// and revived without any recovery protocol of its own.
type node struct {
	id  string
	svc *service.Service
}

func newNode(id string, cfg service.Config) *node {
	return &node{id: id, svc: service.New(cfg)}
}

func (n *node) close() { n.svc.Close() }

// stats builds the node's answer to the stats RPC; the coordinator calls it
// directly for in-process members.
func (n *node) stats() *NodeStats {
	return &NodeStats{
		Snapshot:  n.svc.Counters().Snapshot(),
		CacheLen:  n.svc.CacheLen(),
		Latencies: n.svc.Counters().ExportLatencies(),
	}
}

func (n *node) handle(ctx context.Context, req Request) (*Response, error) {
	switch req.Kind {
	case ReqPing:
		return &Response{}, nil
	case ReqOptimize:
		var res *service.Result
		var err error
		if req.Fingerprint != nil {
			res, err = n.svc.OptimizePrepared(ctx, &service.Prepared{Query: req.Query, Fingerprint: *req.Fingerprint})
		} else {
			res, err = n.svc.Optimize(ctx, req.Query)
		}
		if err != nil {
			return nil, err
		}
		return &Response{Result: res}, nil
	case ReqExport:
		if req.Key != "" {
			if e, ok := n.svc.ExportEntry(req.Key); ok {
				return &Response{Entries: []service.Entry{e}}, nil
			}
			return &Response{}, nil
		}
		return &Response{Entries: n.svc.Export()}, nil
	case ReqImport:
		for _, e := range req.Entries {
			if err := n.svc.Import(e); err != nil {
				return nil, err
			}
		}
		return &Response{}, nil
	case ReqFlush:
		n.svc.Flush()
		return &Response{}, nil
	case ReqBumpEpoch:
		old, cur := n.svc.BumpStatsEpoch()
		return &Response{OldEpoch: old, NewEpoch: cur}, nil
	case ReqCacheInfo:
		info := n.svc.CacheInfo(req.TopN)
		return &Response{Info: &info}, nil
	case ReqInvalidate:
		return &Response{Found: n.svc.Invalidate(req.Key)}, nil
	case ReqStats:
		return &Response{Stats: n.stats()}, nil
	}
	return nil, fmt.Errorf("cluster: node %s: unknown request kind %v", n.id, req.Kind)
}
