package httpapi

import (
	"container/list"
	"sync"

	"repro/internal/service"
	"repro/internal/sql"
)

// stmtMemoBytes bounds the statement memo. A dozen-relation statement is
// charged about 8 KB prepared (see stmtCost), so the budget holds some four
// thousand distinct statements — a deployed optimizer's re-asked working
// set — and a stream of never-repeated bodies recycles it without growing
// the heap.
const stmtMemoBytes = 32 << 20

// stmtKey identifies a request body: the same bytes mean different
// statements as SQL text and as a JSON wire query.
type stmtKey struct {
	json bool
	body string
}

type stmtEntry struct {
	key  stmtKey
	prep *service.Prepared
	cost int
}

// stmtMemo is the front door's prepared-statement memo: a byte-bounded LRU
// from request bodies that compiled to their compiled query and fingerprint,
// so a statement asked again is neither parsed, bound nor canonicalised
// again. It holds statements, never answers: every request still reaches
// the engine, and nothing here can go stale against the plan cache.
//
// A memo is bound to the one schema snapshot its SQL entries were compiled
// against. POST /v1/catalog/stats installs a new memo with the new schema
// (see API.updateSchema), so an entry prepared under old statistics cannot
// be served after the swap — a request that loaded the old memo finishes
// against the old snapshot, as it did before there was a memo.
type stmtMemo struct {
	schema sql.Schema // immutable

	mu    sync.Mutex
	ll    *list.List                // guarded by mu; front is most recent
	items map[stmtKey]*list.Element // guarded by mu
	bytes int                       // guarded by mu
}

func newStmtMemo(schema sql.Schema) *stmtMemo {
	return &stmtMemo{schema: schema, ll: list.New(), items: make(map[stmtKey]*list.Element)}
}

// get returns the statement prepared from these exact bytes, if any.
func (m *stmtMemo) get(json bool, body []byte) *service.Prepared {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The conversion inside the index expression does not copy the body.
	el, ok := m.items[stmtKey{json, string(body)}]
	if !ok {
		return nil
	}
	m.ll.MoveToFront(el)
	return el.Value.(*stmtEntry).prep
}

// put records what the body under key compiled to, evicting
// least-recently-asked statements to stay inside the byte budget.
func (m *stmtMemo) put(key stmtKey, p *service.Prepared) {
	cost := stmtCost(key, p)
	if cost > stmtMemoBytes {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.items[key]; ok {
		return // a concurrent request prepared the same bytes first
	}
	m.items[key] = m.ll.PushFront(&stmtEntry{key: key, prep: p, cost: cost})
	m.bytes += cost
	for m.bytes > stmtMemoBytes {
		back := m.ll.Back()
		e := m.ll.Remove(back).(*stmtEntry)
		delete(m.items, e.key)
		m.bytes -= e.cost
	}
}

// stmtCost estimates the heap one memo entry pins: the body (the key), the
// fingerprint, and the compiled query — catalog rows, edge list, adjacency
// and selectivity lists and the selectivity map, per relation and per edge.
// It errs high: on MusicBrainz walks of 4 to 100 relations the heap actually
// retained per entry is 75-80% of it.
func stmtCost(key stmtKey, p *service.Prepared) int {
	const perEntry, perRelation, perEdge = 512, 256, 192
	return len(key.body) + len(p.Key) + perEntry + perRelation*p.Query.N() + perEdge*len(p.Query.G.Edges)
}
