package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
	"time"
)

// SlowConfig configures a serving layer's SlowLog.
type SlowConfig struct {
	// Threshold is the latency at or above which a request is written to
	// Log as a JSON line. Zero disables threshold logging.
	Threshold time.Duration
	// Log receives one JSON line per request at or above Threshold. Nil
	// disables threshold logging regardless of Threshold.
	Log io.Writer
}

// SlowEntry is one slow request: the identifying fields the serving layer
// knows plus the trace's phase breakdown. It is both the /v1/debug/slow
// element and the slow-query-log line.
type SlowEntry struct {
	RequestID string  `json:"request_id,omitempty"`
	Time      string  `json:"time"`
	WallUS    float64 `json:"wall_us"`
	Relations int     `json:"relations,omitempty"`
	Shape     string  `json:"shape,omitempty"`
	Algorithm string  `json:"algorithm,omitempty"`
	Backend   string  `json:"backend,omitempty"`
	Node      string  `json:"node,omitempty"`
	CacheHit  bool    `json:"cache_hit"`
	Error     string  `json:"error,omitempty"`
	Spans     []Span  `json:"spans,omitempty"`
}

// SlowLog keeps the SlowTopK slowest requests seen (by wall time) and
// streams entries over a threshold to a JSON-lines writer. Observe is cheap
// for the common fast request: one comparison under a mutex against the
// current SlowTopK-th slowest.
type SlowLog struct {
	threshold time.Duration

	mu      sync.Mutex
	entries []SlowEntry // sorted slowest-first, len <= SlowTopK
	enc     *json.Encoder
}

// SlowTopK bounds the in-memory ring of slowest requests.
const SlowTopK = 32

// NewSlowLog builds a SlowLog from cfg. It never returns nil.
func NewSlowLog(cfg SlowConfig) *SlowLog {
	s := &SlowLog{threshold: cfg.Threshold}
	if cfg.Log != nil {
		s.enc = json.NewEncoder(cfg.Log)
	}
	return s
}

// Observe records one finished request traced by tr. Time and Spans are
// filled in only when the entry is kept, by the ring or the threshold log:
// Observe stamps Time and copies tr's spans then, so an entry below the
// ring's floor costs a comparison and no allocation. Safe on a nil
// receiver and a nil trace.
func (s *SlowLog) Observe(e SlowEntry, tr *Trace) {
	if s == nil {
		return
	}
	logIt := s.enc != nil && s.threshold > 0 && time.Duration(e.WallUS*float64(time.Microsecond)) >= s.threshold

	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	ring := n < SlowTopK || e.WallUS > s.entries[n-1].WallUS
	if !ring && !logIt {
		return
	}
	e.Time = time.Now().UTC().Format(time.RFC3339Nano)
	e.Spans = tr.Spans()
	if ring {
		// Slowest first; an entry goes after those of equal wall time.
		i := 0
		for i < n && s.entries[i].WallUS >= e.WallUS {
			i++
		}
		s.entries = slices.Insert(s.entries, i, e)
		if len(s.entries) > SlowTopK {
			s.entries = s.entries[:SlowTopK]
		}
	}
	if logIt {
		// Encode under the lock so concurrent entries cannot interleave
		// within a line; the writer is typically an os.File or buffer.
		_ = s.enc.Encode(e)
	}
}

// Slowest returns up to max entries, slowest first (all of them when
// max <= 0). Safe on a nil receiver.
func (s *SlowLog) Slowest(max int) []SlowEntry {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.entries)
	if max > 0 && max < n {
		n = max
	}
	out := make([]SlowEntry, n)
	copy(out, s.entries[:n])
	return out
}

// Threshold reports the configured slow-query threshold (0 when disabled).
func (s *SlowLog) Threshold() time.Duration {
	if s == nil {
		return 0
	}
	return s.threshold
}
