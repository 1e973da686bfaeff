package wire_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/service"
	"repro/internal/sql"
	"repro/internal/wire"
	"repro/internal/workload"
)

// FuzzWireQuery feeds arbitrary bytes to the decoder both sockets use (the
// /v1 endpoints and the cluster RPC): decoding and compiling must reject
// what they cannot use without panicking, and a query that compiles must
// survive its own serialisation — FromQuery, JSON, ToQuery — with the same
// canonical fingerprint, which is what lets a fingerprint travel with the
// query instead of being recomputed on the far side.
func FuzzWireQuery(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range []*wire.Query{
		wire.FromQuery(workload.Chain(4, rng)),
		wire.FromQuery(workload.Star(5, rng)),
		wire.FromQuery(workload.MusicBrainzQuery(9, rng)),
		{SQL: "SELECT r.id FROM release r, medium m WHERE m.release = r.id"},
		{SQL: "SELECT 1", Relations: []wire.Relation{{Name: "a", Rows: 1}}},
	} {
		seed, err := json.Marshal(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	for _, seed := range []string{
		``, `{}`, `null`, `{"relations":`,
		`{"relations":[{"name":"","rows":1}]}`,
		`{"relations":[{"name":"a","rows":-1}]}`,
		`{"relations":[{"name":"a","rows":5,"pages":-3}]}`,
		`{"relations":[{"name":"a","rows":1e308,"width":2147483647}]}`,
		`{"relations":[{"name":"a","rows":5,"pages":3},{"name":"b","rows":0}],"edges":[{"a":0,"b":1,"sel":0.5},{"a":1,"b":0,"sel":0.5}]}`,
		`{"relations":[{"name":"a","rows":5},{"name":"b","rows":6}],"edges":[{"a":0,"b":1,"sel":1e-200},{"a":0,"b":1,"sel":1e-200}]}`,
		`{"relations":[{"name":"a","rows":5}],"edges":[{"a":0,"b":0,"sel":0.5}]}`,
		`{"relations":[{"name":"a","rows":5}],"edges":[{"a":0,"b":7,"sel":0.5}]}`,
		`{"relations":[{"name":"a","rows":5},{"name":"b","rows":6}],"edges":[{"a":0,"b":1,"sel":0}]}`,
	} {
		f.Add([]byte(seed))
	}

	schema := sql.MusicBrainzSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		var wq wire.Query
		if json.Unmarshal(data, &wq) != nil {
			return
		}
		q, err := wq.ToQuery(schema)
		if err != nil {
			return
		}
		for _, r := range q.Cat.Rels {
			if !(r.Pages >= 0) {
				t.Fatalf("relation %q decoded with pages %v: a scan would cost less than nothing", r.Name, r.Pages)
			}
		}
		want := service.FingerprintQuery(q)

		encoded, err := json.Marshal(wire.FromQuery(q))
		if err != nil {
			// Only a statistic that overflowed to an infinity cannot be
			// encoded; such a query stays in the process that built it.
			return
		}
		var decoded wire.Query
		if err := json.Unmarshal(encoded, &decoded); err != nil {
			t.Fatalf("own encoding does not decode: %v\n%s", err, encoded)
		}
		back, err := decoded.ToQuery(nil)
		if err != nil {
			t.Fatalf("own encoding does not compile: %v\n%s", err, encoded)
		}
		if got := service.FingerprintQuery(back); got.Key != want.Key {
			t.Fatalf("fingerprint changed across the wire:\n got %s\nwant %s\n%s", got.Key, want.Key, encoded)
		}
	})
}

// TestToQueryRejectsNegativeStatistics: a negative row or page count would
// make that relation's scan cost negative, so the decoder refuses both, as
// it refuses any statistic the cost model cannot use. A zero page count is
// not negative: it asks for the derived one.
func TestToQueryRejectsNegativeStatistics(t *testing.T) {
	for body, want := range map[string]string{
		`{"relations":[{"name":"a","rows":-1}]}`:           `relation "a" has negative rows`,
		`{"relations":[{"name":"a","rows":5,"pages":-3}]}`: `relation "a" has negative pages`,
		`{"relations":[{"name":"a","rows":5,"pages":0}]}`:  ``,
	} {
		var wq wire.Query
		if err := json.Unmarshal([]byte(body), &wq); err != nil {
			t.Fatal(err)
		}
		q, err := wq.ToQuery(nil)
		switch {
		case want != "" && (err == nil || err.Error() != want):
			t.Errorf("%s: err = %v, want %q", body, err, want)
		case want == "" && err != nil:
			t.Errorf("%s: %v", body, err)
		case want == "" && q.Cat.Rels[0].Pages <= 0:
			t.Errorf("%s: pages %v, want the derived count", body, q.Cat.Rels[0].Pages)
		}
	}
}
