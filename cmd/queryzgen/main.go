// Command queryzgen emits generated workload queries in the /v1 wire form
// (internal/wire): relations with statistics and the join graph with
// per-edge selectivities, one JSON document per query. Each document can be
// POSTed to /v1/optimize as is, with Content-Type: application/json.
//
// Usage:
//
//	queryzgen -workload snowflake -rels 30 -count 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	var (
		kind  = flag.String("workload", "star", "workload family (star, snowflake, chain, cycle, clique, musicbrainz)")
		rels  = flag.Int("rels", 12, "number of relations")
		count = flag.Int("count", 1, "number of queries to generate")
		seed  = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()
	if err := emit(os.Stdout, workload.Kind(*kind), *rels, *count, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "queryzgen:", err)
		os.Exit(1)
	}
}

// emit writes count generated queries to w, the i-th seeded with seed+i.
func emit(w io.Writer, kind workload.Kind, rels, count int, seed int64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	for i := 0; i < count; i++ {
		q, err := workload.Generate(kind, rels, rand.New(rand.NewSource(seed+int64(i))))
		if err != nil {
			return err
		}
		if err := enc.Encode(wire.FromQuery(q)); err != nil {
			return err
		}
	}
	return nil
}
