// Command mpdp-explain generates one workload query, optimizes it with the
// selected algorithm — by default auto, the algorithm the serving router
// picks — and prints the algorithm that ran, the chosen plan, its cost and
// the paper's instrumentation counters.
//
// Usage:
//
//	mpdp-explain -workload star -rels 15 -algorithm mpdp-gpu
//	mpdp-explain -workload musicbrainz -rels 20 -algorithm uniondp-mpdp -k 10
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/sql"
	"repro/internal/workload"
)

func main() {
	var (
		kind    = flag.String("workload", "star", "workload family (star, snowflake, chain, cycle, clique, musicbrainz)")
		rels    = flag.Int("rels", 12, "number of relations")
		alg     = flag.String("algorithm", "auto", "optimizer (see core.Algorithms; auto: the serving router's pick)")
		seed    = flag.Int64("seed", 1, "workload seed")
		timeout = flag.Duration("timeout", time.Minute, "optimization timeout")
		k       = flag.Int("k", 0, "sub-problem bound for IDP/UnionDP (0 = default 15)")
		threads = flag.Int("threads", 0, "CPU threads (0 = all)")
		sqlText = flag.String("sql", "", "optimize this SQL query against the MusicBrainz schema instead of a generated workload")
	)
	flag.Parse()

	var q *cost.Query
	if *sqlText != "" {
		bound, err := sql.Compile(*sqlText, sql.MusicBrainzSchema())
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpdp-explain:", err)
			os.Exit(2)
		}
		if bound.ImplicitEdges > 0 {
			fmt.Printf("equivalence classes added %d implicit join edges\n", bound.ImplicitEdges)
		}
		q = bound.Query
		*kind = "sql"
	} else {
		rng := rand.New(rand.NewSource(*seed))
		var err error
		q, err = workload.Generate(workload.Kind(*kind), *rels, rng)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpdp-explain:", err)
			os.Exit(2)
		}
	}

	res, err := core.Optimize(context.Background(), q, core.Options{
		Algorithm: core.Algorithm(*alg),
		Timeout:   *timeout,
		K:         *k,
		Threads:   *threads,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpdp-explain:", err)
		os.Exit(1)
	}

	fmt.Printf("workload=%s rels=%d algorithm=%s\n", *kind, q.N(), res.Algorithm)
	fmt.Printf("plan cost: %.4g   output rows: %.4g\n", res.Plan.Cost, res.Plan.Rows)
	fmt.Printf("optimization wall time: %v\n", res.Elapsed)
	if res.GPU != nil {
		fmt.Printf("simulated GPU time: %.3f ms (%d kernels, %d candidate pairs, %d valid)\n",
			res.GPU.SimTimeMS, res.GPU.KernelLaunches, res.GPU.CandidatePairs, res.GPU.ValidPairs)
	}
	if res.Stats.Evaluated > 0 {
		fmt.Printf("counters: Evaluated=%d CCP=%d connected sets=%d\n",
			res.Stats.Evaluated, res.Stats.CCP, res.Stats.ConnectedSets)
	}
	fmt.Println()
	fmt.Print(core.Explain(q, res.Plan))
}
