// Gpuoffload: the GPU execution model of §5 through the public SDK — the
// simulated device times of MPDP vs the DPSub/DPSize baselines on a
// snowflake query, then the multi-device scheduler: a 40-relation cycle
// (which no CPU enumerator's band touches) routed exactly to the GPU
// backend, swept across 1/2/4/8 simulated devices.
//
//	go run ./examples/gpuoffload [-rels 18]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/pkg/optimizer"
)

func main() {
	rels := flag.Int("rels", 18, "snowflake query size")
	flag.Parse()

	q := optimizer.Snowflake(*rels, 11)
	opt := optimizer.InProcess()
	fmt.Printf("snowflake query: %d relations on the simulated device model\n\n", q.Relations())

	type entry struct {
		label string
		alg   optimizer.Algorithm
	}
	suite := []entry{
		{"MPDP (GPU, fused prune + CCC)", optimizer.AlgMPDPGPU},
		{"DPSub (GPU)", optimizer.AlgDPSubGPU},
		{"DPSize (GPU)", optimizer.AlgDPSizeGPU},
	}
	var exact float64
	for _, e := range suite {
		res, err := opt.Optimize(context.Background(), q, optimizer.WithAlgorithm(e.alg))
		if err != nil {
			log.Fatal(err)
		}
		if exact == 0 {
			exact = res.Cost
		} else if res.Cost != exact {
			log.Fatalf("%s cost %g != %g", e.label, res.Cost, exact)
		}
		fmt.Printf("%-32s %10.3f ms simulated  (evaluated %d pairs, %d valid)\n",
			e.label, res.GPUSimMS, res.Evaluated, res.CCPPairs)
	}
	fmt.Println("\nMPDP's candidate volume tracks the valid-pair count, so its kernels do")
	fmt.Println("less lockstep work; CCC compacts what divergence remains (§5, §7.2.5).")

	// The multi-device scheduler on a query no CPU enumerator's band can
	// touch: a 40-relation cycle, whose 2^40 unrank lattice is compute-
	// bound. The router sends it to the GPU backend, here run with N
	// simulated devices; more devices shorten the level-synchronous wall.
	cyc := optimizer.Cycle(40, 7)
	fmt.Println("\n40-relation cycle, level-partitioned across N devices:")
	var cost40 float64
	for _, ndev := range []int{1, 2, 4, 8} {
		res, err := opt.Optimize(context.Background(), cyc, optimizer.WithGPUDevices(ndev))
		if err != nil {
			log.Fatal(err)
		}
		if res.Backend != "gpu" || res.FellBack {
			log.Fatalf("%d devices: routed to %s (fellback=%v), want exact gpu", ndev, res.Backend, res.FellBack)
		}
		cost40 = res.Cost
		fmt.Printf("  %d device(s): %9.0f ms simulated  (%s on %s, %.1f ms real wall time)\n",
			ndev, res.GPUSimMS, res.Algorithm, res.Backend,
			float64(res.Elapsed.Microseconds())/1e3)
	}
	fmt.Printf("exact plan cost %.4g — the band the service router serves exactly\n", cost40)
	fmt.Println("instead of heuristically (costing is output-sensitive, the lattice is modeled).")
}
