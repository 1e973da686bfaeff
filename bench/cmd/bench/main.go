// Command bench runs the repository's benchmark; see the package one level
// up, and README.md there.
package main

import (
	"context"
	"os"

	"repro/bench"
)

func main() {
	os.Exit(bench.Main(context.Background(), os.Args[1:]))
}
