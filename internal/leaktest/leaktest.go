// Package leaktest is the shared goroutine-leak guard for test suites that
// spin up servers, clusters and worker pools: it compares the interesting
// goroutines before and after, with a grace period for orderly shutdown
// (closed listeners, draining HTTP keep-alive loops), and fails with the
// leaked stacks when the count does not come back down. The cluster,
// service and chaos suites install it via Main, so a forgotten Close or a
// goroutine parked on an abandoned channel fails CI instead of
// accumulating silently.
package leaktest

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// ignoredStacks are substrings of goroutine stacks that are never counted:
// the test harness itself, runtime housekeeping, and this package's own
// capture frame.
var ignoredStacks = []string{
	"repro/internal/leaktest.",
	"testing.Main(",
	"testing.(*M).",
	"testing.tRunner(",
	"testing.runTests(",
	"testing.(*T).Run(",
	"os/signal.signal_recv",
	"os/signal.loop",
	"runtime.ensureSigM",
	"runtime.ReadTrace",
	"runtime/pprof.",
	"runtime.MHeap",
}

// stacks captures every live goroutine's stack, one string per goroutine.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, len(buf)*2)
	}
}

func ignored(stack string) bool {
	for _, pat := range ignoredStacks {
		if strings.Contains(stack, pat) {
			return true
		}
	}
	return false
}

// interesting returns the stacks of goroutines the guard counts.
func interesting() []string {
	var out []string
	for _, s := range stacks() {
		if strings.TrimSpace(s) == "" || ignored(s) {
			continue
		}
		out = append(out, s)
	}
	return out
}

// Count returns the number of interesting goroutines right now — chaos
// reports record it as the baseline before starting a cluster.
func Count() int { return len(interesting()) }

// grace is how long a check waits for goroutine counts to settle: orderly
// shutdowns (HTTP keep-alive loops, timer-parked workers) exit
// asynchronously after Close returns.
const grace = 5 * time.Second

// settle polls until the interesting-goroutine count drops to at most
// limit or the grace period expires, returning the final stacks.
func settle(limit int) []string {
	deadline := time.Now().Add(grace)
	for {
		got := interesting()
		if len(got) <= limit || time.Now().After(deadline) {
			return got
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Check captures a baseline and returns a function to defer: it fails the
// test if interesting goroutines remain above the baseline once the grace
// period runs out, printing the leaked stacks.
func Check(tb testing.TB) func() {
	base := Count()
	return func() {
		tb.Helper()
		got := settle(base)
		if len(got) <= base {
			return
		}
		tb.Errorf("leaktest: %d goroutine(s) leaked (baseline %d):\n\n%s",
			len(got)-base, base, strings.Join(got, "\n\n"))
	}
}

// Main wraps a suite's TestMain: run the tests, then verify the whole
// binary is back to its pre-suite goroutine baseline. A leak turns a
// passing suite into a failure; failing suites keep their own exit code.
func Main(m *testing.M) {
	base := Count()
	code := m.Run()
	if code == 0 {
		if got := settle(base); len(got) > base {
			fmt.Fprintf(os.Stderr, "leaktest: %d goroutine(s) leaked after suite (baseline %d):\n\n%s\n",
				len(got)-base, base, strings.Join(got, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// RaceEnabled reports whether this binary was built with -race. Allocation
// gates read it: under the detector sync.Pool drops a quarter of what it is
// handed, on purpose, so a count measured without it does not hold with it.
func RaceEnabled() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
