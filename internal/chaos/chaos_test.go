package chaos

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/leaktest"
)

// TestMain installs the goroutine-leak guard: chaos runs spin up whole
// clusters and the suite must leave nothing behind.
func TestMain(m *testing.M) {
	leaktest.Main(m)
}

// testCfg keeps chaos runs CI-sized: ~1.2s of load per run.
var testCfg = Config{Rate: 150, Phase: 800 * time.Millisecond}

// runAndCheck replays sched and fails the test on any invariant
// violation, returning the report for schedule-specific assertions.
//
// Determinism note: the schedule, the fault transport's probabilistic
// decisions and the offered load mix are all derived from sched.Seed, so a
// failing run replays with the same faults and the same queries. Wall-
// clock interleaving still varies; the invariants hold for every
// interleaving, which is the point.
//
// A run whose only violation is that the load generator launched late
// (this host stalls a process for 20-75ms about once in forty runs) offered
// another schedule, so its latencies compare with nothing; it is repeated,
// at most twice. A late run that also broke a count invariant, or dropped
// an arrival, fails where it stands: those hold for a stalled interleaving
// too.
func runAndCheck(t *testing.T, sched Schedule) *Report {
	t.Helper()
	rep := Run(context.Background(), testCfg, sched)
	for attempt := 1; attempt < 3 && rep.harnessLate && len(rep.Violations()) == 1; attempt++ {
		t.Logf("%s/seed=%d: run %d repeated: %s", sched.Name, sched.Seed, attempt, rep.Violations()[0])
		rep = Run(context.Background(), testCfg, sched)
	}
	for _, v := range rep.Violations() {
		t.Error(v)
	}
	t.Logf("%s/seed=%d: offered=%d ok=%d shed=%d timeouts=%d unavailable=%d injected=%d "+
		"failovers=%d overflows=%d retries=%d storm_p99=%v healed_p99=%v "+
		"warm_healthy_p99=%v late_p99=%v/%v",
		rep.Schedule, rep.Seed, rep.Offered, rep.OK, rep.Shed, rep.Timeouts, rep.Unavailable,
		rep.Injected, rep.Cluster.Failovers, rep.Cluster.Overflows, rep.Cluster.Retries, rep.StormP99, rep.HealedP99,
		rep.WarmHealthyP99, rep.Storm.Late.Quantile(0.99), rep.Healed.Late.Quantile(0.99))
	return rep
}

func TestChaosKill(t *testing.T) {
	rep := runAndCheck(t, KillSchedule(1, testCfg.Phase))
	if rep.Cluster.Deaths == 0 {
		t.Error("kill schedule detected no death")
	}
	if rep.Cluster.Failovers == 0 {
		t.Error("kill schedule produced no failovers")
	}
}

func TestChaosAsymmetricPartition(t *testing.T) {
	control := runAndCheck(t, ControlSchedule(2))
	rep := runAndCheck(t, PartitionSchedule(2, testCfg.Phase))
	if rep.Injected == 0 {
		t.Error("partition schedule injected no transport faults")
	}
	if rep.Cluster.Retries == 0 {
		t.Error("lossy reply link never exercised the retry path")
	}
	// What protects the healthy replicas: the first calls into the cut link
	// fail over, the failure detector takes the node out of the ring, and
	// from then on a warm hit costs what it costs with no fault at all. The
	// 5ms floor keeps sub-ms jitter on a quiet host from faking a
	// regression.
	if rep.Cluster.Failovers == 0 || rep.Cluster.Deaths == 0 {
		t.Errorf("cut link left no trace on the guarded path: failovers=%d deaths=%d", rep.Cluster.Failovers, rep.Cluster.Deaths)
	}
	if limit := 2*control.WarmHealthyP99 + 5*time.Millisecond; rep.WarmHealthyP99 > limit {
		t.Errorf("warm-healthy p99 %v under partition exceeds 2x the control run's %v + 5ms: the healthy replicas are paying for the cut link",
			rep.WarmHealthyP99, control.WarmHealthyP99)
	}
}

func TestChaosSlowFlap(t *testing.T) {
	rep := runAndCheck(t, SlowFlapSchedule(3, testCfg.Phase))
	if rep.Cluster.Deaths < 2 {
		t.Errorf("flap produced %d deaths, want >= 2", rep.Cluster.Deaths)
	}
	if rep.Cluster.Quarantined == 0 {
		t.Error("flapping node was never quarantined")
	}
}

// TestChaosControl is the null hypothesis: a fault-free run must show a
// perfectly quiet guarded path — any failover, timeout or
// unavailable on it means the fault machinery leaks into healthy
// operation.
func TestChaosControl(t *testing.T) {
	runAndCheck(t, ControlSchedule(4))
}

// TestSchedulesDeterministic pins that a schedule is pure data derived
// from (seed, phase): building it twice yields identical events.
func TestSchedulesDeterministic(t *testing.T) {
	phase := testCfg.Phase
	build := map[string]func() Schedule{
		"kill":      func() Schedule { return KillSchedule(7, phase) },
		"partition": func() Schedule { return PartitionSchedule(7, phase) },
		"slow+flap": func() Schedule { return SlowFlapSchedule(7, phase) },
		"control":   func() Schedule { return ControlSchedule(7) },
	}
	for name, f := range build {
		if !reflect.DeepEqual(f(), f()) {
			t.Errorf("%s schedule is not deterministic", name)
		}
	}
}
