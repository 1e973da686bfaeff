package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSlowLogTopK(t *testing.T) {
	s := NewSlowLog(SlowConfig{})
	// 1..SlowTopK+3 µs, interleaved so that no arrival order is sorted.
	for i := 0; i < SlowTopK+3; i++ {
		us := float64((i*11)%(SlowTopK+3) + 1)
		s.Observe(SlowEntry{RequestID: "r", WallUS: us}, nil)
	}
	got := s.Slowest(0)
	if len(got) != SlowTopK {
		t.Fatalf("kept %d entries, want %d", len(got), SlowTopK)
	}
	for i := range got {
		if want := float64(SlowTopK + 3 - i); got[i].WallUS != want {
			t.Fatalf("entry %d = %v us, want %v (slowest-first)", i, got[i].WallUS, want)
		}
	}
	if got := s.Slowest(2); len(got) != 2 || got[0].WallUS != SlowTopK+3 {
		t.Fatalf("Slowest(2) = %+v", got)
	}
	if s.Slowest(0)[0].Time == "" {
		t.Fatal("Observe must stamp Time")
	}
}

func TestSlowLogThresholdJSONL(t *testing.T) {
	var sb strings.Builder
	s := NewSlowLog(SlowConfig{Threshold: 5 * time.Millisecond, Log: &sb})
	tr := NewTrace("slow-1")
	tr.ObserveSim(PhaseEnumerate, 11*time.Millisecond)
	s.Observe(SlowEntry{RequestID: "fast", WallUS: 1000}, tr)
	s.Observe(SlowEntry{
		RequestID: "slow-1",
		WallUS:    12000,
		Relations: 20,
		Backend:   "cpu-parallel",
	}, tr)
	s.Observe(SlowEntry{RequestID: "slow-2", WallUS: 6000, Error: "deadline exceeded"}, nil)

	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	var lines []SlowEntry
	for sc.Scan() {
		var e SlowEntry
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 2 {
		t.Fatalf("logged %d lines, want 2 (fast request stays out)", len(lines))
	}
	if lines[0].RequestID != "slow-1" || lines[0].Spans[0].Phase != PhaseEnumerate {
		t.Fatalf("line 0 = %+v", lines[0])
	}
	if lines[1].Error != "deadline exceeded" {
		t.Fatalf("line 1 = %+v", lines[1])
	}
	if s.Threshold() != 5*time.Millisecond {
		t.Fatalf("Threshold = %v", s.Threshold())
	}
}

func TestSlowLogDisabled(t *testing.T) {
	var nilLog *SlowLog
	nilLog.Observe(SlowEntry{WallUS: 1}, nil)
	if got := nilLog.Slowest(0); got != nil {
		t.Fatalf("nil SlowLog returned %+v", got)
	}
}

// TestSlowLogBelowFloorAllocatesNothing holds the common request to its
// cost: on a full ring, an entry faster than the ring's floor and under the
// log threshold neither stamps a time nor copies its trace's spans.
func TestSlowLogBelowFloorAllocatesNothing(t *testing.T) {
	var sb strings.Builder
	s := NewSlowLog(SlowConfig{Threshold: time.Second, Log: &sb})
	tr := NewTrace("fast")
	tr.ObserveSince(PhaseCacheProbe, time.Now())
	for i := 0; i < SlowTopK; i++ {
		s.Observe(SlowEntry{RequestID: "slow", WallUS: float64(900 - i)}, tr)
	}
	fast := SlowEntry{RequestID: "fast", WallUS: 50, Shape: "chain", CacheHit: true}
	if allocs := testing.AllocsPerRun(100, func() { s.Observe(fast, tr) }); allocs != 0 {
		t.Errorf("Observe below the floor allocated %.0f times, want 0", allocs)
	}
	if got := s.Slowest(0); len(got) != SlowTopK || got[SlowTopK-1].WallUS != 900-SlowTopK+1 || len(got[0].Spans) != 1 {
		t.Errorf("ring = %+v, want the %d slow entries with their span", got, SlowTopK)
	}
	if sb.Len() != 0 {
		t.Errorf("entries under the threshold were logged: %q", sb.String())
	}
}
