package gpusim

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/dp"
	"repro/internal/workload"
)

// deviceModelRow is one configuration of the pinned grid.
type deviceModelRow struct {
	kind workload.Kind
	n    int
	algo Algo
	cfg  Config
}

func (r deviceModelRow) label() string {
	conf := "plain"
	if r.cfg.FusedPrune && r.cfg.CCC {
		conf = "fused+ccc"
	}
	if r.cfg.Devices > 0 {
		conf = fmt.Sprintf("devices=%d", r.cfg.Devices)
	}
	return fmt.Sprintf("%s-%d %s %s", r.kind, r.n, strings.ReplaceAll(r.algo.String(), " ", ""), conf)
}

// deviceModelRows is the grid: every algorithm with both §5 enhancements and
// with neither on seven join graphs, MPDP on one, two and three devices on a
// tree, a cycle and a MusicBrainz walk, on one and two devices on the served
// GPU band's snowflake-28, and on several devices on two cyclic graphs whose
// levels are thick enough to start helpers (clique-12, musicbrainz-20), so
// their volumes are summed across level workers.
func deviceModelRows() []deviceModelRow {
	graphs := []struct {
		kind workload.Kind
		n    int
	}{
		{workload.KindStar, 13}, {workload.KindCycle, 16}, {workload.KindChain, 20}, {workload.KindClique, 10},
		{workload.KindMB, 14}, {workload.KindSnowflake, 20}, {workload.KindCycle, 40},
	}
	var rows []deviceModelRow
	for _, g := range graphs {
		for _, algo := range []Algo{AlgoMPDP, AlgoDPSub, AlgoDPSize} {
			for _, on := range []bool{true, false} {
				rows = append(rows, deviceModelRow{g.kind, g.n, algo, Config{FusedPrune: on, CCC: on}})
			}
		}
	}
	for _, g := range graphs {
		if g.kind != workload.KindChain && g.kind != workload.KindMB && g.n != 40 {
			continue
		}
		for devices := 1; devices <= 3; devices++ {
			cfg := DefaultConfig()
			cfg.Devices = devices
			rows = append(rows, deviceModelRow{g.kind, g.n, AlgoMPDP, cfg})
		}
	}
	for devices := 1; devices <= 2; devices++ {
		cfg := DefaultConfig()
		cfg.Devices = devices
		rows = append(rows, deviceModelRow{workload.KindSnowflake, 28, AlgoMPDP, cfg})
	}
	for _, g := range []struct {
		kind    workload.Kind
		n       int
		devices int
	}{{workload.KindClique, 12, 2}, {workload.KindClique, 12, 4}, {workload.KindMB, 20, 2}} {
		cfg := DefaultConfig()
		cfg.Devices = g.devices
		rows = append(rows, deviceModelRow{g.kind, g.n, AlgoMPDP, cfg})
	}
	return rows
}

// deviceModel runs one row of the grid.
func deviceModel(t *testing.T, r deviceModelRow) (dp.Stats, Stats) {
	t.Helper()
	in := dp.Input{Q: multiQuery(t, r.kind, r.n, int64(r.n)), M: cost.DefaultModel()}
	_, st, gs, err := Run(in, r.cfg, r.algo)
	if err != nil {
		t.Fatalf("%s: %v", r.label(), err)
	}
	return st, gs.Stats
}

// deviceModelLine renders one row; floats are written in their shortest
// exact form, so equal text is equal bits.
func deviceModelLine(label string, st dp.Stats, gs Stats) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	phases := make([]string, len(gs.PhaseCycles))
	for i, c := range gs.PhaseCycles {
		phases[i] = f(c)
	}
	return fmt.Sprintf("%s levels=%d launches=%d unranked=%d filtered=%d candidates=%d valid=%d writes=%d warp=%s phases=%s evaluated=%d ccp=%d sets=%d sim_ms=%s",
		label, gs.Levels, gs.KernelLaunches, gs.UnrankedSets, gs.FilteredSets, gs.CandidatePairs, gs.ValidPairs,
		gs.GlobalWrites, f(gs.WarpCycles), strings.Join(phases, ","), st.Evaluated, st.CCP, st.ConnectedSets, f(gs.SimTimeMS))
}

// TestDeviceModelPinned holds every count, warp cycle and phase of the
// device model to testdata/devicemodel.golden, and its simulated time to
// within 4 ulp, over the grid of deviceModelRows: the model is the paper's
// work accounting, so a refactor of the driver must not move it.
func TestDeviceModelPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "devicemodel.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	rows := deviceModelRows()
	if len(want) != len(rows) {
		t.Fatalf("golden has %d lines, the grid %d", len(want), len(rows))
	}
	for i, r := range rows {
		st, gs := deviceModel(t, r)
		got := deviceModelLine(r.label(), st, gs)
		gotHead, gotSim, _ := strings.Cut(got, " sim_ms=")
		wantHead, wantSim, _ := strings.Cut(want[i], " sim_ms=")
		if gotHead != wantHead {
			t.Errorf("device model drifted:\n got: %s\nwant: %s", got, want[i])
			continue
		}
		w, err := strconv.ParseFloat(wantSim, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ulps := int64(math.Float64bits(gs.SimTimeMS)) - int64(math.Float64bits(w)); ulps < -4 || ulps > 4 {
			t.Errorf("%s: sim_ms %s, golden %s (%d ulp)", r.label(), gotSim, wantSim, ulps)
		}
	}
}
