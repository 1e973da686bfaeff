package gpusim

import (
	"time"

	"repro/internal/obs"
)

// TraceInto decomposes the run's modeled device time into obs Sim spans on
// tr: launch latency, per-level transfers, the per-kernel warp-cycle
// breakdown (gpu_unrank .. gpu_scatter), and global-memory traffic. The
// spans carry modeled time, not wall time — obs marks them Sim and keeps
// them out of the request's wall decomposition; their durations sum to
// the single-device equivalent of the run (per-device busy time), which for
// a multi-device run exceeds the level-synchronous SimTimeMS exactly as
// busy-time exceeds makespan.
func (m *MultiStats) TraceInto(tr *obs.Trace) {
	if m == nil || tr == nil {
		return
	}
	d := &gtx1080
	simMS := func(phase string, ms float64) {
		if ms > 0 {
			tr.ObserveSim(phase, time.Duration(ms*float64(time.Millisecond)))
		}
	}
	simMS(obs.PhaseGPULaunch, float64(m.KernelLaunches)*d.KernelLaunchUS*1e-3)
	// Every device pays its own per-level round trip (levelSeconds), so the
	// transfer span sums levels across devices; the aggregate Levels field
	// counts lattice levels only once.
	levels := uint64(m.Levels)
	if len(m.PerDevice) > 0 {
		levels = 0
		for i := range m.PerDevice {
			levels += uint64(m.PerDevice[i].Levels)
		}
	}
	simMS(obs.PhaseGPUTransfer, float64(levels)*d.LevelTransferUS*1e-3)
	phaseMS := m.PhaseMS()
	for p := 0; p < int(numPhases); p++ {
		simMS("gpu_"+Phase(p).String(), phaseMS[p])
	}
	simMS(obs.PhaseGPUMemory,
		float64(m.GlobalWrites)/float64(d.WarpSize)*d.GlobalAccessNS*1e-6)
}
