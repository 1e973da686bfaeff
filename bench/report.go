package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

// benchSpec is BENCHMARK.json: the names, units and bounds this program's
// output is read against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// specPath is relative to the checkout's root, where run.sh starts the
// program.
const specPath = "BENCHMARK.json"

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark specification (bench/run.sh runs from the checkout's root): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// lookup finds a metric's specification among both lists.
func (s *benchSpec) lookup(name string) (specMetric, bool) {
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// runSet is the runs of one workload under one seed: what -repeat produces,
// -out saves and -compare loads.
type runSet struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Trace    bool                 `json:"trace"`
	Names    []string             `json:"names"` // metric order
	Units    map[string]string    `json:"units"`
	Values   map[string][]float64 `json:"values"` // per metric, one value per run
}

func (s *runSet) add(r *runResult) {
	if s.Values == nil {
		s.Values, s.Units = map[string][]float64{}, map[string]string{}
	}
	for _, m := range r.metrics {
		if _, seen := s.Values[m.Name]; !seen {
			s.Names = append(s.Names, m.Name)
		}
		s.Units[m.Name] = m.Unit
		s.Values[m.Name] = append(s.Values[m.Name], m.Value)
	}
}

// report prints median, quartiles and spread of every metric, and for the
// bounded (end-to-end) ones whether the spread stays within the bound. The
// spread is the driver's: inter-quartile distance over the median. It
// reports false when a bounded metric is outside.
func (s *runSet) report(w io.Writer, spec *benchSpec) bool {
	ok := true
	fmt.Fprintf(w, "\n== %s  seed %d  %d runs\n", s.Workload, s.Seed, len(s.Values[s.Names[0]]))
	fmt.Fprintf(w, "  %-34s %12s %12s %12s %8s %6s  %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	for _, name := range s.Names {
		v := s.Values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		spread := ratio(q3-q1, med)
		verdict := ""
		if m, found := spec.lookup(name); found && m.Bound > 0 {
			verdict = fmt.Sprintf("%6.2f", m.Bound)
			if spread > m.Bound {
				verdict += "  OUTSIDE"
				ok = false
			}
		}
		fmt.Fprintf(w, "  %-34s %12.6g %12.6g %12.6g %8.4f %6s  %s\n", name, med, q1, q3, spread, verdict, s.Units[name])
	}
	return ok
}

func writeSets(path string, sets []runSet) error {
	raw, err := json.MarshalIndent(sets, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readSets(path string) ([]runSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sets []runSet
	if err := json.Unmarshal(raw, &sets); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sets, nil
}

// compareFiles holds the medians of b against those of a: an end-to-end
// metric of b that is worse than a's by more than its bound is a
// regression, and the error says so.
func compareFiles(spec *benchSpec, a, b string) error {
	as, err := readSets(a)
	if err != nil {
		return err
	}
	bs, err := readSets(b)
	if err != nil {
		return err
	}
	worse := 0
	for _, sb := range bs {
		for _, sa := range as {
			if sa.Workload != sb.Workload || sa.Trace != sb.Trace {
				continue
			}
			fmt.Printf("\n== %s  %s (seed %d) -> %s (seed %d)\n", sb.Workload, a, sa.Seed, b, sb.Seed)
			fmt.Printf("  %-34s %12s %12s %9s %6s  %s\n", "metric", "median a", "median b", "change", "bound", "unit")
			for _, name := range sb.Names {
				va, both := sa.Values[name]
				if !both {
					continue
				}
				ma, mb := median(va), median(sb.Values[name])
				change := ratio(mb-ma, ma)
				verdict := ""
				if m, found := spec.lookup(name); found && m.Bound > 0 {
					verdict = fmt.Sprintf("%6.2f", m.Bound)
					if (m.Better == "lower" && change > m.Bound) || (m.Better == "higher" && -change > m.Bound) {
						verdict += "  WORSE"
						worse++
					}
				}
				fmt.Printf("  %-34s %12.6g %12.6g %+8.2f%% %6s  %s\n", name, ma, mb, 100*change, verdict, sb.Units[name])
			}
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end metrics are worse by more than their bound", worse)
	}
	return nil
}

// cpuModel reads the host's CPU model where the platform exposes it.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks reads the guest's cumulative CPU accounting where the platform
// exposes it: the ticks the host ran something else while this guest had
// work (steal), and all ticks.
func cpuTicks() (stolen, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			stolen = n
		}
	}
	return stolen, total
}

// commit is the revision the binary was built from, when the build saw one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
