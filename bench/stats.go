package bench

import (
	"math"
	"sort"
	"time"
)

// metric is one named measurement with its unit, as printed and as written
// into the contract's JSON line.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// metrics is an ordered metric list; names are unique.
type metrics []metric

func (m *metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	*m = append(*m, metric{Name: name, Unit: unit, Value: v})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durs is a latency sample. Percentiles are exact (sorted nearest rank), not
// histogram-bucketed: the samples are at most a few tens of thousands.
type durs []time.Duration

func (d durs) sorted() durs {
	s := append(durs(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// pct returns the p-quantile (0 < p <= 1) of an already sorted sample by
// nearest rank, or 0 for an empty one.
func (d durs) pct(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) (the "exclusive" method) does, because
// that is how the driver computes a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// geomean is the geometric mean of the positive values of v (0 if none).
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
