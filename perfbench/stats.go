package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// dist is a latency sample set. A failed or refused operation is recorded
// as +Inf: it misses every latency limit, so it lands beyond every
// percentile instead of being dropped.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64) { d.v = append(d.v, x); d.sorted = false }
func (d *dist) fail()         { d.add(math.Inf(1)) }
func (d *dist) n() int        { return len(d.v) }

// addDur records a duration in milliseconds.
func (d *dist) addDur(x time.Duration) { d.add(float64(x) / float64(time.Millisecond)) }

// q returns the nearest-rank quantile (0 < p ≤ 1): the smallest sample
// with at least a p share of the samples at or below it. NaN when empty.
func (d *dist) q(p float64) float64 {
	if len(d.v) == 0 {
		return math.NaN()
	}
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	i := int(math.Ceil(p*float64(len(d.v)))) - 1
	return d.v[max(0, min(i, len(d.v)-1))]
}

// beyond is the number of samples ranked strictly after the p quantile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailLevels are the percentiles a report may quote, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// tail returns the highest of tailLevels that has at least ten samples
// ranked beyond it, or 0 when even the median lacks them.
func tail(n int) float64 {
	for _, p := range tailLevels {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// supports reports whether n samples back the p quantile.
func supports(n int, p float64) bool { return n > 0 && beyond(n, p) >= 10 }

// mean of the finite samples.
func (d *dist) mean() float64 {
	s, k := 0.0, 0
	for _, x := range d.v {
		if !math.IsInf(x, 0) {
			s += x
			k++
		}
	}
	if k == 0 {
		return math.NaN()
	}
	return s / float64(k)
}

// summary renders "p50 X (n=N), pTT Y" with the sample count, quoting
// the highest percentile the sample supports.
func (d *dist) summary(unit string) string {
	n := d.n()
	if n == 0 {
		return "no samples"
	}
	s := fmt.Sprintf("p50 %.4g %s", d.q(0.5), unit)
	if t := tail(n); t > 0.5 {
		s += fmt.Sprintf(", p%g %.4g %s", t*100, d.q(t), unit)
	}
	return s + fmt.Sprintf(" (n=%d)", n)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a metric or workload name is acceptable:
// [A-Za-z0-9_.-], starting with a letter or digit, at most 64 long.
func validName(s string) bool { return metricName.MatchString(s) }

// median of a small slice (copied, not reordered in place).
func median(xs []float64) float64 {
	d := dist{v: append([]float64(nil), xs...)}
	return d.q(0.5)
}
