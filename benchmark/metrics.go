package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one measured value with its unit, in the shape the driver reads.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to value; every emission site names the unit, and
// the smoke test holds names and units to BENCHMARK.json.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// zero records metrics the workload's path does not produce.
func (m metrics) zero(unit string, names ...string) {
	for _, name := range names {
		m[name] = metric{Unit: unit}
	}
}

func (m metrics) merge(o metrics) {
	for k, v := range o {
		m[k] = v
	}
}

func (m metrics) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of Python's
// statistics.quantiles(values, n=4) — the one the driver applies.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// sample is the values one metric took over the runs of one workload.
type sample []float64

// printMetrics writes one "name value unit" row per metric.
func printMetrics(w io.Writer, indent string, m metrics) {
	for _, name := range m.names() {
		fmt.Fprintf(w, "%s%-40s %14.6g %s\n", indent, name, m[name].Value, m[name].Unit)
	}
}
