package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// span is one completed span of a Chrome trace-event file (ph "X"), times
// in microseconds.
type span struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  uint64  `json:"tid"`
	self float64
	top  bool
}

// spanLayer maps the program's existing span names to the layer table.
var spanLayer = map[string]string{
	"pre-analysis":    "analysis",
	"points-to+slice": "analysis",
	"cfet-build":      "cfet",
	"context-clone":   "pgraph",
	"dataflow-build":  "pgraph",
	"phase.alias":     "engine",
	"phase.dataflow":  "engine",
	"preprocess":      "engine",
	"superstep":       "engine",
	"checkpoint":      "engine",
	"extract-flows":   "checker",
	"fsm-check":       "checker",
	"instance":        "scheduler",
}

// traceSummary is what the per-layer metrics need from one trace file.
type traceSummary struct {
	spans int
	bytes int64
	// byName sums span durations per span name, in seconds.
	byName map[string]float64
	// selfByLayer sums span self time (duration minus the part its child
	// spans cover) per layer, in seconds.
	selfByLayer map[string]float64
	// supersteps are the superstep span durations in milliseconds, sorted.
	supersteps []float64
	// covered is the time top-level named spans cover, summed over thread
	// lanes, in seconds.
	covered float64
}

// readTrace parses a Chrome trace file written by ObsOptions.TracePath. The
// format has no parent links, so nesting is recovered per thread lane from
// interval containment.
func readTrace(path string) (*traceSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []span `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sum := &traceSummary{
		bytes:       int64(len(data)),
		byName:      map[string]float64{},
		selfByLayer: map[string]float64{},
	}
	byTid := map[uint64][]*span{}
	for i := range doc.TraceEvents {
		s := &doc.TraceEvents[i]
		if s.Ph != "X" {
			continue
		}
		sum.spans++
		byTid[s.Tid] = append(byTid[s.Tid], s)
	}
	for _, lane := range byTid {
		// Parents sort before their children: earlier start, then longer.
		sort.SliceStable(lane, func(i, j int) bool {
			if lane[i].Ts != lane[j].Ts {
				return lane[i].Ts < lane[j].Ts
			}
			return lane[i].Dur > lane[j].Dur
		})
		var stack []*span
		for _, s := range lane {
			s.self = s.Dur
			for len(stack) > 0 && s.Ts >= stack[len(stack)-1].Ts+stack[len(stack)-1].Dur {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].self -= s.Dur
			} else {
				s.top = true
			}
			stack = append(stack, s)
		}
		for _, s := range lane {
			sum.byName[s.Name] += s.Dur / 1e6
			layer, named := spanLayer[s.Name]
			if !named {
				continue
			}
			sum.selfByLayer[layer] += s.self / 1e6
			if s.top {
				sum.covered += s.Dur / 1e6
			}
			if s.Name == "superstep" {
				sum.supersteps = append(sum.supersteps, s.Dur/1e3)
			}
		}
	}
	sort.Float64s(sum.supersteps)
	return sum, nil
}

// traceMetrics turns a trace summary into the T metrics. lanes is how many
// thread lanes ran concurrently (1 for a single check, W for a batch), so
// tracedWallS × lanes is the time spans could have covered.
func traceMetrics(sum *traceSummary, tracedWallS float64, lanes int) metrics {
	m := metrics{}
	m.set("analysis.preanalysis_s", sum.byName["pre-analysis"], "s")
	m.set("analysis.pointsto_slice_s", sum.byName["points-to+slice"], "s")
	m.set("cfet.build_s", sum.byName["cfet-build"], "s")
	m.set("pgraph.clone_alias_s", sum.byName["context-clone"], "s")
	m.set("pgraph.dataflow_build_s", sum.byName["dataflow-build"], "s")
	m.set("engine.alias_closure_s", sum.byName["phase.alias"], "s")
	m.set("engine.dataflow_closure_s", sum.byName["phase.dataflow"], "s")
	m.set("engine.superstep_p50_ms", median(sum.supersteps), "ms")
	var longest float64
	if n := len(sum.supersteps); n > 0 {
		longest = sum.supersteps[n-1]
	}
	m.set("engine.superstep_max_ms", longest, "ms")
	m.set("checker.extract_flows_s", sum.byName["extract-flows"], "s")
	m.set("checker.fsm_check_s", sum.byName["fsm-check"], "s")
	m.set("trace.spans", float64(sum.spans), "count")
	m.set("trace.bytes", float64(sum.bytes), "B")
	m.set("trace.unattributed_pct", 100*(1-ratio(sum.covered, tracedWallS*float64(lanes))), "%")
	return m
}
