package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary: the harness
// re-executes itself for every measured check, and here "itself" is the test.
func TestMain(m *testing.M) {
	exitIfChild()
	os.Exit(m.Run())
}

// TestSmoke drives the whole harness — set-up, fresh-process runs, oracle,
// traced runs, staged frontend, probes, result file, driver-mode result line
// — on workload.MiniProfile() with one run per workload, and holds what it
// emits to BENCHMARK.json: every workload, every metric, every unit.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	common := []string{"-smoke", "-scratch", filepath.Join(dir, "scratch"), "-spec", "../BENCHMARK.json"}

	// Full mode, one run per workload.
	out := filepath.Join(dir, "result.json")
	var stdout bytes.Buffer
	if code := harnessMain(append(common, "-n", "1", "-out", out), &stdout); code != 0 {
		t.Fatalf("full run exited %d\n%s", code, stdout.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res resultFile
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Host.NProc == 0 || res.Host.W == 0 || res.Host.GoVersion == "" || res.Commit == "" {
		t.Errorf("incomplete host record: %+v commit %q", res.Host, res.Commit)
	}
	if res.SetupS.Unit != "s" || res.SetupS.Median <= 0 {
		t.Errorf("setup_s = %+v", res.SetupS)
	}
	if len(spec.Workloads) != len(workloads()) {
		t.Errorf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloads()))
	}
	for _, wl := range spec.Workloads {
		wr, ok := res.Workloads[wl.Name]
		if !ok {
			t.Errorf("workload %s of BENCHMARK.json was not run", wl.Name)
			continue
		}
		if wr.VerdictErrors != 0 || wr.FailedRuns != 0 || wr.Runs != 1 || wr.Hash == "" {
			t.Errorf("%s: verdict_errors %d, failed_runs %d, runs %d, hash %q", wl.Name, wr.VerdictErrors, wr.FailedRuns, wr.Runs, wr.Hash)
		}
		for _, ms := range spec.EndToEnd {
			if ms.Name == "setup_s" {
				continue
			}
			if e, ok := wr.EndToEnd[ms.Name]; !ok || e.Unit != ms.Unit || e.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", wl.Name, ms.Name, e, ms.Unit)
			}
		}
		for _, ms := range spec.PerLayer {
			if m, ok := wr.PerLayer[ms.Name]; !ok || m.Unit != ms.Unit {
				t.Errorf("%s: per-layer %s = %+v (present %v), want unit %s", wl.Name, ms.Name, m, ok, ms.Unit)
			}
		}
		if len(wr.PerLayer) != len(spec.PerLayer) {
			t.Errorf("%s: %d per-layer metrics emitted, BENCHMARK.json lists %d", wl.Name, len(wr.PerLayer), len(spec.PerLayer))
		}
	}

	// A result compares clean against itself, and the comparer rules on
	// every end-to-end metric of every workload.
	stdout.Reset()
	if code := harnessMain([]string{"-spec", "../BENCHMARK.json", "-compare", out, out}, &stdout); code != 0 {
		t.Errorf("self-compare exited %d\n%s", code, stdout.String())
	}

	// Driver mode: the last line is the result object, with exactly the
	// end-to-end metrics untraced and exactly the per-layer metrics traced.
	for _, traced := range []string{"0", "1"} {
		stdout.Reset()
		args := append(common, "-workload", "frontend-wide", "-seed", "7", "-seconds", "0", "-trace", traced)
		if code := harnessMain(args, &stdout); code != 0 {
			t.Fatalf("driver run -trace %s exited %d\n%s", traced, code, stdout.String())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var dr driverResult
		if err := json.Unmarshal(lines[len(lines)-1], &dr); err != nil {
			t.Fatalf("driver result line: %v\n%s", err, stdout.String())
		}
		want := spec.EndToEnd
		if traced == "1" {
			want = spec.PerLayer
		}
		if !dr.Correct || dr.Attempted < 3 || dr.Failed != 0 || len(dr.Metrics) != len(want) {
			t.Errorf("-trace %s: correct %v attempted %d failed %d, %d metrics (want %d)", traced, dr.Correct, dr.Attempted, dr.Failed, len(dr.Metrics), len(want))
		}
		for _, ms := range want {
			if m, ok := dr.Metrics[ms.Name]; !ok || m.Unit != ms.Unit {
				t.Errorf("-trace %s: %s = %+v (present %v), want unit %s", traced, ms.Name, m, ok, ms.Unit)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4),
// whose spread the driver judges the benchmark by.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles(sample{4.6, 5.0, 4.8, 5.4, 4.7, 4.9, 5.1, 4.75, 5.2, 4.85})
	if d1, d3 := q1-4.7375, q3-5.125; d1*d1 > 1e-18 || d3*d3 > 1e-18 {
		t.Errorf("quartiles = %v, %v; Python gives 4.7375, 5.125", q1, q3)
	}
}
