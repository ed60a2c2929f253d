package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// harnessPkg is this package's import path: what `go build` is given, from
// the repository root and from this directory alike.
const harnessPkg = "github.com/grapple-system/grapple/benchmark"

// setupReps is how often one harness invocation sets up; setup_s is the
// median, so one slow link does not decide it.
const setupReps = 3

// setUp performs the whole set-up reps times: build the program with the
// harness around it (warm build cache, fresh output, so it links) and
// generate and write every workload's inputs. The build is only timed: the
// measured checks re-execute the running binary, which run.sh built from
// the same source. It returns the last round's inputs and every round's
// duration at the speed of the reference host, as every time metric is
// (hostprobe.go).
func setUp(cfg *config, ws []workloadDef, reps int) (inputs map[string][]inputFile, times sample, err error) {
	for i := 0; i < reps; i++ {
		dir := filepath.Join(cfg.scratch, "setup-"+strconv.Itoa(i))
		before := cfg.host.slowdown()
		start := time.Now()
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "grapple-benchmark"), harnessPkg)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		sp := cfg.rec.Start(0, "harness", "build")
		err := cmd.Run()
		sp.End(nil)
		if err != nil {
			return nil, nil, fmt.Errorf("go build %s: %w: %s", harnessPkg, err, bytes.TrimSpace(stderr.Bytes()))
		}
		sp = cfg.rec.Start(0, "harness", "generate")
		inputs = map[string][]inputFile{}
		for _, w := range ws {
			in, err := generateInputs(w, cfg.seed, filepath.Join(dir, "inputs", w.Name))
			if err != nil {
				return nil, nil, err
			}
			inputs[w.Name] = in
		}
		sp.End(nil)
		timed := time.Since(start).Seconds()
		times = append(times, timed/((before+cfg.host.sample())/2))
		if i < reps-1 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, nil, err
			}
		}
	}
	return inputs, times, nil
}
