package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	grapple "github.com/grapple-system/grapple"
	"github.com/grapple-system/grapple/internal/workload"
)

// jsonBatchReport is the machine-readable merged-stream format
// (`grapple batch -json`). Field order is fixed and reports are totally
// ordered, so the output is byte-identical across worker counts and
// submission orders.
type jsonBatchReport struct {
	Subject           string   `json:"subject"`
	Group             string   `json:"group"`
	Line              int      `json:"line"`
	Col               int      `json:"col"`
	FSM               string   `json:"fsm"`
	Kind              string   `json:"kind"`
	Type              string   `json:"type"`
	States            []string `json:"states"`
	Object            string   `json:"object,omitempty"`
	Witness           string   `json:"witness,omitempty"`
	WitnessConstraint string   `json:"witnessConstraint,omitempty"`
}

// collectSubjects resolves CLI operands into batch subjects: .ml files are
// one subject each, directories contribute every .ml file under them
// (sorted), and -profile names add generated workload subjects.
func collectSubjects(paths, profiles []string) ([]grapple.Subject, error) {
	var subjects []grapple.Subject
	addFile := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		subjects = append(subjects, grapple.Subject{Name: path, Source: string(data)})
		return nil
	}
	for _, path := range paths {
		info, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			if err := addFile(path); err != nil {
				return nil, err
			}
			continue
		}
		var files []string
		err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".ml") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		sort.Strings(files)
		if len(files) == 0 {
			return nil, fmt.Errorf("%s: no .ml files", path)
		}
		for _, f := range files {
			if err := addFile(f); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range profiles {
		p, ok := workload.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown workload profile %q", name)
		}
		s := workload.Generate(p)
		subjects = append(subjects, grapple.Subject{Name: s.Name, Source: s.Source})
	}
	seen := map[string]bool{}
	for _, s := range subjects {
		if seen[s.Name] {
			return nil, fmt.Errorf("duplicate subject %q", s.Name)
		}
		seen[s.Name] = true
	}
	return subjects, nil
}

// runBatch implements `grapple batch`: many subjects × FSM property groups
// under the bounded-worker scheduler, one shared constraint cache, one
// deterministic merged report stream. Exit 0 clean, 1 warnings, 2 usage/
// analysis error (including any failed instance).
func runBatch(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("grapple batch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cf checkFlags
	cf.register(fs)
	var profiles multiFlag
	fs.Var(&profiles, "profile", "add a generated workload profile as a subject (repeatable)")
	workers := fs.Int("workers", 0, "concurrent checking instances (default GOMAXPROCS); each instance's frontend and edge joins run on up to GOMAXPROCS goroutines of their own")
	timeout := fs.Duration("timeout", 0, "per-instance timeout (0 = none)")
	combined := fs.Bool("combined", false, "one instance per subject with all properties (instead of one per property)")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag package already printed the error
	}
	if err := cf.validate(); err != nil {
		return 2, err
	}
	if fs.NArg() == 0 && len(profiles) == 0 {
		fmt.Fprintln(stderr, "usage: grapple batch [flags] [path ...]")
		fmt.Fprintln(stderr, "paths are .ml files or directories; -profile adds generated subjects")
		fs.PrintDefaults()
		return 2, nil
	}
	fsms, err := cf.fsms()
	if err != nil {
		return 2, err
	}
	subjects, err := collectSubjects(fs.Args(), profiles)
	if err != nil {
		return 2, err
	}
	res, err := grapple.CheckAll(subjects, fsms, grapple.BatchOptions{
		Options:           cf.options(stderr),
		BatchWorkers:      *workers,
		InstanceTimeout:   *timeout,
		CombineProperties: *combined,
	})
	if err != nil {
		return 2, err
	}

	for _, r := range res.Reports {
		if cf.jsonOut {
			out, _ := json.Marshal(jsonBatchReport{
				Subject: r.Subject, Group: r.Group,
				Line: r.Pos.Line, Col: r.Pos.Col,
				FSM: r.FSM, Kind: r.Kind.String(), Type: r.Type,
				States: r.States, Object: r.Object,
				Witness: r.Witness, WitnessConstraint: r.WitnessConstraint,
			})
			fmt.Fprintln(stdout, string(out))
			continue
		}
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s: %s object may exit in state(s) %s\n",
			r.Subject, r.Pos.Line, r.Pos.Col, r.FSM, r.Kind, r.Type,
			strings.Join(r.States, ","))
		if cf.verbose {
			fmt.Fprintf(stdout, "    object:     %s\n    witness:    %s\n    constraint: %s\n",
				r.Object, r.Witness, r.WitnessConstraint)
		}
	}

	failed := res.Failed()
	for _, st := range failed {
		why := st.Err.Error()
		if st.TimedOut {
			why = fmt.Sprintf("timed out after %s", timeoutString(*timeout))
		}
		fmt.Fprintf(stderr, "grapple batch: instance %s/%s failed: %s\n", st.Subject, st.Group, why)
	}

	if cf.stats {
		// Statistics go to stderr so the merged report stream on stdout
		// stays clean for pipes; -stats -json makes them one JSON object.
		if cf.jsonOut {
			emitBatchStatsJSON(stderr, res, len(subjects))
		} else {
			emitBatchStats(stderr, res, len(subjects))
		}
	}

	switch {
	case len(failed) > 0:
		return 2, nil
	case len(res.Reports) > 0:
		return 1, nil
	default:
		return 0, nil
	}
}

func timeoutString(d time.Duration) string {
	if d <= 0 {
		return "deadline"
	}
	return d.String()
}

// emitBatchStats prints the batch -stats block (to stderr, keeping stdout
// clean for the merged report stream).
func emitBatchStats(w io.Writer, res *grapple.BatchResult, subjects int) {
	fmt.Fprintf(w, "\nbatch: %d instances over %d subjects in %v (wall)\n",
		len(res.Instances), subjects, res.Wall.Round(time.Millisecond))
	fmt.Fprintf(w, "scheduler: %s\n", res.Scheduler)
	fmt.Fprintf(w, "shared cache: %d/%d hits (%.1f%%)\n",
		res.CacheHits, res.CacheLookups, 100*res.CacheHitRate)
	fmt.Fprintf(w, "frontend prepares: %d (shared across %d instances)\n",
		res.FrontendPrepares, len(res.Instances))
	fmt.Fprintf(w, "io: %s\n", res.IO)
	for _, st := range res.Instances {
		status := "ok"
		if st.Resumed {
			status = "resumed"
		}
		if st.Err != nil {
			status = "FAILED"
		}
		fmt.Fprintf(w, "  %-20s %-12s %-6s %3d reports  wait %-10v run %v\n",
			st.Subject, st.Group, status, st.Reports,
			st.Wait.Round(time.Microsecond), st.Elapsed.Round(time.Millisecond))
	}
}

// emitBatchStatsJSON is the machine-readable -stats -json form: one JSON
// object on stderr. Durations are nanoseconds.
func emitBatchStatsJSON(w io.Writer, res *grapple.BatchResult, subjects int) {
	type jsonInstance struct {
		Subject   string `json:"subject"`
		Group     string `json:"group"`
		Status    string `json:"status"`
		Error     string `json:"error,omitempty"`
		Reports   int    `json:"reports"`
		WaitNs    int64  `json:"waitNs"`
		ElapsedNs int64  `json:"elapsedNs"`
	}
	instances := make([]jsonInstance, 0, len(res.Instances))
	for _, st := range res.Instances {
		ji := jsonInstance{
			Subject: st.Subject, Group: st.Group, Status: "ok",
			Reports: st.Reports,
			WaitNs:  st.Wait.Nanoseconds(), ElapsedNs: st.Elapsed.Nanoseconds(),
		}
		if st.Resumed {
			ji.Status = "resumed"
		}
		if st.Err != nil {
			ji.Status = "failed"
			ji.Error = st.Err.Error()
		}
		instances = append(instances, ji)
	}
	out, _ := json.Marshal(struct {
		Instances        int                    `json:"instances"`
		Subjects         int                    `json:"subjects"`
		WallNs           int64                  `json:"wallNs"`
		Scheduler        grapple.SchedulerStats `json:"scheduler"`
		CacheLookups     int64                  `json:"cacheLookups"`
		CacheHits        int64                  `json:"cacheHits"`
		CacheHitRate     float64                `json:"cacheHitRate"`
		FrontendPrepares int                    `json:"frontendPrepares"`
		IO               grapple.IOStats        `json:"io"`
		InstanceList     []jsonInstance         `json:"instanceList"`
	}{
		Instances:        len(res.Instances),
		Subjects:         subjects,
		WallNs:           res.Wall.Nanoseconds(),
		Scheduler:        res.Scheduler,
		CacheLookups:     res.CacheLookups,
		CacheHits:        res.CacheHits,
		CacheHitRate:     res.CacheHitRate,
		FrontendPrepares: res.FrontendPrepares,
		IO:               res.IO,
		InstanceList:     instances,
	})
	fmt.Fprintln(w, string(out))
}
