package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/grapple-system/grapple/internal/engine"
	"github.com/grapple-system/grapple/internal/smt"
	"github.com/grapple-system/grapple/internal/storage"
)

// HotpathRow is one subject's hot-path measurement: the v2 decode path with
// the zero-copy block cursor against the legacy stream decoder, and the edge
// join's cost per induced edge.
type HotpathRow struct {
	Subject string `json:"subject"`

	// Decode side: reading the subject's alias-graph edges back from one v2
	// partition file.
	Records           int64   `json:"records"`
	DecodeNsZeroCopy  float64 `json:"decode_ns_per_record_zero_copy"`
	DecodeNsLegacy    float64 `json:"decode_ns_per_record_legacy"`
	AllocsRecZeroCopy float64 `json:"allocs_per_record_zero_copy"`
	AllocsRecLegacy   float64 `json:"allocs_per_record_legacy"`

	// Join side: closing the alias graph out of core. JoinNsBefore is the
	// same measurement from an earlier artifact taken on the same host
	// (WithHotpathBefore), zero when none was given.
	InducedEdges int64         `json:"induced_edges"`
	JoinNs       float64       `json:"join_ns_per_edge"`
	JoinNsBefore float64       `json:"join_ns_per_edge_before,omitempty"`
	Wall         time.Duration `json:"wall_ns"`
}

// HotpathHost records where a hotpath artifact was measured; join numbers
// from different hosts are not comparable.
type HotpathHost struct {
	NCPU int    `json:"ncpu"`
	Go   string `json:"go"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
}

// HotpathFile is the schema of BENCH_hotpath.json.
type HotpathFile struct {
	Host HotpathHost  `json:"host"`
	Rows []HotpathRow `json:"rows"`
}

// AllocSaving reports the fractional allocs/record reduction of the
// zero-copy decoder (the number the alloc-budget CI gate checks).
func (r HotpathRow) AllocSaving() float64 {
	if r.AllocsRecLegacy == 0 {
		return 0
	}
	return 1 - r.AllocsRecZeroCopy/r.AllocsRecLegacy
}

// hotpathJoinBudget matches the I/O table's out-of-core budget: small enough
// that the join actually cycles partitions through the pools every
// superstep instead of staying resident.
const hotpathJoinBudget = 4 << 20

// HotpathTable measures both hot paths for the named subjects (default: all
// four profiles).
func HotpathTable(names []string, workDir string) (string, []HotpathRow, error) {
	if len(names) == 0 {
		names = SubjectNames()
	}
	var rows []HotpathRow
	for _, name := range names {
		row, err := runHotpath(name, workDir)
		if err != nil {
			return "", nil, err
		}
		rows = append(rows, row)
	}

	var b strings.Builder
	b.WriteString("Hot path: zero-copy v2 decode vs legacy stream decode, and the out-of-core edge join.\n")
	fmt.Fprintf(&b, "%-15s %8s %10s %10s %9s %9s %8s | %9s %12s\n",
		"Subject", "records", "ns/rec zc", "ns/rec leg", "alloc/zc", "alloc/leg", "saving",
		"induced", "ns/join")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %8d %10.0f %10.0f %9.3f %9.3f %7.0f%% | %9d %12.0f\n",
			r.Subject, r.Records, r.DecodeNsZeroCopy, r.DecodeNsLegacy,
			r.AllocsRecZeroCopy, r.AllocsRecLegacy, 100*r.AllocSaving(),
			r.InducedEdges, r.JoinNs)
	}
	return b.String(), rows, nil
}

func runHotpath(name, workDir string) (HotpathRow, error) {
	ic, ag, err := aliasGraphFor(name)
	if err != nil {
		return HotpathRow{}, err
	}
	row := HotpathRow{Subject: name, Records: int64(len(ag.Edges))}

	dir, err := os.MkdirTemp(workDir, "grapple-hotpath-*")
	if err != nil {
		return HotpathRow{}, err
	}
	defer os.RemoveAll(dir)

	// Decode side: one v2 partition file holding the subject's initial alias
	// edges, read back in both modes.
	path := filepath.Join(dir, "decode.edges")
	if _, err := storage.WritePart(path, ag.Edges, storage.PartInfo{Lo: 0, Hi: ag.NumVerts}); err != nil {
		return HotpathRow{}, err
	}
	zcNs, zcAllocs, err := measureDecode(path, len(ag.Edges), storage.ReadOptions{})
	if err != nil {
		return HotpathRow{}, err
	}
	legNs, legAllocs, err := measureDecode(path, len(ag.Edges), storage.ReadOptions{LegacyDecode: true})
	if err != nil {
		return HotpathRow{}, err
	}
	row.DecodeNsZeroCopy, row.AllocsRecZeroCopy = zcNs, zcAllocs
	row.DecodeNsLegacy, row.AllocsRecLegacy = legNs, legAllocs

	// Join side: close the alias graph under the out-of-core budget.
	en := engine.New(ic, ag.Ptr.G, engine.Options{
		Dir:          filepath.Join(dir, "join"),
		MemoryBudget: hotpathJoinBudget,
		SolverOpts:   smt.DefaultOptions(),
	}, nil)
	start := time.Now()
	st, err := en.Run(cloneEdges(ag.Edges), ag.NumVerts)
	if err != nil {
		return HotpathRow{}, err
	}
	row.Wall = time.Since(start)
	row.InducedEdges = st.EdgesAfter - st.EdgesBefore
	if row.InducedEdges > 0 {
		row.JoinNs = float64(row.Wall.Nanoseconds()) / float64(row.InducedEdges)
	}
	return row, nil
}

// measureDecode reads path best-of-three in the given mode, returning
// ns/record and allocs/record. Allocation counts come from the runtime's
// Mallocs counter around each pass; the minimum over passes discards GC and
// scheduler noise.
func measureDecode(path string, records int, opt storage.ReadOptions) (nsPerRec, allocsPerRec float64, err error) {
	if records == 0 {
		return 0, 0, nil
	}
	dst := make([]storage.Edge, 0, records)
	// Warmup pass: page cache, dst capacity.
	if dst, _, _, err = storage.ReadPartWith(path, dst[:0], opt); err != nil {
		return 0, 0, err
	}
	bestNs, bestAllocs := float64(0), float64(0)
	var ms runtime.MemStats
	for pass := 0; pass < 3; pass++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		if dst, _, _, err = storage.ReadPartWith(path, dst[:0], opt); err != nil {
			return 0, 0, err
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns := float64(wall.Nanoseconds()) / float64(records)
		allocs := float64(ms.Mallocs-before) / float64(records)
		if pass == 0 || ns < bestNs {
			bestNs = ns
		}
		if pass == 0 || allocs < bestAllocs {
			bestAllocs = allocs
		}
	}
	return bestNs, bestAllocs, nil
}

// WithHotpathBefore fills each row's JoinNsBefore from an earlier artifact
// at path: the current schema's join_ns_per_edge, or the pooled number of
// the bare-array schema that predates the host record.
func WithHotpathBefore(rows []HotpathRow, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	type oldRow struct {
		Subject string  `json:"subject"`
		JoinNs  float64 `json:"join_ns_per_edge"`
		Pooled  float64 `json:"join_ns_per_edge_pooled"`
	}
	var file struct {
		Rows []oldRow `json:"rows"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		if err2 := json.Unmarshal(data, &file.Rows); err2 != nil {
			return fmt.Errorf("bench: %s: %w", path, err)
		}
	}
	before := map[string]float64{}
	for _, r := range file.Rows {
		before[r.Subject] = r.JoinNs + r.Pooled // exactly one is set
	}
	for i := range rows {
		rows[i].JoinNsBefore = before[rows[i].Subject]
	}
	return nil
}

// WriteHotpathJSON records the table's rows and the measuring host as
// machine-readable JSON (the BENCH_hotpath.json artifact `make
// bench-hotpath` commits next to EXPERIMENTS.md).
func WriteHotpathJSON(path string, rows []HotpathRow) error {
	data, err := json.MarshalIndent(HotpathFile{
		Host: HotpathHost{NCPU: runtime.NumCPU(), Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH},
		Rows: rows,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
