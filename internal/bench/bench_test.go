package bench

import (
	"strings"
	"testing"
	"time"
)

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"zookeeper-sim", "hadoop-sim", "hdfs-sim", "hbase-sim", "#LoC"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestMiniSubjectTables(t *testing.T) {
	run, err := RunSubject("mini-sim", RunOptions{WorkDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	runs := []*SubjectRun{run}
	t2 := Table2(runs)
	if !strings.Contains(t2, "mini-sim") {
		t.Errorf("table 2:\n%s", t2)
	}
	t3 := Table3(runs)
	if !strings.Contains(t3, "#EA") || !strings.Contains(t3, "mini-sim") {
		t.Errorf("table 3:\n%s", t3)
	}
	f9 := Figure9(runs)
	if !strings.Contains(f9, "SMT solving") {
		t.Errorf("figure 9:\n%s", f9)
	}
	tot := run.Tally.Totals()
	if tot.TP == 0 {
		t.Fatalf("mini subject found no bugs: %+v", run.Tally)
	}
}

func TestTable4Mini(t *testing.T) {
	out, rows, err := Table4([]string{"mini-sim"}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Constraints == 0 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Hits == 0 || rows[0].HitRate <= 0 {
		t.Fatalf("cache ineffective: %+v", rows[0])
	}
	if !strings.Contains(out, "TOC") {
		t.Errorf("table 4:\n%s", out)
	}
}

func TestTable5Mini(t *testing.T) {
	out, rows, err := Table5([]string{"mini-sim"}, t.TempDir(), 1<<20, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows: %+v", rows)
	}
	r := rows[0]
	// The naive representation must cost at least as many partitions and
	// more constraint solves (no memoization) — the Table 5 shape.
	if !r.NaiveDNF && r.NaiveConstraints < r.GrappleConstraints {
		t.Errorf("naive should solve more constraints: %+v", r)
	}
	if !strings.Contains(out, "naive") {
		t.Errorf("table 5:\n%s", out)
	}
}

func TestTableOOMMini(t *testing.T) {
	out, err := TableOOM([]string{"mini-sim"}, 64<<10, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "OOM") {
		t.Errorf("traditional implementation should OOM under 1 MiB:\n%s", out)
	}
}

func TestUnknownSubject(t *testing.T) {
	if _, err := RunSubject("nope", RunOptions{}); err == nil {
		t.Fatal("want error for unknown subject")
	}
}
