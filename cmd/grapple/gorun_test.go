package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunBadSpecExitsTwo(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "bad.spec", `
fsm broken for T {
  states A;
  init Nope;
}
`)
	prog := writeFile(t, dir, "p.ml", leakySrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"run", "-fsm", spec, prog}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (err=%v)", code, err)
	}
	if err == nil || !strings.Contains(err.Error(), "fsm spec") {
		t.Fatalf("want fsm spec error, got %v", err)
	}
}

const leakyGoSrc = `package p

import "os"

func Leak(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	f.Read(nil)
	return nil
}
`

const cleanGoSrc = `package p

import "os"

func Clean(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	f.Read(nil)
	return nil
}
`

func TestRunGoLeak(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"run", "-pack", "file-handle", dir}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d, want 1; out=%q", code, out.String())
	}
	if !strings.Contains(out.String(), "leak.go:6:") {
		t.Fatalf("report not mapped to Go source: %q", out.String())
	}
}

func TestRunGoClean(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "clean.go", cleanGoSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"run", "-pack", "file-handle", "-pack", "use-after-release", dir}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0; out=%q", code, out.String())
	}
}

func TestRunGoWithoutPackExitsTwo(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	var out, errb bytes.Buffer
	code, _ := run([]string{"run", dir}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "requires -pack") {
		t.Fatalf("stderr: %q", errb.String())
	}
}

func TestRunListPacks(t *testing.T) {
	var out, errb bytes.Buffer
	code, err := run([]string{"-packs"}, &out, &errb)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v", code, err)
	}
	for _, name := range []string{"file-handle", "use-after-release", "mutex", "context-cancel", "http-body", "sql-rows"} {
		if !strings.Contains(out.String(), name) {
			t.Fatalf("pack %s missing from listing: %q", name, out.String())
		}
	}
}

func TestLintGoPackage(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", "-pack", "file-handle", dir}, &out, &errb)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 && code != 1 {
		t.Fatalf("exit code %d, want 0 or 1", code)
	}
	if code == 1 && !strings.Contains(out.String(), "leak.go:") {
		t.Fatalf("diagnostics not mapped to Go source: %q", out.String())
	}
}

func TestRunGoUnknownPackExitsTwoListingPacks(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"run", "-pack", "no-such-pack", dir}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (err=%v)", code, err)
	}
	if err == nil || !strings.Contains(err.Error(), `unknown property pack "no-such-pack"`) {
		t.Fatalf("error %v, want unknown property pack", err)
	}
	// The error must enumerate the library so the user can correct the name.
	for _, name := range []string{"file-handle", "mutex", "context-cancel"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("pack %s missing from error: %v", name, err)
		}
	}
}

func TestLintGoUnknownPackExitsTwoListingPacks(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", "-pack", "bogus", dir}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (err=%v)", code, err)
	}
	if err == nil || !strings.Contains(err.Error(), `unknown property pack "bogus"`) ||
		!strings.Contains(err.Error(), "file-handle") {
		t.Fatalf("error %v, want unknown pack with library listing", err)
	}
}

func TestLintUnknownRuleListsKnownCodes(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "leak.go", leakyGoSrc)
	var out, errb bytes.Buffer
	code, err := run([]string{"lint", "-rules", "ZZ123", dir}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit code %d, want 2 (err=%v)", code, err)
	}
	if err == nil || !strings.Contains(err.Error(), `unknown lint rule "ZZ123"`) {
		t.Fatalf("error %v, want unknown lint rule", err)
	}
	// The listing must include the concurrency rules alongside the classics.
	for _, want := range []string{"ND001", "LK001", "GR001", "GR002"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("rule %s missing from error: %v", want, err)
		}
	}
}
