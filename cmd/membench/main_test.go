package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memreliability/internal/perf"
)

func TestListScenarios(t *testing.T) {
	var out, progress bytes.Buffer
	if err := run([]string{"-list"}, &out, &progress); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exact-dp/", "fixed-mc/", "adaptive-mc/", "hybrid/", "windowdist/", "bits-kernel/chunk-8k"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("listing lacks %q:\n%s", want, out.String())
		}
	}
}

// TestRunWritesRecordAndSelfCompares runs the whole suite once (one op
// per scenario), checks the emitted artifact's shape, and verifies the
// gate passes against itself. Under the race detector the zero-alloc
// gate is off: sync.Pool drops a share of its puts there, so pooled
// scratch is rebuilt and a zero-alloc scenario reads an allocation.
func TestRunWritesRecordAndSelfCompares(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run in -short mode")
	}
	var gate []string
	if raceEnabled {
		gate = []string{"-require-zero-alloc=false"}
	}
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	var stdout, progress bytes.Buffer
	if err := run(append([]string{"-benchtime", "1x", "-rev", "test", "-o", out}, gate...), &stdout, &progress); err != nil {
		t.Fatalf("%v\nprogress:\n%s", err, progress.String())
	}
	rec, err := perf.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SchemaVersion != perf.SchemaVersion || rec.Revision != "test" || rec.GoVersion == "" {
		t.Errorf("bad stamp: %+v", rec)
	}
	if len(rec.Scenarios) != len(perf.Suite()) {
		t.Errorf("recorded %d scenarios, suite has %d", len(rec.Scenarios), len(perf.Suite()))
	}
	for _, s := range rec.Scenarios {
		if s.NsPerOp <= 0 || s.Ops <= 0 {
			t.Errorf("implausible measurement %+v", s)
		}
	}

	var table bytes.Buffer
	if err := run(append([]string{"-compare-only", "-baseline", out, "-o", out}, gate...), &table, &progress); err != nil {
		t.Fatalf("self-comparison failed: %v\n%s", err, table.String())
	}
	if !strings.Contains(table.String(), "PASS") {
		t.Errorf("self-comparison table:\n%s", table.String())
	}
}

// TestCompareOnlyGateFails crafts a regressed record pair on disk and
// checks the CLI exits with the regression error.
func TestCompareOnlyGateFails(t *testing.T) {
	dir := t.TempDir()
	base := perf.NewRecord("base")
	base.Scenarios = []perf.ScenarioResult{{ID: "s", NsPerOp: 100, Ops: 1}}
	fresh := perf.NewRecord("fresh")
	fresh.Scenarios = []perf.ScenarioResult{{ID: "s", NsPerOp: 500, Ops: 1}}
	basePath, freshPath := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	if err := perf.WriteFile(basePath, base); err != nil {
		t.Fatal(err)
	}
	if err := perf.WriteFile(freshPath, fresh); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	err := run([]string{"-compare-only", "-baseline", basePath, "-o", freshPath}, &table, os.Stderr)
	if !errors.Is(err, errRegression) {
		t.Errorf("err = %v, want errRegression\n%s", err, table.String())
	}
	if !strings.Contains(table.String(), "FAIL") {
		t.Errorf("table:\n%s", table.String())
	}
	// The same pair passes under an explicitly loose ratio.
	table.Reset()
	if err := run([]string{"-compare-only", "-baseline", basePath, "-o", freshPath,
		"-max-ns-ratio", "10"}, &table, os.Stderr); err != nil {
		t.Errorf("loose gate failed: %v\n%s", err, table.String())
	}
}
