package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunTwoThreadTSO(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "TSO", "-threads", "2", "-trials", "20000", "-seed", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"exact DP (n=2)", "paper (Thm 6.2)", "full Monte Carlo", "hybrid (Thm 6.1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunLargeNSkipsFullMC(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "WO", "-threads", "8", "-trials", "5000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "full Monte Carlo") {
		t.Errorf("n=8 ran full MC:\n%s", out)
	}
	if !strings.Contains(out, "hybrid") {
		t.Errorf("n=8 missing hybrid:\n%s", out)
	}
}

// TestRunAdaptiveFlags: -ci-halfwidth switches the Monte Carlo routes to
// adaptive sampling (the notes column reports trials and stop reason)
// while the exact DP row is untouched.
func TestRunAdaptiveFlags(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "TSO", "-threads", "2", "-trials", "200000",
		"-ci-halfwidth", "0.02", "-seed", "1"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "adaptive:") || !strings.Contains(out, "converged") {
		t.Errorf("adaptive run does not report its cost:\n%s", out)
	}
	if !strings.Contains(out, "exact DP (n=2)") {
		t.Errorf("exact row missing from adaptive run:\n%s", out)
	}
}

func TestRunRejectsOrphanMaxTrials(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "TSO", "-max-trials", "1000"}, &sb); err == nil {
		t.Error("-max-trials without a target accepted")
	}
}

// TestRunRejectsNegativeTarget: a sign typo must error out, not silently
// run the full fixed budget.
func TestRunRejectsNegativeTarget(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "TSO", "-ci-halfwidth", "-0.005"}, &sb); err == nil {
		t.Error("negative -ci-halfwidth accepted")
	}
}

func TestRunRejectsBadModel(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "RC"}, &sb); err == nil {
		t.Error("bad model accepted")
	}
}

func TestRunRejectsBadThreads(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-threads", "1"}, &sb); err == nil {
		t.Error("threads=1 accepted")
	}
}

func TestRunSweep(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-sweep", "-trials", "3000"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "ratio to SC") || !strings.Contains(out, "WO") {
		t.Errorf("sweep output malformed:\n%s", out)
	}
}

// TestRunSweepRejectsPointFlags: the sweep reads only -trials, -seed and
// -trace-json, so a single-point flag given with -sweep fails by name
// instead of being dropped.
func TestRunSweepRejectsPointFlags(t *testing.T) {
	for _, flagArgs := range [][]string{
		{"-model", "WO"}, {"-threads", "3"}, {"-m", "8"}, {"-p", "0.9"}, {"-s", "0.9"},
		{"-ci-halfwidth", "0.01"}, {"-ci-relerr", "0.05"}, {"-max-trials", "1000"},
	} {
		args := append([]string{"-sweep", "-trials", "64"}, flagArgs...)
		var sb strings.Builder
		err := run(args, &sb)
		if err == nil || !strings.Contains(err.Error(), flagArgs[0]) {
			t.Errorf("%v: err = %v, want a rejection naming %s", args, err, flagArgs[0])
		}
	}
}

// TestTraceJSON pins the -trace-json flag: the run succeeds and the file
// holds a span tree rooted at memrisk with per-route estimate children.
func TestTraceJSON(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	var sb strings.Builder
	err := run([]string{"-model", "TSO", "-threads", "2", "-trials", "2000",
		"-seed", "5", "-trace-json", trace}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var span struct {
		Name     string `json:"name"`
		Children []any  `json:"children"`
	}
	if err := json.Unmarshal(raw, &span); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, raw)
	}
	if span.Name != "memrisk" {
		t.Errorf("trace root = %q, want memrisk", span.Name)
	}
	if len(span.Children) == 0 {
		t.Error("trace has no estimate spans")
	}
}
