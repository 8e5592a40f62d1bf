package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"memreliability/internal/estimator"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the catalog")

// shortEnv is a run of workload small enough for a test.
func shortEnv(t *testing.T, workload string, trace bool) *env {
	return &env{workload: workload, seed: 7, budget: 50 * time.Millisecond, trace: trace,
		w: min(runtime.NumCPU(), 4), dir: t.TempDir(), short: true}
}

// lastResult decodes the final line of a run's standard output.
func lastResult(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

// TestWorkloadsReportEveryMetric runs every workload at test scale,
// untraced and traced, and requires every catalog metric of the mode,
// with its unit, on a text line and in the final JSON, no failed op and
// no wrong result.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			catalog := endToEnd
			if trace {
				name += "/trace"
				catalog = perLayer
			}
			t.Run(name, func(t *testing.T) {
				e := shortEnv(t, w.name, trace)
				var out, errs bytes.Buffer
				if code := execute(context.Background(), e, "", &out, &errs); code != 0 {
					t.Fatalf("exit %d\n%s%s", code, out.String(), errs.String())
				}
				res := lastResult(t, out.String())
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", res.Correct, res.Failed, res.Attempted, errs.String())
				}
				if len(res.Metrics) != len(catalog) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(catalog))
				}
				for _, m := range catalog {
					if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					line := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(m.name) + ` +\S+ ` + regexp.QuoteMeta(m.unit) + `$`)
					if !line.MatchString(out.String()) {
						t.Errorf("no text line for %s in %s", m.name, m.unit)
					}
				}
				if !strings.Contains(out.String(), "wrong_results") {
					t.Error("no wrong_results line")
				}
				if trace {
					if _, err := os.Stat(filepath.Join(e.dir, w.name+".trace.json")); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
			})
		}
	}
}

// TestTamperedResultFails proves the output checks fire: one altered
// estimate breaks exactly one mc/mc-compiled pair, and the run reports
// it and exits non-zero.
func TestTamperedResultFails(t *testing.T) {
	e := shortEnv(t, "estimate-models", false)
	e.tamper = func(r *estimator.Result) { r.Estimate += 1e-9 }
	var out bytes.Buffer
	if code := execute(context.Background(), e, "", &out, io.Discard); code == 0 {
		t.Fatalf("exit 0 with a tampered result\n%s", out.String())
	}
	if res := lastResult(t, out.String()); res.Correct {
		t.Error("tampered run reported correct")
	}
	if !regexp.MustCompile(`(?m)^wrong_results +1 count$`).MatchString(out.String()) {
		t.Errorf("want wrong_results 1:\n%s", out.String())
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the catalog
// from drifting apart: neither may name a workload or metric the other
// lacks. Run with -update to regenerate the file.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json differs from the catalog; regenerate with go test -run %s -update", t.Name())
	}
}

// TestCatalogIsWellFormed checks the catalog against the limits the
// BENCHMARK.json schema sets, and that every per-layer metric names its
// layer, an end-to-end metric it moves, and a workload.
func TestCatalogIsWellFormed(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	wl := map[string]bool{"all": true}
	for _, w := range workloads {
		check(w.name)
		wl[w.name] = true
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	e2e := map[string]bool{}
	setup := 0.0
	for _, m := range endToEnd {
		check(m.name)
		e2e[m.name] = true
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") || !(m.bound > 0 && m.bound <= 0.25) {
			t.Errorf("end-to-end metric %+v", m)
		}
		if m.name == "setup_s" {
			setup = m.bound
		}
	}
	for _, m := range endToEnd {
		if m.bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", m.name, m.bound, setup)
		}
	}
	for _, m := range perLayer {
		check(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") || m.layer == "" || !e2e[m.moves] || !wl[m.on] {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if n := len(workloads); n < 2 || n > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", n, len(endToEnd), len(perLayer))
	}
}

// TestRunRejectsBadFlags keeps the command-line contract: unknown
// workloads and trace values other than 0 and 1 fail before any work.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-open", "--trace", "2"},
		{"--workload", "serve-open", "--seconds", "0"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
