package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memreliability/internal/litmus"
	"memreliability/internal/memmodel"
)

func TestRunAllTests(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"SB", "MP", "LB", "IRIW", "INC", "RMO", "LRO", "conforms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "false") {
		t.Errorf("some test did not conform:\n%s", out)
	}
}

func TestRunSingleTestWithFrequency(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-test", "SB", "-freq", "2000"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Target frequency") {
		t.Errorf("frequency table missing:\n%s", out)
	}
	if strings.Contains(out, "MP") {
		t.Error("single-test run printed other tests")
	}
}

func TestRunUnknownTest(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-test", "NOPE"}, &sb); err == nil {
		t.Error("unknown test accepted")
	}
}

func TestRunJSON(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-json"}, &sb); err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Test     string `json:"test"`
		Model    string `json:"model"`
		Target   string `json:"target"`
		Conforms bool   `json:"conforms"`
		Outcomes int    `json:"outcomes"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &results); err != nil {
		t.Fatalf("output is not the JSON encoding: %v\n%s", err, sb.String())
	}
	if len(results) != len(litmus.Registry())*len(memmodel.Registered()) {
		t.Fatalf("%d results, want %d", len(results), len(litmus.Registry())*len(memmodel.Registered()))
	}
	for _, r := range results {
		if !r.Conforms {
			t.Errorf("%s under %s does not conform", r.Test, r.Model)
		}
		if r.Target == "" || r.Outcomes == 0 {
			t.Errorf("incomplete record: %+v", r)
		}
	}

	// -json must emit exactly the shared wire encoding the serve API
	// uses, so machine consumers can switch between the two freely.
	all, err := litmus.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := litmus.EncodeResultsJSON(&want, all); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want.String() {
		t.Error("-json output differs from litmus.EncodeResultsJSON")
	}
}

func TestRunJSONSingleTest(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-json", "-test", "MP"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"MP"`) || strings.Contains(sb.String(), `"SB"`) {
		t.Errorf("single-test JSON wrong:\n%s", sb.String())
	}
}

func TestRunJSONRejectsFreq(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-json", "-freq", "100"}, &sb); err == nil {
		t.Error("-json with -freq accepted")
	}
}

// registryFile is the DSL file the built-in registry is parsed from.
var registryFile = filepath.Join("..", "..", "internal", "litmus", "registry.litmus")

// TestFileModeMatchesRegistryJSON is the acceptance gate: running the
// committed registry.litmus through -f must reproduce the built-in
// registry's JSON byte-for-byte.
func TestFileModeMatchesRegistryJSON(t *testing.T) {
	var registry bytes.Buffer
	if err := run([]string{"-json"}, &registry); err != nil {
		t.Fatal(err)
	}
	var fromFile bytes.Buffer
	if err := run([]string{"-json", "-f", registryFile}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(registry.Bytes(), fromFile.Bytes()) {
		t.Errorf("file-mode JSON differs from registry JSON:\nregistry: %s\nfile:     %s",
			registry.Bytes(), fromFile.Bytes())
	}
}

// TestDirectoryMode loads a directory holding one file per built-in
// test at once (sorted file order) and checks the full matrix comes
// back.
func TestDirectoryMode(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range litmus.Registry() {
		data, err := litmus.Print(tc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, tc.Name+".litmus"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-f", dir, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var results []json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output is not the litmus JSON encoding: %v", err)
	}
	if want := len(litmus.Registry()) * len(memmodel.Registered()); len(results) != want {
		t.Errorf("directory mode returned %d results, want %d", len(results), want)
	}
}

// TestModelsFilter restricts the matrix to the named models (variants
// included, any casing).
func TestModelsFilter(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-test", "SB", "-models", "SC,lro", "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Model string `json:"model"`
	}
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2: %s", len(results), out.Bytes())
	}
	if results[0].Model != "SC" || results[1].Model != "LRO" {
		t.Errorf("models = %s, %s; want SC, LRO (canonical casing)",
			results[0].Model, results[1].Model)
	}
}

func TestUnknownModelRejected(t *testing.T) {
	err := run([]string{"-models", "XYZ"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Errorf("unknown -models value not rejected: %v", err)
	}
}

// TestMissingExpectationErrorsLoudly: a DSL test that omits a verdict
// for a registered model must fail the full-matrix run — never silently
// report a made-up expectation.
func TestMissingExpectationErrorsLoudly(t *testing.T) {
	f := filepath.Join(t.TempDir(), "partial.litmus")
	src := "test \"partial\" { thread { ST x = 1 } exists { x = 1 } model SC allowed }\n"
	if err := os.WriteFile(f, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-f", f, "-json"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "no expectation") {
		t.Errorf("missing expectation not flagged: %v", err)
	}
	// Restricting -models to the expectation it does carry succeeds.
	if err := run([]string{"-f", f, "-models", "SC", "-json"}, &bytes.Buffer{}); err != nil {
		t.Errorf("filtered run failed: %v", err)
	}
}

func TestDuplicateTestAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	src := "test \"dup\" { thread { FENCE } exists { x = 0 } model SC allowed }\n"
	for _, name := range []string{"a.litmus", "b.litmus"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err := run([]string{"-f", dir, "-json"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "defined in both") {
		t.Errorf("duplicate test across files not rejected: %v", err)
	}
}

func TestParseErrorsCarryPosition(t *testing.T) {
	f := filepath.Join(t.TempDir(), "bad.litmus")
	if err := os.WriteFile(f, []byte("test \"x\" {\n  bogus\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-f", f}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "bad.litmus:2:3") {
		t.Errorf("parse error lacks file:line:col position: %v", err)
	}
}

func TestMark(t *testing.T) {
	if mark(true) != "X" || mark(false) != "-" {
		t.Error("mark wrong")
	}
}
