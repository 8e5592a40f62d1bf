// litmusrun exhaustively checks litmus tests against each registered
// memory model on the operational simulator, and optionally measures
// relaxed-outcome frequencies under a random scheduler. Tests come from
// the built-in registry or, with -f, from .litmus files in the text DSL
// (litmus.Parse).
//
// Usage:
//
//	litmusrun                      # conformance matrix for all built-in tests
//	litmusrun -json                # machine-readable conformance results
//	litmusrun -test SB -freq 20000 # frequency measurement for one test
//	litmusrun -f sb.litmus -json   # check tests from a DSL file
//	litmusrun -f dir/ -models SC,RMO
//
// -json emits the same encoding the serve API's GET /v1/litmus endpoint
// returns (litmus.EncodeResultsJSON): running -f over
// internal/litmus/registry.litmus, the file the built-in registry is
// parsed from, reproduces the built-in matrix byte-for-byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"memreliability/internal/litmus"
	"memreliability/internal/memmodel"
	"memreliability/internal/report"
	"memreliability/internal/rng"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "litmusrun: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("litmusrun", flag.ContinueOnError)
	testName := fs.String("test", "", "run a single named test (default: all)")
	freq := fs.Int("freq", 0, "also measure target frequency over this many random runs")
	seed := fs.Uint64("seed", 1, "seed for frequency runs")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (the GET /v1/litmus encoding) instead of tables")
	modelsFlag := fs.String("models", "", "comma-separated model names to check (default: every registered model)")
	var files []string
	fs.Func("f", "load tests from a .litmus `file` or directory of them instead of the built-in registry (repeatable)", func(v string) error {
		files = append(files, v)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *jsonOut && *freq > 0 {
		return fmt.Errorf("-json covers conformance only and cannot be combined with -freq")
	}

	models, err := selectModels(*modelsFlag)
	if err != nil {
		return err
	}
	tests, err := selectTests(files, *testName)
	if err != nil {
		return err
	}

	var results []litmus.Result
	for _, t := range tests {
		for _, model := range models {
			r, err := litmus.Check(t, model)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
	}
	if *jsonOut {
		return litmus.EncodeResultsJSON(out, results)
	}

	tbl, err := report.NewTable("Litmus conformance (exhaustive exploration; X = target reachable)",
		"test", "target", "model", "reachable", "expected", "conforms", "outcomes")
	if err != nil {
		return err
	}
	for _, r := range results {
		if err := tbl.AddRowValues(r.Test, r.Target, r.Model,
			mark(r.Reachable), mark(r.Expected), fmt.Sprintf("%v", r.Conforms()),
			r.Outcomes); err != nil {
			return err
		}
	}
	if err := tbl.WriteText(out); err != nil {
		return err
	}

	if *freq > 0 {
		src := rng.New(*seed)
		ftbl, err := report.NewTable(
			fmt.Sprintf("\nTarget frequency under a uniform random scheduler (%d runs)", *freq),
			"test", "model", "frequency")
		if err != nil {
			return err
		}
		for _, t := range tests {
			for _, model := range models {
				f, err := litmus.TargetFrequency(t, model, *freq, src)
				if err != nil {
					return err
				}
				if err := ftbl.AddRowValues(t.Name, model.Name(), f); err != nil {
					return err
				}
			}
		}
		if err := ftbl.WriteText(out); err != nil {
			return err
		}
	}
	return nil
}

// selectModels resolves the -models filter (default: every registered
// model, variants included).
func selectModels(spec string) ([]memmodel.Model, error) {
	if spec == "" {
		return memmodel.Registered(), nil
	}
	var models []memmodel.Model
	for _, name := range strings.Split(spec, ",") {
		m, err := memmodel.ByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		models = append(models, m)
	}
	return models, nil
}

// selectTests loads the test set: the built-in registry, or — with -f
// paths — the union of the named DSL files (directories contribute
// every *.litmus inside, sorted). Test names must be unique across the
// loaded set.
func selectTests(files []string, testName string) ([]litmus.Test, error) {
	var tests []litmus.Test
	if len(files) == 0 {
		tests = litmus.Registry()
	} else {
		seen := map[string]string{} // test name → source file
		for _, path := range files {
			resolved, err := expandPath(path)
			if err != nil {
				return nil, err
			}
			for _, file := range resolved {
				data, err := os.ReadFile(file)
				if err != nil {
					return nil, err
				}
				parsed, err := litmus.Parse(file, data)
				if err != nil {
					return nil, err
				}
				for _, t := range parsed {
					if prev, dup := seen[t.Name]; dup {
						return nil, fmt.Errorf("test %q defined in both %s and %s", t.Name, prev, file)
					}
					seen[t.Name] = file
					tests = append(tests, t)
				}
			}
		}
	}
	if testName == "" {
		return tests, nil
	}
	for _, t := range tests {
		if t.Name == testName {
			return []litmus.Test{t}, nil
		}
	}
	return nil, fmt.Errorf("no litmus test named %q in the selected set", testName)
}

// expandPath resolves one -f operand: a directory yields its *.litmus
// files in sorted order, a file yields itself.
func expandPath(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".litmus") {
			out = append(out, filepath.Join(path, e.Name()))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s contains no .litmus files", path)
	}
	sort.Strings(out)
	return out, nil
}

func mark(b bool) string {
	if b {
		return "X"
	}
	return "-"
}
