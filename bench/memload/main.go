// Command memload is the end-to-end workload benchmark of the estimation
// stack. It generates load from one process, measures what a user sees,
// checks every output, and in a traced run attributes the time to the
// stack's layers: rng → core → mc → estimator → sweep → cluster/store →
// serve. bench/README.md explains the workloads and metrics.
//
// From the repository root:
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [-o record.json]
//
// It prints one line per metric (name, value, unit), then, last, one
// JSON object with the keys correct, attempted, failed and metrics. It
// exits 1 when an output check fails and 2 when the run cannot finish.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("memload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", runSeconds, "length of the measured phase, in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	recordPath := fs.String("o", "", "also write the run's full record to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookupWorkload(*workload); !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "memload: need -workload (%s), -seconds of at least 1 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	e := &env{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		w:        min(runtime.NumCPU(), 4),
		dir:      filepath.Join("bench", "out"),
	}
	return execute(context.Background(), e, *recordPath, stdout, stderr)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the -o file: the result plus what produced it.
type record struct {
	Workload     string   `json:"workload"`
	Seed         uint64   `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	W            int      `json:"w"`
	NProc        int      `json:"nproc"`
	GoVersion    string   `json:"go_version"`
	Revision     string   `json:"revision"`
	WrongResults int      `json:"wrong_results"`
	ErrorRatio   float64  `json:"error_ratio"`
	FailedChecks []string `json:"failed_checks,omitempty"`
	Result       result   `json:"result"`
}

// execute runs e and reports it, returning the exit code.
func execute(ctx context.Context, e *env, recordPath string, stdout, stderr io.Writer) int {
	o, err := runWorkload(ctx, e)
	if err != nil {
		fmt.Fprintf(stderr, "memload: %v\n", err)
		return 2
	}
	catalog := endToEnd
	if e.trace {
		catalog = perLayer
	}
	res := result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range catalog {
		v := o.metrics[m.name]
		res.Metrics[m.name] = value{v, m.unit}
		fmt.Fprintf(stdout, "%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	errorRatio := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Fprintf(stdout, "%-36s %14d count\n", "wrong_results", len(o.wrong))
	fmt.Fprintf(stdout, "%-36s %14.6g ratio (%d failed of %d attempted)\n", "error_ratio", errorRatio, o.failed, o.attempted)
	for _, w := range o.wrong {
		fmt.Fprintf(stderr, "memload: wrong result: %s\n", w)
	}
	rec := record{
		Workload: e.workload, Seed: e.seed, Seconds: e.budget.Seconds(), Trace: e.trace,
		W: e.w, NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Revision: revision(),
		WrongResults: len(o.wrong), ErrorRatio: errorRatio, FailedChecks: o.wrong, Result: res,
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d W=%d nproc=%d go=%s rev=%s\n",
		rec.Workload, rec.Seed, rec.W, rec.NProc, rec.GoVersion, rec.Revision)
	if recordPath != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(recordPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "memload: write record: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "memload: encode result: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// revision is the VCS revision the binary was built from, when the
// build could see one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "-dirty"
		}
	}
	return rev + dirty
}
