// memrisk computes the paper's bug-manifestation probabilities for a given
// memory model and thread count, using all three estimation routes
// (analytic/exact DP, full Monte Carlo, Theorem 6.1 hybrid). The single-
// point mode builds one estimator.Query per applicable route from its
// flags and dispatches the batch through the estimator registry; -sweep
// runs the Theorem 6.3 scaling sweep through the orchestration engine.
//
// Usage:
//
//	memrisk -model TSO -threads 2 -trials 200000 -seed 1
//	memrisk -model WO -threads 8 -trials 50000      # hybrid only at n>4
//	memrisk -sweep -trials 50000                    # Theorem 6.3 sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"memreliability/internal/analytic"
	"memreliability/internal/estimator"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/obs"
	"memreliability/internal/report"
	"memreliability/internal/sweep"
)

// withTrace attaches a root span to ctx when path is nonempty and
// returns a flush function that ends the span and writes the trace JSON
// to path. Tracing never perturbs results: spans observe the run's
// barriers, they do not steer it.
func withTrace(ctx context.Context, path, rootName string) (context.Context, func() error) {
	if path == "" {
		return ctx, func() error { return nil }
	}
	root := obs.NewTrace(rootName)
	return obs.WithSpan(ctx, root), func() error {
		root.End()
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create trace: %w", err)
		}
		if err := root.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// fullMCMaxThreads bounds the thread count for which full Monte Carlo is
// worth running: beyond it Pr[A] is too small to sample directly
// (Theorem 6.3's e^{-Θ(n²)} regime) and only the hybrid route is used.
const fullMCMaxThreads = 4

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "memrisk: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("memrisk", flag.ContinueOnError)
	modelName := fs.String("model", "TSO", "memory model: SC, TSO, PSO, WO, RMO, or LRO")
	threads := fs.Int("threads", 2, "number of concurrent buggy threads (n ≥ 2)")
	trials := fs.Int("trials", 200000, "Monte Carlo trials")
	seed := fs.Uint64("seed", 1, "experiment seed (runs are reproducible)")
	prefixLen := fs.Int("m", 64, "program prefix length m")
	storeProb := fs.Float64("p", 0.5, "store probability p")
	swapProb := fs.Float64("s", 0.5, "swap probability s")
	doSweep := fs.Bool("sweep", false, "run the Theorem 6.3 thread-scaling sweep instead")
	ciHalf := fs.Float64("ci-halfwidth", 0, "adaptive: stop when the CI half-width is ≤ this (0 = fixed trials)")
	ciRelErr := fs.Float64("ci-relerr", 0, "adaptive: stop when half-width ≤ relerr × estimate (0 = fixed trials)")
	maxTrials := fs.Int("max-trials", 0, "adaptive trial budget cap (0 = -trials); only with -ci-halfwidth/-ci-relerr")
	traceJSON := fs.String("trace-json", "", "write the run's span tree as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, flushTrace := withTrace(context.Background(), *traceJSON, "memrisk")

	if *doSweep {
		// The sweep fixes its models, thread counts, m, p and s and runs a
		// fixed budget, so a single-point flag given with it is refused by
		// name rather than ignored.
		var ignored string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "sweep", "trials", "seed", "trace-json":
			default:
				if ignored == "" {
					ignored = f.Name
				}
			}
		})
		if ignored != "" {
			return fmt.Errorf("-%s does not apply to -sweep, which reads only -trials, -seed and -trace-json", ignored)
		}
		if err := runSweep(ctx, out, *trials, *seed); err != nil {
			return err
		}
		return flushTrace()
	}

	model, err := memmodel.ByName(*modelName)
	if err != nil {
		return err
	}

	// One query per applicable estimation route, dispatched as a batch
	// through the estimator registry; memrisk only annotates the paper's
	// Theorem 6.2 constants alongside.
	var kinds []estimator.Kind
	if *threads == 2 {
		kinds = append(kinds, estimator.Exact)
	}
	if *threads <= fullMCMaxThreads {
		kinds = append(kinds, estimator.FullMC)
	}
	kinds = append(kinds, estimator.Hybrid)

	base := estimator.DefaultQuery()
	base.Model = model.Name()
	base.Threads = *threads
	base.PrefixLen = *prefixLen
	base.Trials = *trials
	base.StoreProb = *storeProb
	base.SwapProb = *swapProb

	// An adaptive-precision request applies to the trial-consuming routes
	// only; the exact DP has no sampling to stop. Any nonzero value —
	// negative or NaN included — builds the block, so bad targets are
	// rejected by the estimator's canonical validation instead of
	// silently running the full fixed budget.
	var precision *estimator.Precision
	if *ciHalf != 0 || *ciRelErr != 0 {
		precision = &estimator.Precision{
			TargetHalfWidth: *ciHalf,
			TargetRelErr:    *ciRelErr,
			MaxTrials:       *maxTrials,
		}
	} else if *maxTrials != 0 {
		return fmt.Errorf("-max-trials needs -ci-halfwidth or -ci-relerr")
	}

	// Each route gets its own experiment seed derived from -seed, so the
	// Monte Carlo routes draw independent substreams and their rows
	// cross-check each other rather than sharing sampling error.
	seeds := estimator.DeriveSeeds(*seed, len(kinds))
	queries := make([]estimator.Query, len(kinds))
	for i, kind := range kinds {
		q := base
		q.Kind = kind
		q.Seed = seeds[i]
		if precision != nil && kind.NeedsTrials() {
			p := *precision
			q.Precision = &p
		}
		queries[i] = q
	}

	results, err := estimator.EstimateBatch(ctx, queries, estimator.BatchOptions{})
	if err != nil {
		return err
	}

	tbl, err := report.NewTable(
		fmt.Sprintf("Pr[A] (bug does NOT manifest): model=%s n=%d m=%d p=%g s=%g",
			model.Name(), *threads, *prefixLen, *storeProb, *swapProb),
		"method", "estimate", "notes")
	if err != nil {
		return err
	}
	for _, res := range results {
		if res.Skipped {
			continue
		}
		if err := tbl.AddRowValues(res.Kind.DisplayName(), res.Estimate, res.Notes()); err != nil {
			return err
		}
		if res.Kind == estimator.Exact {
			if err := addPaperRow(tbl, model.Name()); err != nil {
				return err
			}
		}
	}
	if err := tbl.WriteText(out); err != nil {
		return err
	}
	return flushTrace()
}

// addPaperRow appends the paper's Theorem 6.2 closed-form constant, where
// one exists, directly under the exact-DP row.
func addPaperRow(tbl *report.Table, model string) error {
	switch model {
	case "SC":
		return tbl.AddRowValues("paper (Thm 6.2)", analytic.Theorem62SC, "1/6")
	case "WO":
		return tbl.AddRowValues("paper (Thm 6.2)", analytic.Theorem62WO, "7/54")
	case "TSO":
		paper := analytic.Theorem62TSO()
		return tbl.AddRowValues("paper (Thm 6.2)", paper.Midpoint(),
			report.FormatInterval(paper.Lo, paper.Hi))
	}
	return nil
}

func runSweep(ctx context.Context, out io.Writer, trials int, seed uint64) error {
	models := []memmodel.Model{memmodel.SC(), memmodel.TSO(), memmodel.PSO(), memmodel.WO()}
	rows, err := sweep.ThreadScaling(ctx, models, []int{2, 3, 4, 6, 8, 12, 16}, 48,
		mc.Config{Trials: trials, Seed: seed})
	if err != nil {
		return err
	}
	tbl, err := report.NewTable("Theorem 6.3 sweep: −ln Pr[A]/n² and ratio to SC",
		"n", "model", "ln Pr[A]", "rate", "ratio to SC")
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := tbl.AddRowValues(r.Threads, r.Model, report.FormatRatio(r.LogPrA),
			report.FormatRatio(r.Rate), report.FormatRatio(r.RatioToSC)); err != nil {
			return err
		}
	}
	return tbl.WriteText(out)
}
