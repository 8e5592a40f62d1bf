// memdiff is the randomized differential sweep: it draws seeded
// scenarios from internal/scenariogen and cross-checks every
// independent estimation route through internal/diffcheck — the same
// harness behind the FuzzDifferentialEstimate fuzz target, so any
// divergence replays in either direction.
//
// Per scenario, every applicable check runs:
//
//   - mc vs mc-compiled vs the reference oracle
//     (core.Config.ReferenceNoBugBits), bit-identical on fixed-trials
//     and adaptive-precision queries alike;
//   - the independent exact enumerations against each other and, for
//     n=2, against the settling-DP interval;
//   - the Monte Carlo success count against the exact Pr[A] under an
//     exact binomial tail test (diffcheck.ContainmentAlpha per side);
//   - the exact window distribution against the paper's closed-form
//     bounds at the normal form.
//
// Interleaved with the query sweep, random relax-matrix models cover
// the whole 16-point model lattice at the core layer — the registry's
// named models are only 6 of its points.
//
// Usage:
//
//	memdiff                      # 5s budget, seed 1
//	memdiff -duration 30s -seed 7 -queries 200
//
// The run is deterministic in -seed: CI failures replay locally with
// the same flags.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"memreliability/internal/core"
	"memreliability/internal/diffcheck"
	"memreliability/internal/estimator"
	"memreliability/internal/scenariogen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "memdiff: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("memdiff", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "generator seed; the whole run is deterministic in it")
	duration := fs.Duration("duration", 5*time.Second, "time budget; the harness stops drawing scenarios when it is spent")
	queries := fs.Int("queries", 0, "scenario cap (0 = unlimited within the time budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	gen := scenariogen.New(*seed)
	params := scenariogen.QueryParams{
		Kinds:      []estimator.Kind{estimator.FullMC, estimator.CompiledMC},
		MaxThreads: 4,
		MaxPrefix:  24,
		MaxTrials:  4096,
	}
	deadline := time.Now().Add(*duration)
	checked, adaptives, exacts := 0, 0, 0
	for time.Now().Before(deadline) && (*queries == 0 || checked < *queries) {
		q := gen.Query(params)
		if checked%4 == 3 {
			q.Precision = &estimator.Precision{TargetHalfWidth: 0.02, MaxTrials: 1 << 14}
			adaptives++
		}
		if diffcheck.ExactFeasible(q.Threads, q.PrefixLen) {
			exacts++
		}
		if err := diffcheck.Check(ctx, q); err != nil {
			return fmt.Errorf("scenario #%d (replay: -seed %d -queries %d): %w\nrepro query: %+v",
				checked, *seed, checked+1, err, q)
		}
		// Every 8th scenario, a random point of the 16-model relax
		// lattice at the core layer (custom, unregistered model).
		if checked%8 == 7 {
			cfg := core.Config{
				Model:     gen.Model(),
				Threads:   2 + checked%3,
				PrefixLen: 3 + checked%6,
				StoreProb: gen.Prob(),
				SwapProb:  gen.Prob(),
			}
			if _, err := diffcheck.CheckExactRoutes(cfg); err != nil {
				return fmt.Errorf("scenario #%d (model lattice, replay: -seed %d -queries %d): %w",
					checked, *seed, checked+1, err)
			}
		}
		checked++
	}
	fmt.Printf("memdiff: %d scenarios cross-checked (%d adaptive, %d exact-route), all routes agree (seed %d)\n",
		checked, adaptives, exacts, *seed)
	return nil
}
