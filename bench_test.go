// bench_test.go is the benchmark harness: one benchmark per paper artifact
// (see DESIGN.md §4 for the experiment index E1–E13). Each benchmark
// prints the regenerated table/series once, then times the core
// computation it rests on. Run everything with:
//
//	go test -bench=. -benchmem
package memreliability

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"

	"memreliability/internal/analytic"
	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/litmus"
	"memreliability/internal/machine"
	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/prog"
	"memreliability/internal/report"
	"memreliability/internal/rng"
	"memreliability/internal/settle"
	"memreliability/internal/shift"
	"memreliability/internal/sweep"
	"memreliability/internal/trace"

	"testing"
)

// printOnce guards each experiment's table so repeated benchmark
// iterations print it a single time.
var printOnce sync.Map

func emit(id string, build func() (*report.Table, error)) {
	once, _ := printOnce.LoadOrStore(id, &sync.Once{})
	once.(*sync.Once).Do(func() {
		tbl, err := build()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
			return
		}
		fmt.Println()
		if err := tbl.WriteText(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s: %v\n", id, err)
		}
	})
}

// --- E1: Table 1 — the memory model matrix ---

func BenchmarkTable1ModelMatrix(b *testing.B) {
	emit("E1", func() (*report.Table, error) {
		cols := memmodel.Table1Columns()
		tbl, err := report.NewTable("E1 / Table 1: relaxable ordered pairs per model",
			"model", cols[0], cols[1], cols[2], cols[3])
		if err != nil {
			return nil, err
		}
		for _, m := range memmodel.All() {
			row := m.Table1Row()
			cells := make([]string, 5)
			cells[0] = m.Name()
			for i, relaxed := range row {
				if relaxed {
					cells[i+1] = "X"
				} else {
					cells[i+1] = "-"
				}
			}
			if err := tbl.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range memmodel.All() {
			_ = m.Table1Row()
		}
	}
}

// --- E2: Figure 1 — a settling instantiation under TSO ---

func BenchmarkFigure1Settling(b *testing.B) {
	p, err := prog.FromTypes([]memmodel.OpType{
		memmodel.Store, memmodel.Load, memmodel.Store,
		memmodel.Store, memmodel.Store, memmodel.Load,
	})
	if err != nil {
		b.Fatal(err)
	}
	emit("E2", func() (*report.Table, error) {
		tbl, err := report.NewTable("E2 / Figure 1: settling under TSO (seeded instantiation)",
			"round", "moved", "from", "to", "order (top..bottom)")
		if err != nil {
			return nil, err
		}
		src := rng.New(2011)
		res, snaps, err := settle.SettleTraced(p, memmodel.TSO(), settle.DefaultOptions(), src)
		if err != nil {
			return nil, err
		}
		for _, snap := range snaps {
			orderStr := ""
			for pos, idx := range snap.Order {
				if pos > 0 {
					orderStr += " "
				}
				orderStr += p.At(idx).String()
			}
			if err := tbl.AddRowValues(snap.Round, p.At(snap.Round-1).String(),
				snap.StartPos, snap.EndPos, orderStr); err != nil {
				return nil, err
			}
		}
		if err := tbl.AddRowValues("-", "window γ", "-", "-",
			fmt.Sprintf("%d", res.WindowGamma())); err != nil {
			return nil, err
		}
		return tbl, nil
	})
	src := rng.New(1)
	opts := settle.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := settle.SettleTraced(p, memmodel.TSO(), opts, src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Figure 2 — a shift-process instantiation ---

func BenchmarkFigure2Shift(b *testing.B) {
	lengths := []int{3, 2, 5} // the figure's γ̄
	emit("E3", func() (*report.Table, error) {
		tbl, err := report.NewTable("E3 / Figure 2: shift process on γ̄=(3,2,5) (seeded instantiation)",
			"segment", "length", "shift", "interval", "disjoint?")
		if err != nil {
			return nil, err
		}
		src := rng.New(2011)
		placement, err := shift.Sample(lengths, src)
		if err != nil {
			return nil, err
		}
		disjoint := placement.Disjoint()
		for i := range lengths {
			if err := tbl.AddRowValues(i+1, placement.Lengths[i], placement.Shifts[i],
				fmt.Sprintf("[%d,%d]", placement.Shifts[i], placement.Shifts[i]+placement.Lengths[i]),
				fmt.Sprintf("%v", disjoint)); err != nil {
				return nil, err
			}
		}
		exact, err := shift.ExactTheorem51(lengths)
		if err != nil {
			return nil, err
		}
		if err := tbl.AddRowValues("-", "-", "-", "Pr[A(γ̄)] exact", exact); err != nil {
			return nil, err
		}
		return tbl, nil
	})
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shift.Sample(lengths, src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E4: Theorem 4.1 — critical window growth per model ---

func BenchmarkTheorem41CriticalWindow(b *testing.B) {
	emit("E4", func() (*report.Table, error) {
		tbl, err := report.NewTable("E4 / Theorem 4.1: Pr[B_γ] — closed form vs exact DP (m=16) vs Monte Carlo (m=64)",
			"γ", "SC closed", "WO closed", "WO DP", "TSO bounds", "TSO DP", "TSO MC")
		if err != nil {
			return nil, err
		}
		woDP, err := settle.ExactWindowDist(memmodel.WO(), 16, 0.5, 0.5, 8)
		if err != nil {
			return nil, err
		}
		tsoDP, err := settle.ExactWindowDist(memmodel.TSO(), 16, 0.5, 0.5, 8)
		if err != nil {
			return nil, err
		}
		hist, err := mc.EstimateDistribution(context.Background(),
			mc.Config{Trials: 200000, Seed: 41}, 9,
			func(src *rng.Source) (int, error) {
				p, err := prog.Generate(prog.DefaultParams(64), src)
				if err != nil {
					return 0, err
				}
				res, err := settle.Settle(p, memmodel.TSO(), settle.DefaultOptions(), src)
				if err != nil {
					return 0, err
				}
				return res.WindowGamma(), nil
			})
		if err != nil {
			return nil, err
		}
		for gamma := 0; gamma <= 6; gamma++ {
			sc, err := analytic.SCWindow(gamma)
			if err != nil {
				return nil, err
			}
			wo, err := analytic.WOWindow(gamma)
			if err != nil {
				return nil, err
			}
			tso, err := analytic.TSOWindow(gamma)
			if err != nil {
				return nil, err
			}
			if err := tbl.AddRowValues(gamma, sc, wo, woDP.At(gamma),
				report.FormatInterval(tso.Lo, tso.Hi), tsoDP.At(gamma),
				hist.Freq(gamma)); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := settle.ExactWindowDist(memmodel.TSO(), 14, 0.5, 0.5, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: Lemma 4.2 / Claim 4.3 ---

func BenchmarkLemma42ContiguousStores(b *testing.B) {
	emit("E5", func() (*report.Table, error) {
		tbl, err := report.NewTable("E5 / Lemma 4.2 & Claim 4.3: TSO contiguous-store distribution",
			"µ", "Pr[L_µ] exact DP (m=16)", "paper lower bound")
		if err != nil {
			return nil, err
		}
		pmf, err := settle.ExactContiguousStoreDist(memmodel.TSO(), 16, 0.5, 0.5, 8)
		if err != nil {
			return nil, err
		}
		if err := tbl.AddRowValues(0, pmf.At(0),
			fmt.Sprintf("= %s (exact)", report.FormatProb(analytic.Lemma42L0))); err != nil {
			return nil, err
		}
		for mu := 1; mu <= 8; mu++ {
			lower, err := analytic.Lemma42Lower(mu)
			if err != nil {
				return nil, err
			}
			if err := tbl.AddRowValues(mu, pmf.At(mu), "≥ "+report.FormatProb(lower)); err != nil {
				return nil, err
			}
		}
		dens, err := settle.BottomStoreDensity(memmodel.TSO(), 12, 0.5, 0.5)
		if err != nil {
			return nil, err
		}
		if err := tbl.AddRowValues("-", dens[len(dens)-1],
			"Claim 4.3 limit 2/3 = "+report.FormatProb(analytic.Claim43Limit)); err != nil {
			return nil, err
		}
		return tbl, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := settle.ExactContiguousStoreDist(memmodel.TSO(), 14, 0.5, 0.5, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: Theorem 5.1 / Corollary 5.2 ---

func BenchmarkTheorem51ShiftDisjointness(b *testing.B) {
	cases := [][]int{{2, 2}, {3, 2, 5}, {2, 2, 2, 2}, {1, 2, 3, 4, 5}}
	emit("E6", func() (*report.Table, error) {
		tbl, err := report.NewTable("E6 / Theorem 5.1 & Corollary 5.2: Pr[A(γ̄)] three ways",
			"γ̄", "exact (Thm 5.1)", "brute force", "Monte Carlo", "c(n)")
		if err != nil {
			return nil, err
		}
		for _, lengths := range cases {
			lengths := lengths
			exact, err := shift.ExactTheorem51(lengths)
			if err != nil {
				return nil, err
			}
			brute, _, err := shift.ExactBruteForce(lengths, 24)
			if err != nil {
				return nil, err
			}
			res, err := mc.EstimateProbabilityBits(context.Background(),
				mc.Config{Trials: 200000, Seed: 51},
				mc.BitsFromTrial(func(src *rng.Source) (bool, error) {
					return shift.DisjointTrial(lengths, src)
				}))
			if err != nil {
				return nil, err
			}
			c, err := shift.CorollaryC(len(lengths))
			if err != nil {
				return nil, err
			}
			if err := tbl.AddRowValues(fmt.Sprintf("%v", lengths), exact, brute,
				res.Estimate(), c); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	lengths := []int{2, 3, 2, 4, 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := shift.ExactTheorem51(lengths); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Theorem 6.2 — two threads ---

func BenchmarkTheorem62TwoThreads(b *testing.B) {
	emit("E7", func() (*report.Table, error) {
		tbl, err := report.NewTable("E7 / Theorem 6.2: Pr[A] for n=2 — paper vs exact DP vs full simulation",
			"model", "paper", "exact DP", "full MC (99% CI)")
		if err != nil {
			return nil, err
		}
		paper := map[string]string{
			"SC":  "1/6 ≈ " + report.FormatProb(analytic.Theorem62SC),
			"TSO": report.FormatInterval(analytic.Theorem62TSO().Lo, analytic.Theorem62TSO().Hi),
			"PSO": "(no closed form; footnote 4)",
			"WO":  "7/54 ≈ " + report.FormatProb(analytic.Theorem62WO),
		}
		// The models × {exact DP, full MC} grid runs through the sweep
		// engine; exact cells clamp m to the DP cap automatically.
		names := make([]string, 0, 4)
		for _, model := range memmodel.All() {
			names = append(names, model.Name())
		}
		spec := sweep.DefaultSpec()
		spec.Models = names
		spec.Threads = []int{2}
		spec.PrefixLens = []int{64}
		spec.Estimators = []sweep.Kind{sweep.Exact, sweep.FullMC}
		spec.Trials = 200000
		spec.Seed = 62
		art, err := sweep.Run(context.Background(), spec, sweep.Options{})
		if err != nil {
			return nil, err
		}
		// Cells per model: exact first, then full MC.
		for i := 0; i+1 < len(art.Cells); i += 2 {
			exact, fullMC := art.Cells[i], art.Cells[i+1]
			if err := tbl.AddRowValues(exact.Model, paper[exact.Model],
				exact.Estimate,
				report.FormatProb(fullMC.Estimate)+" "+report.FormatInterval(fullMC.Lo, fullMC.Hi)); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	// One uncached n=2 evaluation per op: core.ExactTwoThreadPrA reads
	// the window cache, so after the first op it would time a hit.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmf, err := settle.ExactWindowDist(memmodel.TSO(), 14, 0.5, 0.5, 14)
		if err != nil {
			b.Fatal(err)
		}
		mgf, err := analytic.SegmentMGF(pmf)
		if err != nil {
			b.Fatal(err)
		}
		if iv := analytic.TwoThreadPrA(mgf); iv.Lo > iv.Hi {
			b.Fatal("empty Pr[A] interval")
		}
	}
}

// --- E8: Theorem 6.3 — thread scaling ---

func BenchmarkTheorem63ThreadScaling(b *testing.B) {
	emit("E8", func() (*report.Table, error) {
		tbl, err := report.NewTable("E8 / Theorem 6.3: −ln Pr[A]/n² per model (hybrid estimator); gap to SC vanishes",
			"n", "model", "ln Pr[A]", "rate", "ratio to SC")
		if err != nil {
			return nil, err
		}
		models := []memmodel.Model{memmodel.SC(), memmodel.TSO(), memmodel.WO()}
		rows, err := sweep.ThreadScaling(context.Background(), models,
			[]int{2, 3, 4, 6, 8, 12}, 48, mc.Config{Trials: 60000, Seed: 63})
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := tbl.AddRowValues(r.Threads, r.Model,
				report.FormatRatio(r.LogPrA), report.FormatRatio(r.Rate),
				report.FormatRatio(r.RatioToSC)); err != nil {
				return nil, err
			}
		}
		if err := tbl.AddRowValues("∞", "SC (analytic)", "-",
			report.FormatRatio(analytic.Theorem63AsymptoticRate), "1.0000"); err != nil {
			return nil, err
		}
		return tbl, nil
	})
	cfg := core.DefaultConfig(memmodel.WO(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.HybridPrA(context.Background(), cfg,
			mc.AdaptiveConfig{MaxTrials: 2000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: PSO extension (footnote 4) ---

func BenchmarkPSOExtension(b *testing.B) {
	emit("E9", func() (*report.Table, error) {
		tbl, err := report.NewTable("E9 / PSO (footnote 4): window distribution and n=2 Pr[A] vs TSO",
			"γ", "TSO Pr[B_γ]", "PSO Pr[B_γ]")
		if err != nil {
			return nil, err
		}
		tso, err := settle.ExactWindowDist(memmodel.TSO(), 16, 0.5, 0.5, 6)
		if err != nil {
			return nil, err
		}
		pso, err := settle.ExactWindowDist(memmodel.PSO(), 16, 0.5, 0.5, 6)
		if err != nil {
			return nil, err
		}
		for gamma := 0; gamma <= 6; gamma++ {
			if err := tbl.AddRowValues(gamma, tso.At(gamma), pso.At(gamma)); err != nil {
				return nil, err
			}
		}
		for _, model := range []memmodel.Model{memmodel.TSO(), memmodel.PSO()} {
			cfg := core.Config{Model: model, Threads: 2, PrefixLen: 16, StoreProb: 0.5, SwapProb: 0.5}
			iv, err := core.ExactTwoThreadPrA(cfg)
			if err != nil {
				return nil, err
			}
			if err := tbl.AddRowValues("Pr[A] n=2", model.Name(), iv.Midpoint()); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := settle.ExactWindowDist(memmodel.PSO(), 14, 0.5, 0.5, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: fences (§7 extension) ---

// fencedWindowTrial samples one critical window from a WO-settled random
// program with an acquire fence inserted `distance` instructions above the
// critical load.
func fencedWindowTrial(distance, prefixLen int, src *rng.Source) (int, error) {
	types := make([]memmodel.OpType, prefixLen)
	for i := range types {
		if src.Bool(0.5) {
			types[i] = memmodel.Store
		} else {
			types[i] = memmodel.Load
		}
	}
	if distance >= 0 && distance < prefixLen {
		types[prefixLen-1-distance] = memmodel.FenceAcquire
	}
	p, err := prog.FromTypes(types)
	if err != nil {
		return 0, err
	}
	res, err := settle.Settle(p, memmodel.WO(), settle.DefaultOptions(), src)
	if err != nil {
		return 0, err
	}
	return res.WindowGamma(), nil
}

func BenchmarkFenceExtension(b *testing.B) {
	emit("E10", func() (*report.Table, error) {
		tbl, err := report.NewTable("E10 / §7 fences: acquire fence above the critical LD shrinks the WO window",
			"fence distance", "E[γ]", "Pr[γ=0]", "n=2 Pr[A] (MC)")
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		for _, distance := range []int{0, 1, 2, 4, 8, -1} {
			distance := distance
			hist, err := mc.EstimateDistribution(ctx, mc.Config{Trials: 120000, Seed: 70}, 24,
				func(src *rng.Source) (int, error) {
					return fencedWindowTrial(distance, 24, src)
				})
			if err != nil {
				return nil, err
			}
			meanGamma := 0.0
			mgf := 0.0
			for g := 0; g < 24; g++ {
				meanGamma += float64(g) * hist.Freq(g)
				mgf += math.Pow(2, -float64(g+2)) * hist.Freq(g)
			}
			label := fmt.Sprintf("%d", distance)
			if distance < 0 {
				label = "none"
			}
			if err := tbl.AddRowValues(label, report.FormatRatio(meanGamma),
				hist.Freq(0), 2.0/3.0*mgf); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fencedWindowTrial(2, 24, src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: parameter sensitivity (footnote 3) ---

func BenchmarkParameterSensitivity(b *testing.B) {
	emit("E11", func() (*report.Table, error) {
		tbl, err := report.NewTable("E11 / footnote 3 sensitivity: n=2 Pr[A] under TSO across (p, s)",
			"p (store prob)", "s (swap prob)", "Pr[A] exact DP")
		if err != nil {
			return nil, err
		}
		for _, p := range []float64{0.25, 0.5, 0.75} {
			for _, s := range []float64{0.25, 0.5, 0.75} {
				cfg := core.Config{Model: memmodel.TSO(), Threads: 2, PrefixLen: 16,
					StoreProb: p, SwapProb: s}
				iv, err := core.ExactTwoThreadPrA(cfg)
				if err != nil {
					return nil, err
				}
				if err := tbl.AddRowValues(p, s, iv.Midpoint()); err != nil {
					return nil, err
				}
			}
		}
		return tbl, nil
	})
	cfg := core.Config{Model: memmodel.TSO(), Threads: 2, PrefixLen: 14, StoreProb: 0.25, SwapProb: 0.75}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExactTwoThreadPrA(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: the canonical race, operationally ---

func BenchmarkOperationalRace(b *testing.B) {
	incTest, err := litmus.ByName("INC")
	if err != nil {
		b.Fatal(err)
	}
	emit("E12", func() (*report.Table, error) {
		tbl, err := report.NewTable("E12 / §2.2 operational: lost-increment frequency and race detection per model",
			"model", "bug freq (x=1)", "buffered freq", "runs with detected race")
		if err != nil {
			return nil, err
		}
		src := rng.New(12)
		for _, model := range memmodel.All() {
			freq, err := litmus.TargetFrequency(incTest, model, 20000, src)
			if err != nil {
				return nil, err
			}
			// The store-buffer machine separates store execution from
			// visibility (the drain step), which is exactly the widened
			// vulnerability window the paper's settling model captures;
			// the action-level window machine cannot show it for INC
			// because the dependency chain fixes each thread's order.
			bufferedFreq := "n/a (SC/WO)"
			if model.Name() == "TSO" || model.Name() == "PSO" {
				bsim, err := machine.NewBufferedSim(incTest.Prog, model)
				if err != nil {
					return nil, err
				}
				hits := 0
				const bufRuns = 20000
				for i := 0; i < bufRuns; i++ {
					o, err := bsim.RunRandom(src)
					if err != nil {
						return nil, err
					}
					ok, err := incTest.Target.Holds(o)
					if err != nil {
						return nil, err
					}
					if ok {
						hits++
					}
				}
				bufferedFreq = report.FormatProb(float64(hits) / bufRuns)
			}
			sim, err := machine.NewSim(incTest.Prog, model)
			if err != nil {
				return nil, err
			}
			raceRuns := 0
			const runs = 200
			for i := 0; i < runs; i++ {
				_, seq, err := sim.RunRandom(src)
				if err != nil {
					return nil, err
				}
				events, err := trace.EventsFromRun(incTest.Prog, seq)
				if err != nil {
					return nil, err
				}
				races, err := trace.Analyze(events)
				if err != nil {
					return nil, err
				}
				if len(races) > 0 {
					raceRuns++
				}
			}
			if err := tbl.AddRowValues(model.Name(), freq, bufferedFreq,
				fmt.Sprintf("%d/%d", raceRuns, runs)); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	src := rng.New(1)
	sim, err := machine.NewSim(incTest.Prog, memmodel.TSO())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.RunRandom(src); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E13: litmus conformance ---

func BenchmarkLitmusConformance(b *testing.B) {
	emit("E13", func() (*report.Table, error) {
		tbl, err := report.NewTable("E13 / litmus conformance: relaxed-outcome reachability per model (X=reachable)",
			"test", "SC", "TSO", "PSO", "WO", "conforms")
		if err != nil {
			return nil, err
		}
		results, err := litmus.CheckAll()
		if err != nil {
			return nil, err
		}
		byTest := make(map[string]map[string]litmus.Result)
		for _, r := range results {
			if byTest[r.Test] == nil {
				byTest[r.Test] = make(map[string]litmus.Result)
			}
			byTest[r.Test][r.Model] = r
		}
		for _, t := range litmus.Registry() {
			cells := []string{t.Name}
			conforms := true
			for _, model := range memmodel.All() {
				r := byTest[t.Name][model.Name()]
				mark := "-"
				if r.Reachable {
					mark = "X"
				}
				cells = append(cells, mark)
				conforms = conforms && r.Conforms()
			}
			cells = append(cells, fmt.Sprintf("%v", conforms))
			if err := tbl.AddRow(cells...); err != nil {
				return nil, err
			}
		}
		return tbl, nil
	})
	sb, err := litmus.ByName("SB")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := litmus.Check(sb, memmodel.TSO()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: sweep-engine orchestration overhead ---

func BenchmarkSweepEngine(b *testing.B) {
	spec := sweep.Spec{
		Models:     []string{"SC", "TSO", "WO"},
		Threads:    []int{2, 4},
		PrefixLens: []int{16},
		Estimators: []sweep.Kind{sweep.Exact, sweep.Hybrid},
		Trials:     500,
		Seed:       1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.Run(context.Background(), spec, sweep.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: fixed vs adaptive precision on the same cell ---

// BenchmarkAdaptivePrecision compares the fixed-trials route against the
// adaptive estimate-to-target-CI route on one easy cell: both meet a
// ±0.01 Wilson half-width, but the adaptive run stops as soon as the
// interval is tight enough instead of burning the whole budget. The
// per-op times ARE the comparison (run alone with
// `go test -bench=AdaptivePrecision -benchtime=1x -run='^$'`).
func BenchmarkAdaptivePrecision(b *testing.B) {
	base := estimator.DefaultQuery()
	base.Kind = estimator.FullMC
	base.Model = "TSO"
	base.PrefixLen = 24
	base.Trials = 100000
	base.Seed = 99

	b.Run("fixed-100k", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := estimator.Estimate(context.Background(), base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adaptive-halfwidth-0.01", func(b *testing.B) {
		q := base
		q.Precision = &estimator.Precision{TargetHalfWidth: 0.01}
		var res estimator.Result
		var err error
		for i := 0; i < b.N; i++ {
			if res, err = estimator.Estimate(context.Background(), q); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(res.TrialsUsed), "trials")
	})
}

// --- ablation: settling cost across models (DESIGN.md validation aid) ---

func BenchmarkAblationSettleByModel(b *testing.B) {
	for _, model := range memmodel.All() {
		model := model
		b.Run(model.Name(), func(b *testing.B) {
			src := rng.New(1)
			p, err := prog.Generate(prog.DefaultParams(64), src)
			if err != nil {
				b.Fatal(err)
			}
			opts := settle.DefaultOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := settle.Settle(p, model, opts, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablation: end-to-end trial cost by thread count ---

func BenchmarkAblationJoinedTrialByThreads(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig(memmodel.TSO(), n)
			src := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.ManifestTrial(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
