package diffcheck

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"memreliability/internal/estimator"
	"memreliability/internal/memmodel"
)

// fuzzProbLattice matches scenariogen's edge-heavy lattice; the fuzzer
// picks indices into it rather than raw floats, so every input is a
// valid probability and the 0/1 corners stay reachable.
var fuzzProbLattice = []float64{0, 0.05, 0.25, 0.5, 0.75, 0.95, 1}

// queryFromWords decodes two fuzz words into a valid bounded estimator
// query — mc, mc-compiled or hybrid: seed verbatim, and the choice
// word's bit fields clamped into the harness's cheap ranges (n ≤ 3,
// m ≤ 8, ≤ 512 trials) so every input stays well under the fuzz-smoke
// time budget.
func queryFromWords(seed, choices uint64) estimator.Query {
	models := memmodel.Registered()
	take := func(bits uint) uint64 {
		v := choices & (1<<bits - 1)
		choices >>= bits
		return v
	}
	kinds := []estimator.Kind{estimator.FullMC, estimator.CompiledMC}
	q := estimator.Query{
		Kind:      kinds[take(1)],
		Model:     models[take(3)%uint64(len(models))].Name(),
		Threads:   2 + int(take(1)),
		PrefixLen: 1 + int(take(3)),
		StoreProb: fuzzProbLattice[take(3)%uint64(len(fuzzProbLattice))],
		SwapProb:  fuzzProbLattice[take(3)%uint64(len(fuzzProbLattice))],
		Trials:    1 + int(take(9)),
		Seed:      seed,
	}
	q.MaxGamma = int(take(3))
	if q.MaxGamma > q.PrefixLen {
		q.MaxGamma = q.PrefixLen
	}
	if take(2) == 3 {
		q.Precision = &estimator.Precision{TargetHalfWidth: 0.05, MaxTrials: 1 << 11}
	}
	// The hybrid kind takes the next bit, above every field before it,
	// so the corpus entries written before it decode unchanged.
	if take(1) == 1 {
		q.Kind = estimator.Hybrid
	}
	return q
}

// FuzzDifferentialEstimate feeds fuzzer-chosen queries through the full
// differential harness: every route to the same answer must agree. The
// committed corpus under testdata/fuzz/FuzzDifferentialEstimate pins
// the kind/model/probability corners (including the RMO/LRO variants
// and the p, s ∈ {0, 1} edges); plain `go test` replays all of it.
func FuzzDifferentialEstimate(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Fuzz(func(t *testing.T, seed, choices uint64) {
		q := queryFromWords(seed, choices)
		if err := Check(context.Background(), q); err != nil {
			t.Fatalf("differential divergence: %v\nrepro query: %+v", err, q)
		}
	})
}

// TestDifferentialCorpusCommitted guards the committed seed corpus, so
// `go test` (which replays testdata/fuzz natively) actually covers the
// pinned corners.
func TestDifferentialCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDifferentialEstimate")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing: %v", err)
	}
	if len(entries) < 8 {
		t.Errorf("corpus has %d entries, want ≥ 8", len(entries))
	}
}

// TestQueryFromWordsAlwaysValid sweeps the decoder over a spread of
// words: every decoded query must pass estimator validation and stay
// within the harness's cheap bounds.
func TestQueryFromWordsAlwaysValid(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		for ch := uint64(0); ch < 1<<12; ch += 7 {
			q := queryFromWords(seed, ch*0x9e3779b97f4a7c15)
			if err := q.Normalized().Validate(); err != nil {
				t.Fatalf("words (%d, %#x) decode to invalid query %+v: %v", seed, ch, q, err)
			}
			if q.Threads > 3 || q.PrefixLen > 8 || q.Trials > 512 {
				t.Fatalf("words (%d, %#x) escape the cheap bounds: %+v", seed, ch, q)
			}
		}
	}
}
