package core

import (
	"testing"

	"memreliability/internal/mc"
	"memreliability/internal/memmodel"
	"memreliability/internal/rng"
)

// kernelModels covers every registered model — the full spread of
// relaxation matrices the swap table must tabulate, from all-forbidden
// (SC) to all-permitted (WO), including the permission rows no canonical
// model has: LRO lets an element pass only an earlier LD, and RMO gives
// LD and ST different rows.
func kernelModels() []memmodel.Model {
	return memmodel.Registered()
}

// TestKernelBitsMatchReference sweeps models × thread counts × prefix
// lengths and checks NoBugBits against the reference oracle
// ReferenceNoBugBits, and the oracle against the per-trial ManifestTrial
// closure, on shared substreams: identical outcomes trial for trial,
// identical words on dirty buffers that end mid-word, identical final
// generator states. Edge probabilities (p, s ∈ {0, 1}) exercise the
// draw-free threshold sentinels.
func TestKernelBitsMatchReference(t *testing.T) {
	type probs struct{ store, swap float64 }
	cases := []probs{{0.5, 0.5}, {0.3, 0.7}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}}
	for _, model := range kernelModels() {
		for _, n := range []int{2, 4} {
			for _, m := range []int{0, 1, 7, 16} {
				for _, pr := range cases {
					cfg := Config{Model: model, Threads: n, PrefixLen: m,
						StoreProb: pr.store, SwapProb: pr.swap}
					bits, err := cfg.NoBugBits()
					if err != nil {
						t.Fatal(err)
					}
					ref, err := cfg.ReferenceNoBugBits()
					if err != nil {
						t.Fatal(err)
					}
					const trials = 131 // ends mid-word: 2 full words + 3 bits
					got := make([]uint64, mc.BitWords(trials))
					want := make([]uint64, mc.BitWords(trials))
					for w := range got {
						// dirty buffers: the contract says unused bits come back zero
						got[w], want[w] = ^uint64(0), ^uint64(0)
					}
					bitsSrc, refSrc, closureSrc := rng.New(11), rng.New(11), rng.New(11)
					if err := bits(bitsSrc, got, trials); err != nil {
						t.Fatal(err)
					}
					if err := ref(refSrc, want, trials); err != nil {
						t.Fatal(err)
					}
					for w := range got {
						if got[w] != want[w] {
							t.Fatalf("%s n=%d m=%d p=%v s=%v word %d: bits %064b != reference %064b",
								model.Name(), n, m, pr.store, pr.swap, w, got[w], want[w])
						}
					}
					for i := 0; i < trials; i++ {
						manifested, err := cfg.ManifestTrial(closureSrc)
						if err != nil {
							t.Fatal(err)
						}
						if refBit := want[i>>6]&(1<<uint(i&63)) != 0; refBit != !manifested {
							t.Fatalf("%s n=%d m=%d p=%v s=%v trial %d: reference=%v closure no-bug=%v",
								model.Name(), n, m, pr.store, pr.swap, i, refBit, !manifested)
						}
					}
					if bitsSrc.State() != refSrc.State() || refSrc.State() != closureSrc.State() {
						t.Fatalf("%s n=%d m=%d p=%v s=%v: bits, reference and closure consumed different draws",
							model.Name(), n, m, pr.store, pr.swap)
					}
				}
			}
		}
	}
}

// TestKernelProductsMatchClosure checks the kernel-backed ProductBatch
// against the ProductTrial closure across every model: identical float64
// bits on identical substreams.
func TestKernelProductsMatchClosure(t *testing.T) {
	for _, model := range kernelModels() {
		cfg := Config{Model: model, Threads: 5, PrefixLen: 12, StoreProb: 0.4, SwapProb: 0.6}
		batch, err := cfg.ProductBatch()
		if err != nil {
			t.Fatal(err)
		}
		const trials = 200
		batchSrc, closureSrc := rng.New(17), rng.New(17)
		out := make([]float64, trials)
		if err := batch(batchSrc, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trials; i++ {
			want, err := cfg.ProductTrial(closureSrc)
			if err != nil {
				t.Fatal(err)
			}
			if out[i] != want {
				t.Fatalf("%s trial %d: kernel=%v closure=%v", model.Name(), i, out[i], want)
			}
		}
	}
}

// TestKernelTrialMatchesManifest pins NoBugTrial itself (the exported
// single-trial kernel entry point) to the negated ManifestTrial.
func TestKernelTrialMatchesManifest(t *testing.T) {
	cfg := DefaultConfig(memmodel.PSO(), 3)
	cfg.PrefixLen = 10
	k, err := cfg.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	kernelSrc, closureSrc := rng.New(23), rng.New(23)
	for i := 0; i < 300; i++ {
		got := k.NoBugTrial(kernelSrc)
		manifested, err := cfg.ManifestTrial(closureSrc)
		if err != nil {
			t.Fatal(err)
		}
		if got != !manifested {
			t.Fatalf("trial %d: kernel no-bug=%v closure manifested=%v", i, got, manifested)
		}
	}
}

// TestKernelZeroAllocs asserts the prebuilt kernel's fill entry points
// allocate nothing per call — the guarantee the perf suite's strict
// zero-alloc gate rides on.
func TestKernelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := DefaultConfig(memmodel.TSO(), 2)
	cfg.PrefixLen = 24
	k, err := cfg.NewKernel()
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(31)
	const trials = 700 // ends mid-word
	words := make([]uint64, mc.BitWords(trials))
	if avg := testing.AllocsPerRun(10, func() {
		if err := k.FillBits(src, words, trials); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("FillBits allocates %.1f per call, want 0", avg)
	}
	products := make([]float64, 128)
	if avg := testing.AllocsPerRun(10, func() {
		if err := k.FillProducts(src, products); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("FillProducts allocates %.1f per call, want 0", avg)
	}
}

// TestKernelValidates checks that invalid configs fail at construction,
// for both the kernel itself and the NoBugBits constructor.
func TestKernelValidates(t *testing.T) {
	bad := Config{Model: memmodel.TSO(), Threads: 1, PrefixLen: 16}
	if _, err := bad.NewKernel(); err == nil {
		t.Error("NewKernel accepted threads=1")
	}
	if _, err := bad.NoBugBits(); err == nil {
		t.Error("NoBugBits accepted threads=1")
	}
	var zero Config
	if _, err := zero.NewKernel(); err == nil {
		t.Error("NewKernel accepted the zero config")
	}
}
