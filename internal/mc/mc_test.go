package mc

import (
	"context"
	"errors"
	"math"
	"testing"

	"memreliability/internal/rng"
)

// uniformMean is a BatchMean drawing one uniform [0,1) sample per
// observation.
func uniformMean(src *rng.Source, out []float64) error {
	for i := range out {
		out[i] = src.Float64()
	}
	return nil
}

func TestEstimateProbabilityBasic(t *testing.T) {
	ctx := context.Background()
	res, err := EstimateProbabilityBits(ctx, Config{Trials: 200000, Seed: 1}, BitsFromTrial(func(src *rng.Source) (bool, error) {
		return src.Bool(0.37), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Estimate(); math.Abs(got-0.37) > 0.01 {
		t.Errorf("estimate = %v, want ~0.37", got)
	}
	lo, hi, err := res.WilsonCI(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0.37 || hi < 0.37 {
		t.Errorf("CI [%v,%v] misses 0.37", lo, hi)
	}
}

func TestEstimateProbabilityDeterministic(t *testing.T) {
	ctx := context.Background()
	trial := BitsFromTrial(func(src *rng.Source) (bool, error) { return src.Bool(0.5), nil })
	cfg := Config{Trials: 50000, Workers: 4, Seed: 99}
	a, err := EstimateProbabilityBits(ctx, cfg, trial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateProbabilityBits(ctx, cfg, trial)
	if err != nil {
		t.Fatal(err)
	}
	if a.Proportion.Successes() != b.Proportion.Successes() {
		t.Errorf("same seed gave %d vs %d successes",
			a.Proportion.Successes(), b.Proportion.Successes())
	}
}

func TestEstimateProbabilityWorkerCountInvariance(t *testing.T) {
	// The chunked harness is deterministic in (seed, trials) alone:
	// every worker count must produce the identical estimate.
	ctx := context.Background()
	trial := BitsFromTrial(func(src *rng.Source) (bool, error) { return src.Bool(0.2), nil })
	var want float64
	for i, workers := range []int{1, 2, 7} {
		res, err := EstimateProbabilityBits(ctx, Config{Trials: 100000, Workers: workers, Seed: 5}, trial)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Estimate()-0.2) > 0.01 {
			t.Errorf("workers=%d: estimate %v", workers, res.Estimate())
		}
		if i == 0 {
			want = res.Estimate()
		} else if res.Estimate() != want {
			t.Errorf("workers=%d: estimate %v differs from workers=1's %v",
				workers, res.Estimate(), want)
		}
	}
}

func TestEstimateMeanWorkerCountInvariance(t *testing.T) {
	// Summary merging is not float-associative, so this exercises the
	// in-order chunk merge: means must be bit-identical across workers.
	ctx := context.Background()
	var want float64
	for i, workers := range []int{1, 3, 8} {
		sum, err := EstimateMeanBatch(ctx, Config{Trials: 50000, Workers: workers, Seed: 9}, uniformMean)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = sum.Mean()
		} else if sum.Mean() != want {
			t.Errorf("workers=%d: mean %v differs from workers=1's %v", workers, sum.Mean(), want)
		}
	}
}

func TestEstimateProbabilityValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := EstimateProbabilityBits(ctx, Config{Trials: 0}, coinBatch); !errors.Is(err, ErrBadConfig) {
		t.Error("zero trials accepted")
	}
	if _, err := EstimateProbabilityBits(ctx, Config{Trials: 10, Workers: -1}, coinBatch); !errors.Is(err, ErrBadConfig) {
		t.Error("negative workers accepted")
	}
	if _, err := EstimateProbabilityBits(ctx, Config{Trials: 10}, nil); !errors.Is(err, ErrBadConfig) {
		t.Error("nil trial accepted")
	}
	if _, err := EstimateMeanBatch(ctx, Config{Trials: 0}, uniformMean); !errors.Is(err, ErrBadConfig) {
		t.Error("zero mean trials accepted")
	}
	if _, err := EstimateMeanBatch(ctx, Config{Trials: 10, Workers: -1}, uniformMean); !errors.Is(err, ErrBadConfig) {
		t.Error("negative mean workers accepted")
	}
	// Budgets over TrialLimit fail validation before a chunk plan is
	// allocated; one for math.MaxInt trials could not be.
	for _, trials := range []int{TrialLimit + 1, math.MaxInt} {
		cfg := Config{Trials: trials, Seed: 1}
		if _, err := EstimateProbabilityBits(ctx, cfg, coinBatch); !errors.Is(err, ErrBadConfig) {
			t.Errorf("trials=%d accepted by EstimateProbabilityBits: %v", trials, err)
		}
		if _, err := EstimateMeanBatch(ctx, cfg, uniformMean); !errors.Is(err, ErrBadConfig) {
			t.Errorf("trials=%d accepted by EstimateMeanBatch: %v", trials, err)
		}
		if _, err := EstimateDistribution(ctx, cfg, 4, func(*rng.Source) (int, error) { return 0, nil }); !errors.Is(err, ErrBadConfig) {
			t.Errorf("trials=%d accepted by EstimateDistribution: %v", trials, err)
		}
	}
}

func TestEstimateProbabilityPropagatesTrialError(t *testing.T) {
	ctx := context.Background()
	sentinel := errors.New("boom")
	_, err := EstimateProbabilityBits(ctx, Config{Trials: 1000, Workers: 2, Seed: 1},
		BitsFromTrial(func(src *rng.Source) (bool, error) { return false, sentinel }))
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v, want wrapped sentinel", err)
	}
}

// TestRunChunksPrefersRootCause: when one chunk fails, the chunks its
// cancellation interrupts report context.Canceled; the run must return
// the failure itself, whichever workers happened to report first.
func TestRunChunksPrefersRootCause(t *testing.T) {
	sentinel := errors.New("root cause")
	for i := 0; i < 10; i++ {
		err := runChunksWith(context.Background(), 4, nil, 4, func() struct{} { return struct{}{} }, func(ctx context.Context, chunk int, _ struct{}) error {
			if chunk == 3 {
				return sentinel
			}
			<-ctx.Done() // held until chunk 3's failure cancels the run
			return ctx.Err()
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("run %d: err = %v, want the root-cause failure", i, err)
		}
	}
}

func TestEstimateProbabilityCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EstimateProbabilityBits(ctx, Config{Trials: 1 << 22, Workers: 2, Seed: 1},
		BitsFromTrial(func(src *rng.Source) (bool, error) { return src.Bool(0.5), nil }))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestEstimateProbabilityMoreWorkersThanTrials(t *testing.T) {
	ctx := context.Background()
	res, err := EstimateProbabilityBits(ctx, Config{Trials: 3, Workers: 16, Seed: 1},
		BitsFromTrial(func(src *rng.Source) (bool, error) { return true, nil }))
	if err != nil {
		t.Fatal(err)
	}
	if res.Proportion.Trials() != 3 || res.Proportion.Successes() != 3 {
		t.Errorf("got %d/%d", res.Proportion.Successes(), res.Proportion.Trials())
	}
}

func TestEstimateDistribution(t *testing.T) {
	ctx := context.Background()
	// Geometric(1/2) via bit counting; check the histogram matches 2^-(k+1).
	h, err := EstimateDistribution(ctx, Config{Trials: 400000, Seed: 3}, 10,
		func(src *rng.Source) (int, error) {
			k := 0
			for src.Bool(0.5) {
				k++
			}
			return k, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 400000 {
		t.Fatalf("total %d", h.Total())
	}
	for k := 0; k < 6; k++ {
		want := math.Pow(2, -float64(k+1))
		if got := h.Freq(k); math.Abs(got-want) > 0.005 {
			t.Errorf("freq(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestEstimateDistributionDeterministic(t *testing.T) {
	ctx := context.Background()
	sample := func(src *rng.Source) (int, error) { return src.Intn(5), nil }
	cfg := Config{Trials: 20000, Workers: 3, Seed: 11}
	a, err := EstimateDistribution(ctx, cfg, 5, sample)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateDistribution(ctx, cfg, 5, sample)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		if a.Count(k) != b.Count(k) {
			t.Errorf("bucket %d: %d vs %d", k, a.Count(k), b.Count(k))
		}
	}
}

func TestEstimateDistributionError(t *testing.T) {
	ctx := context.Background()
	sentinel := errors.New("bad sample")
	_, err := EstimateDistribution(ctx, Config{Trials: 100, Seed: 1}, 4,
		func(src *rng.Source) (int, error) { return 0, sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
	_, err = EstimateDistribution(ctx, Config{Trials: 100, Seed: 1}, 4,
		func(src *rng.Source) (int, error) { return -1, nil })
	if err == nil {
		t.Error("negative observation accepted")
	}
}

func TestEstimateMean(t *testing.T) {
	ctx := context.Background()
	sum, err := EstimateMeanBatch(ctx, Config{Trials: 300000, Workers: 4, Seed: 7},
		func(src *rng.Source, out []float64) error {
			for i := range out {
				out[i] = src.Float64() * 6
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Mean()-3) > 0.02 {
		t.Errorf("mean = %v, want ~3", sum.Mean())
	}
	if math.Abs(sum.Variance()-3) > 0.05 {
		t.Errorf("variance = %v, want ~3 (uniform on [0,6])", sum.Variance())
	}
	if sum.N() != 300000 {
		t.Errorf("N = %d", sum.N())
	}
}

func TestEstimateMeanError(t *testing.T) {
	ctx := context.Background()
	sentinel := errors.New("bad")
	_, err := EstimateMeanBatch(ctx, Config{Trials: 100, Seed: 1},
		func(src *rng.Source, out []float64) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Errorf("err = %v", err)
	}
}
