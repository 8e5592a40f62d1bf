package mc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"memreliability/internal/rng"
)

// poolTrials spans eight whole chunks and a short ninth, so a run has
// chunks left for helpers to borrow and a partial chunk to merge.
const poolTrials = 8*chunkSize + 777

// poolRunner runs one of the harness's entry points with the given own
// workers and helper pool, and returns everything its result carries,
// so two runs compare with ==.
type poolRunner struct {
	name string
	run  func(ctx context.Context, workers int, pool *Pool, bits BatchTrialBits, mean BatchMean) (string, error)
}

// poolRunners are the five entry points over the run body. The
// adaptive targets stop after a few rounds, so rounds and trials used
// are part of what must match. The histogram run samples through the
// mean batch, one observation per call, so it shares the tests'
// counting and failure hooks.
var poolRunners = []poolRunner{
	{"EstimateProbabilityBits", func(ctx context.Context, workers int, pool *Pool, bits BatchTrialBits, _ BatchMean) (string, error) {
		r, err := EstimateProbabilityBits(ctx, Config{Trials: poolTrials, Workers: workers, Helpers: pool, Seed: 3}, bits)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(r.Proportion.Successes(), r.Proportion.Trials()), nil
	}},
	{"EstimateAdaptiveBits", func(ctx context.Context, workers int, pool *Pool, bits BatchTrialBits, _ BatchMean) (string, error) {
		r, err := EstimateAdaptiveBits(ctx, AdaptiveConfig{MaxTrials: poolTrials, Workers: workers, Helpers: pool,
			Seed: 4, TargetHalfWidth: 0.006, Confidence: 0.99}, bits)
		if err != nil {
			return "", err
		}
		return fmt.Sprint(r.Proportion.Successes(), r.TrialsUsed(), r.Rounds, r.StopReason), nil
	}},
	{"EstimateMeanBatch", func(ctx context.Context, workers int, pool *Pool, _ BatchTrialBits, mean BatchMean) (string, error) {
		s, err := EstimateMeanBatch(ctx, Config{Trials: poolTrials, Workers: workers, Helpers: pool, Seed: 5}, mean)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d %b %b", s.N(), s.Mean(), s.Variance()), nil
	}},
	{"EstimateMeanAdaptiveBatch", func(ctx context.Context, workers int, pool *Pool, _ BatchTrialBits, mean BatchMean) (string, error) {
		r, err := EstimateMeanAdaptiveBatch(ctx, AdaptiveConfig{MaxTrials: poolTrials, Workers: workers, Helpers: pool,
			Seed: 6, TargetHalfWidth: 0.003, Confidence: 0.99}, mean)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d %b %b %d %s", r.Summary.N(), r.Summary.Mean(), r.Summary.Variance(), r.Rounds, r.StopReason), nil
	}},
	{"EstimateDistribution", func(ctx context.Context, workers int, pool *Pool, _ BatchTrialBits, mean BatchMean) (string, error) {
		sample := func(src *rng.Source) (int, error) {
			var x [1]float64
			err := mean(src, x[:])
			return int(x[0] * 10), err
		}
		h, err := EstimateDistribution(ctx, Config{Trials: poolTrials, Workers: workers, Helpers: pool, Seed: 7}, 8, sample)
		if err != nil {
			return "", err
		}
		counts := make([]int, h.Buckets())
		for b := range counts {
			counts[b] = h.Count(b)
		}
		return fmt.Sprint(counts, h.Overflow(), h.Total()), nil
	}},
}

// concurrency counts the batch calls in flight and keeps the maximum.
// Each goroutine of a run calls its batch sequentially, so the maximum
// is the most goroutines that ran chunks at once.
type concurrency struct{ now, max atomic.Int64 }

func (c *concurrency) enter() {
	n := c.now.Add(1)
	for m := c.max.Load(); n > m && !c.max.CompareAndSwap(m, n); m = c.max.Load() {
	}
}

func (c *concurrency) exit() { c.now.Add(-1) }

// counted wraps the bitset and mean batches in c's bookkeeping.
func counted(c *concurrency) (BatchTrialBits, BatchMean) {
	bits := func(src *rng.Source, out []uint64, n int) error {
		c.enter()
		defer c.exit()
		return wobblyBits(src, out, n)
	}
	mean := func(src *rng.Source, out []float64) error {
		c.enter()
		defer c.exit()
		return uniformMean(src, out)
	}
	return bits, mean
}

// holdSlots takes k slots of p, as other computations would.
func holdSlots(t *testing.T, p *Pool, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if !p.tryAcquire() {
			t.Fatalf("slot %d of %d not free", i+1, k)
		}
	}
}

// requireSlotsBack fails unless p has exactly free free slots and no
// waiter.
func requireSlotsBack(t *testing.T, p *Pool, free int, what string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free != free || len(p.waiters) != 0 {
		t.Errorf("%s: pool has %d free slots and %d waiters after return, want %d and 0",
			what, p.free, len(p.waiters), free)
	}
}

// TestPoolRunsBitIdentical: with capacities 1, 2 and 4 and every count
// of slots already held by other computations, each run function
// returns exactly what Workers: 1 without a pool returns, borrows no
// more slots than were free, and gives every slot back.
func TestPoolRunsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, r := range poolRunners {
		want, err := r.run(ctx, 1, nil, wobblyBits, uniformMean)
		if err != nil {
			t.Fatalf("%s without a pool: %v", r.name, err)
		}
		for _, capacity := range []int{1, 2, 4} {
			for held := 0; held <= capacity; held++ {
				what := fmt.Sprintf("%s, %d of %d slots held", r.name, held, capacity)
				pool := NewPool(capacity)
				holdSlots(t, pool, held)
				var c concurrency
				bits, mean := counted(&c)
				got, err := r.run(ctx, 1, pool, bits, mean)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got != want {
					t.Errorf("%s: result %q, want %q as without a pool", what, got, want)
				}
				if free := capacity - held; c.max.Load() > int64(1+free) {
					t.Errorf("%s: %d chunks ran at once, want at most 1 own worker + %d free slots",
						what, c.max.Load(), free)
				}
				requireSlotsBack(t, pool, capacity-held, what)
			}
		}
	}
}

// TestPoolSlotsBackOnErrorAndCancel: a run that fails mid-way, and one
// whose context is canceled mid-way, still give every borrowed slot
// back before they return.
func TestPoolSlotsBackOnErrorAndCancel(t *testing.T) {
	sentinel := errors.New("boom")
	for _, r := range poolRunners {
		for _, capacity := range []int{1, 2, 4} {
			for held := 0; held < capacity; held++ {
				for _, cancelRun := range []bool{false, true} {
					what := fmt.Sprintf("%s, %d of %d slots held, cancel %v", r.name, held, capacity, cancelRun)
					ctx, cancel := context.WithCancel(context.Background())
					var calls atomic.Int64
					// stop ends the run on the 20th batch call, inside
					// the third chunk or later.
					stop := func() error {
						if calls.Add(1) < 20 {
							return nil
						}
						if cancelRun {
							cancel()
							return nil
						}
						return sentinel
					}
					bits := func(src *rng.Source, out []uint64, n int) error {
						if err := stop(); err != nil {
							return err
						}
						return wobblyBits(src, out, n)
					}
					mean := func(src *rng.Source, out []float64) error {
						if err := stop(); err != nil {
							return err
						}
						return uniformMean(src, out)
					}
					pool := NewPool(capacity)
					holdSlots(t, pool, held)
					_, err := r.run(ctx, 1, pool, bits, mean)
					cancel()
					wantErr := sentinel
					if cancelRun {
						wantErr = context.Canceled
					}
					if !errors.Is(err, wantErr) {
						t.Errorf("%s: err = %v, want %v", what, err, wantErr)
					}
					requireSlotsBack(t, pool, capacity-held, what)
				}
			}
		}
	}
}

// TestPoolHandoff: a computation blocked on the pool while a run's
// helper holds the only free slot gets that slot as soon as the
// helper's chunk ends — no further helper chunk starts first — and the
// run still returns the pool-free result. Chunks are gated at their
// first batch call, so the test moves the run chunk by chunk.
func TestPoolHandoff(t *testing.T) {
	ctx := context.Background()
	want, err := EstimateProbabilityBits(ctx, Config{Trials: poolTrials, Workers: 1, Seed: 9}, wobblyBits)
	if err != nil {
		t.Fatal(err)
	}

	// gated holds each chunk's first batch call (one source per chunk)
	// until the test sends on the proceed channel it hands over.
	started := make(chan chan struct{})
	var mu sync.Mutex
	seen := map[*rng.Source]bool{}
	gated := func(src *rng.Source, out []uint64, n int) error {
		mu.Lock()
		first := !seen[src]
		seen[src] = true
		mu.Unlock()
		if first {
			proceed := make(chan struct{})
			started <- proceed
			<-proceed
		}
		return wobblyBits(src, out, n)
	}

	// Two slots: the running computation holds one, its helper borrows
	// the other.
	pool := NewPool(2)
	holdSlots(t, pool, 1)
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := EstimateProbabilityBits(ctx, Config{Trials: poolTrials, Workers: 1, Helpers: pool, Seed: 9}, gated)
		done <- outcome{res, err}
	}()
	inFlight := []chan struct{}{<-started, <-started} // own worker and helper

	waiter := pool.join()
	if waiter == nil {
		t.Fatal("a slot was free while the run's helper held it")
	}
	for _, proceed := range inFlight {
		close(proceed)
	}
	// The own worker starts its next chunk; the helper's slot goes to
	// the waiter, so no second chunk may start before the grant.
	var next []chan struct{}
	for granted := false; !granted; {
		select {
		case <-waiter:
			granted = true
		case proceed := <-started:
			if next = append(next, proceed); len(next) > 1 {
				t.Fatal("a helper started another chunk while a computation waited on the pool")
			}
		}
	}
	pool.Release() // the waiter's computation is done

	// Let the run finish.
	for _, proceed := range next {
		close(proceed)
	}
	var out outcome
	for finished := false; !finished; {
		select {
		case proceed := <-started:
			close(proceed)
		case out = <-done:
			finished = true
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.res.Proportion != want.Proportion {
		t.Errorf("handoff run = %+v, want %+v", out.res.Proportion, want.Proportion)
	}
	requireSlotsBack(t, pool, 1, "after the handoff run")
}

// TestPoolAcquire covers Acquire's own paths: a free slot is taken at
// once, a canceled wait leaves the pool unchanged, and a released slot
// goes to the oldest waiter before tryAcquire can take it.
func TestPoolAcquire(t *testing.T) {
	pool := NewPool(1)
	if err := pool.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pool.Acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Acquire on a full pool with a canceled context = %v, want context.Canceled", err)
	}
	requireSlotsBack(t, pool, 0, "after a canceled Acquire")

	first, second := pool.join(), pool.join()
	pool.Release()
	if pool.tryAcquire() {
		t.Fatal("tryAcquire took a released slot ahead of a waiter")
	}
	select {
	case <-first:
	default:
		t.Fatal("the released slot skipped the oldest waiter")
	}
	select {
	case <-second:
		t.Fatal("one release granted two waiters")
	default:
	}
	pool.Release()
	<-second
	pool.Release()
	requireSlotsBack(t, pool, 1, "after both waiters released")
}
