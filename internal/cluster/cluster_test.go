package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// testSpec is a small mixed-kind grid: per model, exact + mc + hybrid +
// windowdist at n=2 and exact (skipped) + mc + hybrid at n=3 — 14
// cells, every estimator kind, including a skipped cell.
func testSpec() sweep.Spec {
	spec := sweep.DefaultSpec()
	spec.Models = []string{"SC", "TSO"}
	spec.Threads = []int{2, 3}
	spec.PrefixLens = []int{12}
	spec.Estimators = []sweep.Kind{sweep.Exact, sweep.FullMC, sweep.Hybrid, sweep.WindowDist}
	spec.Trials = 2048
	spec.Seed = 7
	return spec
}

// countingWorker wraps the worker handler with a served-request counter.
type countingWorker struct {
	h      http.Handler
	n      atomic.Int64
	served atomic.Int64
	// full, when set, is closed once quota requests have been served.
	quota int64
	full  chan struct{}
}

func (cw *countingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw.n.Add(1)
	cw.h.ServeHTTP(w, r)
	if cw.served.Add(1) == cw.quota && cw.full != nil {
		close(cw.full)
	}
}

// startWorkers boots n in-process workers over real HTTP.
func startWorkers(t *testing.T, n int) ([]string, []*countingWorker) {
	t.Helper()
	urls := make([]string, n)
	counters := make([]*countingWorker, n)
	for i := 0; i < n; i++ {
		cw := &countingWorker{h: NewWorker(WorkerConfig{Workers: 1})}
		ts := httptest.NewServer(cw)
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
		counters[i] = cw
	}
	return urls, counters
}

// artifactBytes encodes an artifact exactly as memsweep -o would.
func artifactBytes(t *testing.T, art *sweep.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := art.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// standaloneBytes runs the spec through the single-node engine.
func standaloneBytes(t *testing.T, spec sweep.Spec) []byte {
	t.Helper()
	art, err := sweep.Run(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return artifactBytes(t, art)
}

// TestDistributedMatchesStandalone is the cross-process worker-count-
// invariance property, crossed with dispatch batching: the same spec
// run standalone and distributed at 1, 2, and 4 workers, at batch
// sizes 1, 3, and the default, produces byte-identical artifacts.
func TestDistributedMatchesStandalone(t *testing.T) {
	spec := testSpec()
	want := standaloneBytes(t, spec)

	for _, workers := range []int{1, 2, 4} {
		for _, maxBatch := range []int{1, 3, 0} { // 0 = default batching
			urls, _ := startWorkers(t, workers)
			coord, err := New(Config{Workers: urls, MaxBatch: maxBatch})
			if err != nil {
				t.Fatal(err)
			}
			var sunk atomic.Int64
			art, err := coord.RunSweep(context.Background(), spec,
				sweep.Options{Sink: func(sweep.CellResult) { sunk.Add(1) }})
			if err != nil {
				t.Fatalf("workers=%d batch=%d: %v", workers, maxBatch, err)
			}
			got := artifactBytes(t, art)
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d batch=%d: distributed artifact differs from standalone (%d vs %d bytes)",
					workers, maxBatch, len(got), len(want))
			}
			if int(sunk.Load()) != len(art.Cells) {
				t.Errorf("workers=%d batch=%d: sink saw %d cells, want %d",
					workers, maxBatch, sunk.Load(), len(art.Cells))
			}
		}
	}
}

// TestBatchDispatchCoalesces pins the batching win itself: a fleet of
// one worker with a batch bound above the grid size must execute the
// whole sweep in exactly one worker request, still byte-identical.
func TestBatchDispatchCoalesces(t *testing.T) {
	spec := testSpec()
	want := standaloneBytes(t, spec)

	urls, counters := startWorkers(t, 1)
	coord, err := New(Config{Workers: urls, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	art, err := coord.RunSweep(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactBytes(t, art); !bytes.Equal(got, want) {
		t.Error("batched artifact differs from standalone")
	}
	if n := counters[0].n.Load(); n != 1 {
		t.Errorf("sweep of %d cells took %d worker requests, want 1", len(art.Cells), n)
	}
}

// stallingWorker holds its first request until release is closed, for
// at most stallBound; expired records a hold that ran out.
type stallingWorker struct {
	h       http.Handler
	served  atomic.Int64
	release chan struct{}
	expired atomic.Bool
}

const stallBound = 10 * time.Second

func (sw *stallingWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if sw.served.Add(1) == 1 {
		select {
		case <-sw.release:
		case <-time.After(stallBound):
			sw.expired.Store(true)
		}
	}
	sw.h.ServeHTTP(w, r)
}

// TestIdleWorkerTakesQueuedCells stalls one worker on its first batch:
// the other must run every remaining cell, its own shard's and the
// stalled worker's queued ones, before the stall ends, and the artifact
// must not change. Without taking cells from another worker's queue it
// would finish its own shard and wait.
func TestIdleWorkerTakesQueuedCells(t *testing.T) {
	spec := testSpec()
	want := standaloneBytes(t, spec)
	cells := len(spec.Normalized().Expand())

	// The stall ends when the free worker has served every other cell.
	free := &countingWorker{h: NewWorker(WorkerConfig{Workers: 1}), quota: int64(cells - 1), full: make(chan struct{})}
	freeSrv := httptest.NewServer(free)
	t.Cleanup(freeSrv.Close)
	sw := &stallingWorker{h: NewWorker(WorkerConfig{Workers: 1}), release: free.full}
	stalled := httptest.NewServer(sw)
	t.Cleanup(stalled.Close)

	coord, err := New(Config{Workers: []string{stalled.URL, freeSrv.URL}, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	art, err := coord.RunSweep(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sw.expired.Load() {
		t.Fatalf("the stalled worker's first request was held %v and the free worker never served %d cells",
			stallBound, cells-1)
	}
	if got := artifactBytes(t, art); !bytes.Equal(got, want) {
		t.Error("artifact differs from standalone")
	}
	if got := free.n.Load(); got != int64(cells-1) {
		t.Errorf("the free worker served %d of %d cells while the other stalled on one, want %d",
			got, cells, cells-1)
	}
}

// killableWorker serves its first request normally, then drops every
// connection — indistinguishable from a killed worker process. killed
// closes when its second request arrives.
type killableWorker struct {
	h      http.Handler
	served atomic.Int64
	killed chan struct{}
}

func (kw *killableWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if n := kw.served.Add(1); n > 1 {
		if n == 2 {
			close(kw.killed)
		}
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test server must support hijacking")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	kw.h.ServeHTTP(w, r)
}

// TestWorkerKilledMidSweepRetries kills one worker at its second
// request and requires the surviving worker to absorb the orphaned
// cells with a byte-identical artifact — the failure-path determinism,
// at unbatched and batched dispatch. With a batch the kill orphans a
// whole in-flight batch at once, exercising the batch retry path.
//
// The survivor's first request is held until the dying worker has
// received its second. Otherwise the survivor, its own shard done, may
// take every cell still queued on the dying worker while that worker's
// first batch runs, and the kill never fires.
func TestWorkerKilledMidSweepRetries(t *testing.T) {
	spec := testSpec()
	want := standaloneBytes(t, spec)

	for _, maxBatch := range []int{1, 2} {
		kw := &killableWorker{h: NewWorker(WorkerConfig{Workers: 1}), killed: make(chan struct{})}
		dying := httptest.NewServer(kw)
		t.Cleanup(dying.Close)
		sw := &stallingWorker{h: NewWorker(WorkerConfig{Workers: 1}), release: kw.killed}
		survivor := httptest.NewServer(sw)
		t.Cleanup(survivor.Close)

		coord, err := New(Config{
			Workers:     []string{dying.URL, survivor.URL},
			CellTimeout: 30 * time.Second,
			MaxBatch:    maxBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		retriesBefore := coord.wm[0].retries.Value()
		art, err := coord.RunSweep(context.Background(), spec, sweep.Options{})
		if err != nil {
			t.Fatalf("batch=%d: %v", maxBatch, err)
		}
		if sw.expired.Load() {
			t.Fatalf("batch=%d: the survivor's first request was held %v and the dying worker never received a second",
				maxBatch, stallBound)
		}
		if got := artifactBytes(t, art); !bytes.Equal(got, want) {
			t.Errorf("batch=%d: artifact after worker kill differs from standalone", maxBatch)
		}
		if kw.served.Load() < 2 {
			t.Fatalf("batch=%d: dying worker saw %d requests; the kill never fired mid-sweep",
				maxBatch, kw.served.Load())
		}
		if sw.served.Load() == 0 {
			t.Errorf("batch=%d: survivor computed nothing; orphaned cells were not retried", maxBatch)
		}
		if coord.wm[0].retries.Value() <= retriesBefore {
			t.Errorf("batch=%d: retry counter did not move for the killed worker", maxBatch)
		}
	}
}

// TestWarmStoreRestartZeroRuns is the acceptance criterion: a fresh
// coordinator against a warm content-addressed store completes the
// same sweep with zero dispatches (and hence zero estimator runs),
// asserted via the obs counters, with byte-identical artifacts.
func TestWarmStoreRestartZeroRuns(t *testing.T) {
	spec := testSpec()
	want := standaloneBytes(t, spec)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	urls, counters := startWorkers(t, 2)
	cold, err := New(Config{Workers: urls, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	art1, err := cold.RunSweep(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactBytes(t, art1); !bytes.Equal(got, want) {
		t.Fatal("cold distributed artifact differs from standalone")
	}
	coldRequests := counters[0].n.Load() + counters[1].n.Load()
	if coldRequests == 0 {
		t.Fatal("cold run dispatched nothing")
	}

	// "Restart": a brand-new coordinator over the same store. Every
	// cell must come from disk — no worker traffic, no estimator runs.
	warm, err := New(Config{Workers: urls, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	dedupBefore := storeDedup.Value()
	dispatchBefore := warm.wm[0].dispatch.Value() + warm.wm[1].dispatch.Value()
	art2, err := warm.RunSweep(context.Background(), spec, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := artifactBytes(t, art2); !bytes.Equal(got, want) {
		t.Fatal("warm distributed artifact differs from standalone")
	}
	if extra := counters[0].n.Load() + counters[1].n.Load() - coldRequests; extra != 0 {
		t.Errorf("warm run sent %d worker requests, want 0", extra)
	}
	if d := warm.wm[0].dispatch.Value() + warm.wm[1].dispatch.Value() - dispatchBefore; d != 0 {
		t.Errorf("warm run dispatch counter moved by %d, want 0", d)
	}
	if d := storeDedup.Value() - dedupBefore; d != int64(len(art2.Cells)) {
		t.Errorf("store dedup counter moved by %d, want %d", d, len(art2.Cells))
	}
}

// TestAllWorkersDeadFails: when every worker has been retired, the
// sweep fails with ErrNoWorkers instead of hanging.
func TestAllWorkersDeadFails(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)

	coord, err := New(Config{Workers: []string{failing.URL, failing.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.RunSweep(context.Background(), testSpec(), sweep.Options{})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestRetryBudgetExhausted: with a fleet wider than the retry bound,
// one poisoned cell exhausts its bounded retries and fails the sweep
// before the whole fleet is retired.
func TestRetryBudgetExhausted(t *testing.T) {
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)

	urls := []string{failing.URL, failing.URL, failing.URL, failing.URL, failing.URL}
	coord, err := New(Config{Workers: urls, MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.RunSweep(context.Background(), testSpec(), sweep.Options{})
	if err == nil {
		t.Fatal("sweep succeeded against an all-failing fleet")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") && !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want retry-budget or no-workers failure", err)
	}
}

// TestPermanentRejectionFailsFast: a worker 400 (canonical validation)
// must fail the sweep without being retried on survivors.
func TestPermanentRejectionFailsFast(t *testing.T) {
	var served atomic.Int64
	rejecting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		http.Error(w, `{"error":"bad cell"}`, http.StatusBadRequest)
	}))
	t.Cleanup(rejecting.Close)

	coord, err := New(Config{Workers: []string{rejecting.URL}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = coord.RunSweep(context.Background(), testSpec(), sweep.Options{})
	if !errors.Is(err, errPermanent) {
		t.Fatalf("err = %v, want permanent rejection", err)
	}
}

// TestCancellation: canceling the caller's context surfaces as a
// context error, not a worker failure.
func TestCancellation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: net/http only watches for client
		// disconnects (and cancels r.Context) once the body is consumed.
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		<-r.Context().Done()
	}))
	t.Cleanup(slow.Close)

	coord, err := New(Config{Workers: []string{slow.URL}, CellTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err = coord.RunSweep(ctx, testSpec(), sweep.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestConfigValidation covers the constructor's rejections, including
// the timing knob that would break artifact byte-identity.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty fleet: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Workers: []string{""}}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty URL: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Workers: []string{"http://x"}, MaxRetries: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative retries: err = %v, want ErrBadConfig", err)
	}
	if _, err := New(Config{Workers: []string{"http://x"}, MaxBatch: -1}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative batch: err = %v, want ErrBadConfig", err)
	}
	coord, err := New(Config{Workers: []string{"http://x"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.RunSweep(context.Background(), testSpec(), sweep.Options{Timing: true}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("timing: err = %v, want ErrBadConfig", err)
	}
	bad := testSpec()
	bad.Models = nil
	if _, err := coord.RunSweep(context.Background(), bad, sweep.Options{}); !errors.Is(err, sweep.ErrBadSpec) {
		t.Errorf("bad spec: err = %v, want sweep.ErrBadSpec", err)
	}
}

// TestWorkerRejectsOversizedBatch sends a worker a cell batch one byte
// over MaxCellBatchBytes — a valid batch padded with whitespace — and
// expects 400, the permanent rejection the coordinator does not retry
// elsewhere; a normal batch still succeeds afterwards.
func TestWorkerRejectsOversizedBatch(t *testing.T) {
	ts := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}))
	t.Cleanup(ts.Close)
	batch := `{"cells":[{"index":0,"query":{"kind":"exact","model":"TSO","threads":2,"prefix_len":8,` +
		`"store_prob":0.5,"swap_prob":0.5},"seed":1}]}`
	send := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/cells", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	padded := strings.Repeat(" ", MaxCellBatchBytes+1-len(batch)) + batch
	if code, data := send(padded); code != http.StatusBadRequest {
		t.Errorf("%d-byte batch: status %d, want 400 (%s)", len(padded), code, data)
	}
	if code, data := send(batch); code != http.StatusOK {
		t.Fatalf("normal batch after an oversized one: status %d: %s", code, data)
	}
	// A cell whose trial budget is over mc.TrialLimit is a permanent
	// 400 too, refused before any chunk plan is allocated.
	huge := `{"cells":[{"index":0,"query":{"kind":"mc","model":"TSO","threads":2,"prefix_len":8,` +
		`"store_prob":0.5,"swap_prob":0.5,"trials":9223372036854775807},"seed":1}]}`
	if code, data := send(huge); code != http.StatusBadRequest {
		t.Errorf("cell with trials 2^63-1: status %d, want 400 (%s)", code, data)
	}
	// So is a cell whose threads or prefix_len is over the estimator's
	// limits, refused before any scratch is sized from it.
	for _, size := range []string{`"threads":4611686018427387904,"prefix_len":8`, `"threads":2,"prefix_len":4611686018427387904`} {
		cell := `{"cells":[{"index":0,"query":{"kind":"mc-compiled","model":"TSO",` + size +
			`,"store_prob":0.5,"swap_prob":0.5,"trials":64},"seed":1}]}`
		if code, data := send(cell); code != http.StatusBadRequest {
			t.Errorf("cell with %s: status %d, want 400 (%s)", size, code, data)
		}
	}
	if code, data := send(batch); code != http.StatusOK {
		t.Fatalf("normal batch after oversized cells: status %d: %s", code, data)
	}
}
