package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"memreliability/internal/core"
	"memreliability/internal/estimator"
	"memreliability/internal/rng"
	"memreliability/internal/serve"
	"memreliability/internal/sweep"
)

// The serve-open traffic: an open loop at serveRate requests per second
// in windows of windowLen requests, each window a pass. Per window, 60%
// are repeats of hotKeys cached estimates, 30% fresh compiled estimates
// that always miss, one for each miss configuration, and 10% cached
// window distributions, one for each of windowKeys keys. Every window
// thus asks for the same work, and its p90 has twelve requests beyond it.
const (
	serveRate  = 40
	windowLen  = 120
	hotKeys    = 16
	windowKeys = 12
)

type reqKind string

const (
	hotReq    reqKind = "hot"
	missReq   reqKind = "miss"
	windowReq reqKind = "windowdist"
)

// slots is the traffic's shape, repeated every ten requests. The seed
// draws the query seeds but not the shape or the configurations, so how
// requests queue behind each other is the same for every seed.
var slots = [10]reqKind{hotReq, missReq, hotReq, hotReq, windowReq, hotReq, missReq, hotReq, hotReq, missReq}

type request struct {
	kind  reqKind
	key   int // hot or window key
	path  string
	body  []byte
	query estimator.Query // what a miss asks the estimator
}

// response is one request's outcome; times are since its window began.
type response struct {
	due, sent, done time.Duration
	op              int
	status          int
	cache           string
	body            []byte
	err             error
}

type serveInst struct {
	reqs   int // per window
	tr     *tracer
	src    *rng.Source
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	hot    []request
	window []request
	misses []estimator.Query // the miss configurations, seeds unset
	// cached holds the set-up's body for every hot and window request.
	cached map[string][]byte
	sched  []request  // every window's requests, in order
	resp   []response // by schedule index
}

func estimateRequest(q estimator.Query) (request, error) {
	body, err := json.Marshal(serve.EstimateRequest{Model: q.Model, Threads: q.Threads, PrefixLen: q.PrefixLen,
		Estimator: q.Kind, Trials: q.Trials, Seed: q.Seed, StoreProb: q.StoreProb, SwapProb: q.SwapProb})
	return request{kind: missReq, path: "/v1/estimate", body: body, query: q}, err
}

func setupServe(ctx context.Context, e *env, tr *tracer) (instance, error) {
	missTrials, hotTrials, ns, reqs := 16384, 16384, []int{2, 3, 4}, windowLen
	if e.short {
		missTrials, hotTrials, ns, reqs = 1024, 512, []int{2}, 20
	}
	s := &serveInst{reqs: reqs, tr: tr, src: rng.New(e.seed), cached: map[string][]byte{}}
	for i := 0; i < hotKeys; i++ {
		r, err := estimateRequest(estimator.Query{Kind: estimator.Hybrid, Model: allModels[i%4], Threads: []int{2, 3, 4, 6}[i/4],
			PrefixLen: 32, StoreProb: 0.5, SwapProb: 0.5, Trials: hotTrials, Seed: s.src.Uint64()})
		if err != nil {
			return nil, err
		}
		r.kind, r.key = hotReq, i
		s.hot = append(s.hot, r)
	}
	for k := 0; k < windowKeys; k++ {
		body, err := json.Marshal(serve.WindowDistRequest{Model: allModels[k%len(allModels)],
			PrefixLen: 8 + 4*(k/len(allModels)), MaxGamma: 8, StoreProb: 0.5, SwapProb: 0.5})
		if err != nil {
			return nil, err
		}
		s.window = append(s.window, request{kind: windowReq, key: k, path: "/v1/windowdist", body: body})
	}
	// The misses of a window cover every model × n × m ∈ {16,32} once.
	plans := map[string]core.Config{}
	for _, model := range allModels {
		for _, threads := range ns {
			for _, prefix := range []int{16, 32} {
				q := estimator.Query{Kind: estimator.CompiledMC, Model: model, Threads: threads, PrefixLen: prefix,
					StoreProb: 0.5, SwapProb: 0.5, Trials: missTrials}
				cfg, err := coreConfig(q)
				if err != nil {
					return nil, err
				}
				plans[configKey(cfg)] = cfg
				s.misses = append(s.misses, q)
			}
		}
	}

	// A long-running server has its compiled plans warm: set-up compiles
	// every miss configuration's plan from an emptied cache.
	evictPlans()
	for _, key := range sortedKeys(plans) {
		if _, err := core.DefaultPlanCache().Lookup(plans[key]); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(serve.Config{EstimateWorkers: e.w})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	var h http.Handler = srv
	if tr != nil {
		h = tr.wrap(h, "serve.ServeHTTP", "serve", func(r *http.Request) (int, int) {
			op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
			parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Parent"))
			return op, parent
		}, func(w http.ResponseWriter, r *http.Request) string {
			if r.URL.Path == "/v1/windowdist" {
				return "windowdist"
			}
			return w.Header().Get("X-Cache")
		})
	}
	s.ts = httptest.NewServer(h)
	s.client = &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: e.w, MaxIdleConnsPerHost: e.w}}
	// The hot keys and window keys are in the cache before the first window.
	for _, r := range append(append([]request(nil), s.hot...), s.window...) {
		resp := s.send(ctx, nil, time.Now(), 0, r)
		if resp.err == nil && resp.status != http.StatusOK {
			resp.err = fmt.Errorf("status %d: %s", resp.status, resp.body)
		}
		if resp.err == nil {
			var v any = &serve.EstimateResponse{}
			if r.kind == windowReq {
				v = &serve.WindowDistResponse{}
			}
			resp.err = json.Unmarshal(resp.body, v)
		}
		if resp.err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", resp.err)
		}
		s.cached[string(r.body)] = resp.body
	}
	return s, nil
}

// nextWindow returns the next window's requests: the misses in a fixed
// order, each with a fresh seed.
func (s *serveInst) nextWindow() ([]request, error) {
	reqs := make([]request, 0, s.reqs)
	count := map[reqKind]int{}
	for i := 0; i < s.reqs; i++ {
		kind := slots[i%len(slots)]
		k := count[kind]
		count[kind]++
		var r request
		switch kind {
		case hotReq:
			r = s.hot[k%len(s.hot)]
		case windowReq:
			r = s.window[k%len(s.window)]
		case missReq:
			q := s.misses[k%len(s.misses)]
			q.Seed = s.src.Uint64()
			var err error
			if r, err = estimateRequest(q); err != nil {
				return nil, err
			}
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// pass sends one window open loop: request i goes out at i/serveRate
// seconds into it whether or not earlier ones have returned, and its
// latency runs from that due time. The window ends when its last
// response is in.
func (s *serveInst) pass(ctx context.Context, rec *recorder) error {
	reqs, err := s.nextWindow()
	if err != nil {
		return err
	}
	interval := time.Second / serveRate
	resp := make([]response, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, r := range reqs {
		due := time.Duration(i) * interval
		time.Sleep(time.Until(start.Add(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp[i] = s.send(ctx, s.tr, start, due, r)
		}()
	}
	wg.Wait()
	for _, r := range resp {
		rec.add(sample{ms: float64(r.done-r.due) / float64(time.Millisecond),
			ok: r.err == nil && r.status == http.StatusOK})
	}
	s.sched = append(s.sched, reqs...)
	s.resp = append(s.resp, resp...)
	return nil
}

// send posts one request; with a tracer it runs as an op whose server
// side is placed under it by the X-Bench headers.
func (s *serveInst) send(ctx context.Context, tr *tracer, start time.Time, due time.Duration, r request) response {
	out := response{due: due, sent: time.Since(start), op: tr.newOp()}
	out.err = tr.call(ctx, out.op, 0, "client.request", "client", nil, func(ctx context.Context, id int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.ts.URL+r.path, bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/json")
		if tr != nil {
			req.Header.Set("X-Bench-Op", strconv.Itoa(out.op))
			req.Header.Set("X-Bench-Parent", strconv.Itoa(id))
		}
		resp, err := s.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		out.status, out.cache = resp.StatusCode, resp.Header.Get("X-Cache")
		out.body, err = io.ReadAll(resp.Body)
		return err
	})
	out.done = time.Since(start)
	return out
}

// check requires every response to be a 200 that decodes, every hot
// and window body to repeat the set-up's bytes, and every tenth miss to
// match a direct estimate.
func (s *serveInst) check(ctx context.Context) []string {
	var bad []string
	misses := 0
	for i, r := range s.resp {
		req := s.sched[i]
		if r.err != nil || r.status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("%s request %d: status %d, %v", req.kind, i, r.status, r.err))
			continue
		}
		switch req.kind {
		case hotReq, windowReq:
			if !bytes.Equal(r.body, s.cached[string(req.body)]) {
				bad = append(bad, fmt.Sprintf("%s key %d: body differs from the set-up's", req.kind, req.key))
			}
		case missReq:
			var v serve.EstimateResponse
			if err := json.Unmarshal(r.body, &v); err != nil {
				bad = append(bad, fmt.Sprintf("estimate request %d: %v", i, err))
				continue
			}
			if misses++; misses%10 != 1 {
				continue
			}
			if err := matchDirect(ctx, req.query, v.Result); err != nil {
				bad = append(bad, fmt.Sprintf("estimate request %d: %v", i, err))
			}
		}
	}
	return bad
}

// matchDirect requires a served cell to encode exactly as a direct
// estimate of the same query.
func matchDirect(ctx context.Context, q estimator.Query, served sweep.CellResult) error {
	res, err := estimator.EstimateExec(ctx, q, estimator.Exec{Workers: 1})
	if err != nil {
		return err
	}
	want, err := json.Marshal(sweep.CellResultOf(sweep.Cell{Model: q.Model, Threads: q.Threads,
		PrefixLen: q.PrefixLen, Estimator: res.Kind}, res))
	if err != nil {
		return err
	}
	got, err := json.Marshal(served)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("served %s, direct estimate %s", got, want)
	}
	return nil
}

// traced derives the serve layer's own metrics from the traced pass and
// queues every miss for a compiled-kernel replay.
func (s *serveInst) traced(context.Context) (tracedData, error) {
	handler := s.tr.opDurations("serve.ServeHTTP")
	var overhead, lat, miss, late []float64
	hits, dedup := 0.0, 0.0
	var replays []replayJob
	for i, r := range s.resp {
		ms := float64(r.done-r.due) / float64(time.Millisecond)
		lat = append(lat, ms)
		late = append(late, float64(r.sent-r.due)/float64(time.Millisecond))
		if h, ok := handler[r.op]; ok {
			overhead = append(overhead, float64(r.done-r.sent)/float64(time.Millisecond)-h)
		}
		switch r.cache {
		case "hit":
			hits++
		case "dedup":
			dedup++
		}
		if s.sched[i].kind != missReq {
			continue
		}
		miss = append(miss, ms)
		var v serve.EstimateResponse
		if err := json.Unmarshal(r.body, &v); err != nil {
			return tracedData{}, fmt.Errorf("decode miss %d: %w", i, err)
		}
		q := s.sched[i].query
		j, err := replayFor(q, estimator.Result{Estimate: v.Result.Estimate, TrialsUsed: q.Trials})
		if err != nil {
			return tracedData{}, err
		}
		replays = append(replays, j)
	}
	return tracedData{replays: replays, extra: map[string]float64{
		"serve.client_overhead_ms":  median(overhead),
		"serve.hit_ratio":           hits / float64(len(s.resp)),
		"serve.dedup":               dedup,
		"serve.latency_p99_ms":      quantile(lat, 0.99),
		"serve.miss_latency_p50_ms": median(miss),
		"serve.generator_late_ms":   quantile(late, 0.99),
	}}, nil
}

func (s *serveInst) close() {
	if s.ts != nil {
		s.ts.Close()
	}
	s.srv.Close()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}
