package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"memreliability/internal/cluster"
	"memreliability/internal/serve"
	"memreliability/internal/store"
	"memreliability/internal/sweep"
)

// startDaemon boots serveListener on an ephemeral port and returns its
// base URL, a shutdown func, and the exit channel.
func startDaemon(t *testing.T) (string, context.CancelFunc, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	var logs bytes.Buffer
	go func() {
		errc <- serveListener(ctx, l, serve.Config{}, 5*time.Second, &logs)
	}()
	return "http://" + l.Addr().String(), cancel, errc
}

func TestDaemonServesAndShutsDown(t *testing.T) {
	url, cancel, errc := startDaemon(t)

	// The daemon accepts the connection as soon as Serve starts; poll
	// briefly in case the goroutine has not scheduled yet.
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get(url + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Post(url+"/v1/estimate", "application/json",
		strings.NewReader(`{"model":"SC","threads":2,"estimator":"exact"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-bogus"}, io.Discard); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(context.Background(), []string{"-addr", "256.0.0.1:bad"}, io.Discard); err == nil {
		t.Error("bad address accepted")
	}
}

func TestServeListenerBadConfig(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	err = serveListener(context.Background(), l, serve.Config{CacheSize: -1}, time.Second, io.Discard)
	if err == nil {
		t.Fatal("bad config accepted")
	}
	// The listener must have been released.
	if _, dErr := net.Listen("tcp", l.Addr().String()); dErr != nil {
		t.Errorf("listener leaked: %v", dErr)
	}
}

// startHandlerDaemon boots serveHandler with an arbitrary handler on an
// ephemeral port.
func startHandlerDaemon(t *testing.T, h http.Handler) (string, context.CancelFunc, chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- serveHandler(ctx, l, h, func() {}, 5*time.Second, io.Discard)
	}()
	return "http://" + l.Addr().String(), cancel, errc
}

// waitHealthy polls /healthz until the daemon answers.
func waitHealthy(t *testing.T, url string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon at %s never became healthy", url)
}

// TestWorkerModeServesCells: the worker-mode handler computes cells and
// shuts down cleanly under the shared serve loop.
func TestWorkerModeServesCells(t *testing.T) {
	url, cancel, errc := startHandlerDaemon(t, cluster.NewWorker(cluster.WorkerConfig{}))
	waitHealthy(t, url)

	body := `{"cells":[{"index":0,"query":{"kind":"exact","model":"SC","threads":2,"prefix_len":12},"seed":42}]}`
	resp, err := http.Post(url+"/v1/cells", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cells status %d: %s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"index": 0`) && !strings.Contains(string(data), `"index":0`) {
		t.Fatalf("cells body %s", data)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("worker did not shut down")
	}
}

// TestCoordinatorModeEndToEnd wires the coordinator glue exactly as
// -mode=coordinator does (cluster engine as the serve runner, shared
// store) and checks the job pipeline yields the standalone artifact
// bytes.
func TestCoordinatorModeEndToEnd(t *testing.T) {
	w1, cancelW1, _ := startHandlerDaemon(t, cluster.NewWorker(cluster.WorkerConfig{}))
	defer cancelW1()
	w2, cancelW2, _ := startHandlerDaemon(t, cluster.NewWorker(cluster.WorkerConfig{}))
	defer cancelW2()
	waitHealthy(t, w1)
	waitHealthy(t, w2)

	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{Workers: []string{w1, w2}, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- serveListener(ctx, l, serve.Config{Store: st, RunSweep: coord.RunSweep}, 5*time.Second, io.Discard)
	}()
	url := "http://" + l.Addr().String()
	waitHealthy(t, url)

	spec := `{"models":["SC","TSO"],"estimators":["exact","mc"],"threads":[2],"prefix_lens":[12],"trials":2048,"seed":11}`
	resp, err := http.Post(url+"/v1/sweeps", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for status.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", status.State)
		}
		time.Sleep(20 * time.Millisecond)
		resp, err := http.Get(url + "/v1/sweeps/" + status.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if status.State == "failed" || status.State == "canceled" {
			t.Fatalf("job ended %q", status.State)
		}
	}

	resp, err = http.Get(url + "/v1/sweeps/" + status.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	var specVal sweep.Spec = sweep.DefaultSpec()
	if err := json.Unmarshal([]byte(spec), &specVal); err != nil {
		t.Fatal(err)
	}
	art, err := sweep.Run(context.Background(), specVal, sweep.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := art.EncodeJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("distributed artifact differs from standalone:\n%d vs %d bytes", len(got), want.Len())
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("coordinator exit: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("coordinator did not shut down")
	}
}

// TestRunModeFlags covers the mode flag's rejection paths.
func TestRunModeFlags(t *testing.T) {
	if err := run(context.Background(), []string{"-mode", "bogus"}, io.Discard); err == nil {
		t.Error("bogus mode accepted")
	}
	if err := run(context.Background(), []string{"-mode", "coordinator"}, io.Discard); err == nil {
		t.Error("coordinator without -cluster-workers accepted")
	}
	if err := run(context.Background(), []string{"-store-dir", "\x00bad"}, io.Discard); err == nil {
		t.Error("unusable store dir accepted")
	}
}

// TestHTTPServerHasReadHeaderTimeout checks the one constructor both
// memserved servers (API and pprof) are built with: a client that never
// finishes its headers must not hold a connection forever.
func TestHTTPServerHasReadHeaderTimeout(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer(h)
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v (> 0)", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.Handler == nil {
		t.Error("handler not set")
	}
}
