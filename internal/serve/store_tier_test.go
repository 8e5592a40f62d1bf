package serve

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memreliability/internal/obs"
	"memreliability/internal/store"
)

// openStore opens a content-addressed store rooted at dir or fails the
// test.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDiskTierSharedStore covers the persistent second cache tier: a
// fresh server sharing a warm store directory serves byte-identical
// bodies with X-Cache: disk, promotes them into its LRU, and counts the
// outcome on the route's disk cache series.
func TestDiskTierSharedStore(t *testing.T) {
	dir := t.TempDir()
	body := `{"model":"SC","estimator":"exact","threads":2,"prefix_len":12}`

	// Server 1 computes and writes through.
	_, ts1 := newTestServer(t, Config{Store: openStore(t, dir)})
	resp1, data1 := post(t, ts1.URL+"/v1/estimate", body)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d X-Cache %q", resp1.StatusCode, resp1.Header.Get("X-Cache"))
	}

	// Server 2 shares only the store directory: first answer comes from
	// disk, byte-identical, and the promotion makes the second a memory
	// hit.
	_, ts2 := newTestServer(t, Config{Store: openStore(t, dir)})
	resp2, data2 := post(t, ts2.URL+"/v1/estimate", body)
	if resp2.Header.Get("X-Cache") != "disk" {
		t.Fatalf("warm-store request: X-Cache %q, want disk", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("disk-tier body differs from computed body:\n%s\nvs\n%s", data1, data2)
	}
	resp3, data3 := post(t, ts2.URL+"/v1/estimate", body)
	if resp3.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-promotion request: X-Cache %q, want hit", resp3.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data1, data3) {
		t.Fatal("post-promotion body differs")
	}
	const disk = `serve_cache_events_total{route="POST /v1/estimate",state="disk"}`
	if got := metric(t, ts2.URL, disk); got != 1 {
		t.Fatalf("server 2 disk hits = %v, want 1", got)
	}
	if got := metric(t, ts1.URL, disk); got != 0 {
		t.Fatalf("server 1 disk hits = %v, want 0", got)
	}
}

// TestDiskTierCorruptRecordRecomputes covers the robustness contract at
// the serve layer: a corrupted store record reads as a miss, the server
// recomputes, and the write-through replaces the bad record.
func TestDiskTierCorruptRecordRecomputes(t *testing.T) {
	dir := t.TempDir()
	body := `{"model":"TSO","estimator":"exact","threads":2,"prefix_len":12}`

	_, ts1 := newTestServer(t, Config{Store: openStore(t, dir)})
	_, data1 := post(t, ts1.URL+"/v1/estimate", body)

	// Corrupt every stored record in place.
	var corrupted int
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		corrupted++
		return os.WriteFile(path, []byte("{not json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("write-through left no records to corrupt")
	}

	_, ts2 := newTestServer(t, Config{Store: openStore(t, dir)})
	resp2, data2 := post(t, ts2.URL+"/v1/estimate", body)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("corrupt-store request: status %d X-Cache %q, want 200 miss",
			resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("recomputed body differs from original")
	}

	// The recompute's write-through healed the record: a third fresh
	// server reads it from disk again.
	_, ts3 := newTestServer(t, Config{Store: openStore(t, dir)})
	resp3, _ := post(t, ts3.URL+"/v1/estimate", body)
	if resp3.Header.Get("X-Cache") != "disk" {
		t.Fatalf("healed-store request: X-Cache %q, want disk", resp3.Header.Get("X-Cache"))
	}
}

// countSpans counts the spans named name in the tree under sj.
func countSpans(sj obs.SpanJSON, name string) int {
	n := 0
	if sj.Name == name {
		n++
	}
	for _, c := range sj.Children {
		n += countSpans(c, name)
	}
	return n
}

// TestFullMissReadsStoreOnce checks that a full miss on a server with a
// store reads the store once: store_gets_total{outcome="miss"} moves by
// exactly 1, and the miss's trace holds one store.lookup span. The
// repeat is a hit that reads the store no more.
func TestFullMissReadsStoreOnce(t *testing.T) {
	_, ts := newTestServer(t, Config{Store: openStore(t, t.TempDir())})
	body := `{"model":"PSO","estimator":"exact","threads":2,"prefix_len":10}`
	const storeMisses = `store_gets_total{outcome="miss"}`
	before := metric(t, ts.URL, storeMisses)

	req, err := http.NewRequest("POST", ts.URL+"/v1/estimate", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	envBody := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d X-Cache %q, want 200 miss: %s",
			resp.StatusCode, resp.Header.Get("X-Cache"), envBody)
	}
	if got := metric(t, ts.URL, storeMisses) - before; got != 1 {
		t.Errorf("one full miss moved %s by %v, want 1", storeMisses, got)
	}
	var env struct {
		Trace obs.SpanJSON `json:"trace"`
	}
	if err := json.Unmarshal(envBody, &env); err != nil {
		t.Fatalf("parse envelope: %v\n%s", err, envBody)
	}
	if got := countSpans(env.Trace, "store.lookup"); got != 1 {
		t.Errorf("the miss's trace holds %d store.lookup spans, want 1:\n%s", got, envBody)
	}

	resp2, _ := post(t, ts.URL+"/v1/estimate", body)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat request: X-Cache %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if got := metric(t, ts.URL, storeMisses) - before; got != 1 {
		t.Errorf("a hit read the store: %s moved by %v in all, want 1", storeMisses, got)
	}
}
