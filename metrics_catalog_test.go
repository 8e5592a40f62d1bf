package memreliability

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestMetricCatalogCoversEngineMetrics holds README.md's metric catalog
// to the whole exposition a server writes at /metrics/prom — its own
// serve_* registry followed by the engine registry (EngineMetrics):
// every family there must appear in README.md as a whole backticked
// name, `name` or `name{…}`. A substring match is not enough: it would
// accept `mc_trials_per_sec` inside a misspelled `mc_trials_per_second`.
func TestMetricCatalogCoversEngineMetrics(t *testing.T) {
	// One query per estimator kind registers the families that appear
	// only on first use (the per-kind estimator series).
	for _, kind := range EstimatorKinds() {
		q := DefaultQuery()
		q.Kind, q.Model, q.PrefixLen, q.Trials = kind, "TSO", 8, 64
		if _, err := Estimate(context.Background(), q); err != nil {
			t.Fatalf("%s query: %v", kind, err)
		}
	}
	srv, err := NewServer(ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/prom", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics/prom status %d", rec.Code)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	scanner := bufio.NewScanner(rec.Body)
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) != 4 || fields[0] != "#" || fields[1] != "TYPE" {
			continue
		}
		families++
		name := fields[2]
		if !bytes.Contains(readme, []byte("`"+name+"`")) && !bytes.Contains(readme, []byte("`"+name+"{")) {
			t.Errorf("metric family %s is missing from README.md's metric catalog", name)
		}
	}
	if families == 0 {
		t.Fatal("/metrics/prom exposed no metric families")
	}
}
