package memreliability

import (
	"bufio"
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
)

// TestMetricCatalogCoversEngineMetrics holds README.md's metric catalog
// to the engine registry: every family EngineMetrics exposes must appear
// in README.md as a whole backticked name, `name` or `name{…}`. A
// substring match is not enough: it would accept `mc_trials_per_sec`
// inside a misspelled `mc_trials_per_second`.
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
	var exposition bytes.Buffer
	if err := EngineMetrics().WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	families := 0
	scanner := bufio.NewScanner(&exposition)
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
		t.Fatal("the engine registry exposed no metric families")
	}
}
