package settle

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"memreliability/internal/dist"
	"memreliability/internal/memmodel"
)

var update = flag.Bool("update", false, "rewrite testdata/exact_dp_golden.txt from the current DP")

const dpGoldenPath = "testdata/exact_dp_golden.txt"

// goldenModels is the six built-in models, listed explicitly so that a
// model registered by some other test cannot change the golden grid.
func goldenModels() []memmodel.Model {
	return append(memmodel.All(), memmodel.RMO(), memmodel.LRO())
}

// bitsLine renders one golden line: a label and the math.Float64bits of
// every value, in hex, so the comparison is bit for bit.
func bitsLine(label string, vals []float64) string {
	var b strings.Builder
	b.WriteString(label)
	b.WriteByte(':')
	for _, v := range vals {
		fmt.Fprintf(&b, " %016x", math.Float64bits(v))
	}
	return b.String()
}

func pmfValues(pmf *dist.PMF) []float64 {
	out := make([]float64, pmf.Len())
	for i := range out {
		out[i] = pmf.At(i)
	}
	return out
}

// dpGoldenLines evaluates every exact-DP entry point over the golden
// grid: all six models × m ∈ {0, 1, 7, 12} × six (p, s) points
// (interior and edge), plus m = 16 at the normal form, and
// ConditionalWindowDist on fixed prefixes at interior and edge s. The
// window lines come from windowDist.
func dpGoldenLines(t *testing.T, windowDist func(memmodel.Model, int, float64, float64, int) (*dist.PMF, error)) []string {
	t.Helper()
	type point struct {
		m    int
		p, s float64
	}
	var grid []point
	for _, m := range []int{0, 1, 7, 12} {
		for _, ps := range [][2]float64{{0.5, 0.5}, {0.3, 0.7}, {0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}} {
			grid = append(grid, point{m, ps[0], ps[1]})
		}
	}
	grid = append(grid, point{16, 0.5, 0.5})
	prefixes := []string{"", "S", "L", "SLSSLLS", "LSLSLSLSLSLS", "SSSLLLSSSLLLSSL"}

	var lines []string
	for _, model := range goldenModels() {
		for _, g := range grid {
			at := fmt.Sprintf("%s m=%d p=%v s=%v", model.Name(), g.m, g.p, g.s)
			window, err := windowDist(model, g.m, g.p, g.s, g.m)
			if err != nil {
				t.Fatal(err)
			}
			contiguous, err := ExactContiguousStoreDist(model, g.m, g.p, g.s, g.m)
			if err != nil {
				t.Fatal(err)
			}
			density, err := BottomStoreDensity(model, g.m, g.p, g.s)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines,
				bitsLine("window "+at, pmfValues(window)),
				bitsLine("contiguous "+at, pmfValues(contiguous)),
				bitsLine("density "+at, density))
		}
		for _, text := range prefixes {
			prefix := make([]memmodel.OpType, len(text))
			for i, c := range text {
				prefix[i] = memmodel.Load
				if c == 'S' {
					prefix[i] = memmodel.Store
				}
			}
			for _, s := range []float64{0.5, 0.7, 0, 1} {
				pmf, err := ConditionalWindowDist(model, prefix, s)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("conditional %s prefix=%q s=%v", model.Name(), text, s)
				lines = append(lines, bitsLine(label, pmfValues(pmf)))
			}
		}
	}
	return lines
}

// TestExactDPGolden pins every exact settling DP result bit for bit
// against a committed golden file, so that any change to the DP's
// floating-point operations or their order shows up here, at points the
// memsweep and serve goldens never reach. Regenerate the file only for a
// deliberate change of results: go test ./internal/settle -run ExactDPGolden -update
func TestExactDPGolden(t *testing.T) {
	got := dpGoldenLines(t, ExactWindowDist)
	if *update {
		if err := os.MkdirAll(filepath.Dir(dpGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dpGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkGolden(t, got)
}

// TestExactDPGoldenThroughWindowCache runs the golden grid's window
// distributions through a window cache twice: the first pass computes
// every entry, the second reads them back. Both must match the golden
// file bit for bit.
func TestExactDPGoldenThroughWindowCache(t *testing.T) {
	wc := newWindowCache(windowCacheCap)
	for pass := 0; pass < 2; pass++ {
		checkGolden(t, dpGoldenLines(t, wc.WindowDist))
	}
}

// checkGolden compares golden lines with the committed file.
func checkGolden(t *testing.T, got []string) {
	t.Helper()
	raw, err := os.ReadFile(dpGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs\n got: %s\nwant: %s", i+1, got[i], want[i])
			if bad++; bad == 5 {
				t.Fatal("stopping after 5 differing lines")
			}
		}
	}
}
