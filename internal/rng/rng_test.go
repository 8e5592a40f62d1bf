package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must differ from the parent's continued stream.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child streams collided on %d of 100 draws", same)
	}
}

func TestSplitDeterministic(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("split is not deterministic at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if r.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !r.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	r := New(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency = %v", freq)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(8)
	const n, buckets = 120000, 6
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d: count %d deviates from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	check := func(n uint8) bool {
		size := int(n%32) + 1
		p := r.Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(12)
	const n, size = 60000, 4
	counts := make([]int, size)
	for i := 0; i < n; i++ {
		counts[r.Perm(size)[0]]++
	}
	want := float64(n) / size
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("first element %d: count %d deviates from %v", b, c, want)
		}
	}
}

func TestStateRestore(t *testing.T) {
	r := New(13)
	r.Uint64()
	st := r.State()
	a := r.Uint64()
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if b := r.Uint64(); a != b {
		t.Fatalf("restored stream diverged: %d != %d", a, b)
	}
}

func TestRestoreRejectsZeroState(t *testing.T) {
	r := New(14)
	if err := r.Restore([4]uint64{}); err != ErrDegenerateState {
		t.Fatalf("Restore(zero) = %v, want ErrDegenerateState", err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(15)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

// TestFillUint64sStreamIdentical is the bulk-fill contract: any sequence
// of FillUint64s calls (including empty and odd-length buffers) yields
// exactly the words — and exactly the final state — that the same number
// of sequential Uint64 calls would. Both kernel engines draw through
// this property, so it is what keeps the compiled-vs-reference oracle
// comparison fair by construction.
func TestFillUint64sStreamIdentical(t *testing.T) {
	if err := quick.Check(func(seed uint64, sizes []uint8) bool {
		bulk, seq := New(seed), New(seed)
		for _, sz := range sizes {
			buf := make([]uint64, int(sz)%97)
			bulk.FillUint64s(buf)
			for i, w := range buf {
				if want := seq.Uint64(); w != want {
					t.Logf("word %d: bulk %d != sequential %d", i, w, want)
					return false
				}
			}
		}
		return bulk.State() == seq.State()
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestFillFloat64sStreamIdentical pins the float path to sequential
// Float64 calls the same way.
func TestFillFloat64sStreamIdentical(t *testing.T) {
	bulk, seq := New(99), New(99)
	for _, size := range []int{0, 1, 7, 64, 1000} {
		buf := make([]float64, size)
		bulk.FillFloat64s(buf)
		for i, v := range buf {
			if want := seq.Float64(); v != want {
				t.Fatalf("size %d, variate %d: bulk %v != sequential %v", size, i, v, want)
			}
		}
	}
	if bulk.State() != seq.State() {
		t.Error("bulk and sequential float streams diverged in state")
	}
}

// TestFillBelowStreamIdentical pins the deciding fill to FillUint64s
// plus the threshold test, word for word and in the final state, over
// buffer sizes including empty ones and thresholds at both ends of the
// range and between them.
func TestFillBelowStreamIdentical(t *testing.T) {
	for _, thr := range []uint64{0, 1, 1 << 63, 0xe666666666666800, ^uint64(0)} {
		fused, ref := New(77), New(77)
		for _, size := range []int{0, 1, 3, 16, 0, 40} {
			got := make([]uint64, size)
			fused.FillBelow(got, thr)
			draws := make([]uint64, 64*size)
			ref.FillUint64s(draws)
			for w := range got {
				var want uint64
				for i, d := range draws[64*w : 64*w+64] {
					if d < thr {
						want |= 1 << uint(i)
					}
				}
				if got[w] != want {
					t.Fatalf("thr %#x size %d word %d: FillBelow %064b, want %064b", thr, size, w, got[w], want)
				}
			}
		}
		if fused.State() != ref.State() {
			t.Errorf("thr %#x: FillBelow and FillUint64s end in different states", thr)
		}
	}
}

// TestFillUint64sZeroAlloc pins the bulk fill as allocation-free — the
// guarantee the rng-bulkfill perf scenario gates.
func TestFillUint64sZeroAlloc(t *testing.T) {
	src := New(3)
	buf := make([]uint64, 4096)
	if avg := testing.AllocsPerRun(10, func() { src.FillUint64s(buf) }); avg != 0 {
		t.Errorf("FillUint64s allocates %.1f per call, want 0", avg)
	}
	fbuf := make([]float64, 4096)
	if avg := testing.AllocsPerRun(10, func() { src.FillFloat64s(fbuf) }); avg != 0 {
		t.Errorf("FillFloat64s allocates %.1f per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(10, func() { src.FillBelow(buf[:64], 1<<63) }); avg != 0 {
		t.Errorf("FillBelow allocates %.1f per call, want 0", avg)
	}
}
