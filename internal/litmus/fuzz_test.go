package litmus

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseLitmus is the parser's robustness-and-round-trip property:
// for any input, Parse either fails with a position-carrying error or
// yields tests the printer can render canonically — and the canonical
// form reparses to the identical structures, byte-stably.
//
// The committed corpus under testdata/fuzz/FuzzParseLitmus seeds every
// registry litmus test plus hand-written grammar edge cases; plain
// `go test` replays all of it.
func FuzzParseLitmus(f *testing.F) {
	// The built-in tests double as in-code seeds, one per test and the
	// whole embedded file, so the property runs against the real tests
	// even with an empty corpus.
	for _, tc := range Registry() {
		data, err := Print(tc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(registrySource)
	f.Fuzz(func(t *testing.T, src []byte) {
		tests, err := Parse("fuzz.litmus", src)
		if err != nil {
			// Rejections must carry a usable position.
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("non-ParseError rejection %T: %v", err, err)
			}
			if pe.Pos.Line < 1 || pe.Pos.Col < 1 {
				t.Fatalf("error position %s out of range: %v", pe.Pos, err)
			}
			return
		}
		// Anything the parser accepts, the printer must render...
		printed, err := Print(tests...)
		if err != nil {
			t.Fatalf("parsed input is unprintable: %v\ninput:\n%s", err, src)
		}
		// ...and the canonical form must reparse to the same structures.
		again, err := Parse("fuzz2.litmus", printed)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %v\ncanonical:\n%s", err, printed)
		}
		if !reflect.DeepEqual(again, tests) {
			t.Fatalf("round-trip mismatch:\ninput:\n%s\ncanonical:\n%s", src, printed)
		}
		// Printing is a fixed point after one canonicalization.
		stable, err := Print(again...)
		if err != nil {
			t.Fatalf("reprint: %v", err)
		}
		if string(stable) != string(printed) {
			t.Fatalf("print not byte-stable:\n%s\nvs\n%s", printed, stable)
		}
	})
}

// TestFuzzCorpusCommitted guards the committed seed corpus: it must
// exist and cover at least the registry tests plus the hand-written
// edge cases, so `go test` (which replays testdata/fuzz natively)
// actually exercises them.
func TestFuzzCorpusCommitted(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseLitmus")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("committed fuzz corpus missing: %v", err)
	}
	if len(entries) < 18 {
		t.Errorf("corpus has %d entries, want ≥ 18 (registry seeds + edge cases)", len(entries))
	}
}
