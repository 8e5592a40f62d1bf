// Package text holds the black-box tests of the .litmus text format:
// parse errors and their positions, every instruction form, printing and
// the round trip of the built-in registry. They reach the parser and the
// printer only through package litmus's exported API (Parse, Print,
// ParseError), so they pin the format as litmusrun -f and the scenario
// generator see it. The directory has no non-test Go; the fuzz target
// and the check that registry.litmus is in printed form sit in package
// litmus, beside the embedded file.
package text

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"memreliability/internal/litmus"
	"memreliability/internal/machine"
	"memreliability/internal/memmodel"
)

// TestRegistryRoundTrip is the struct → print → parse → struct gate:
// every built-in litmus test survives the DSL byte-identically.
func TestRegistryRoundTrip(t *testing.T) {
	for _, tc := range litmus.Registry() {
		data, err := litmus.Print(tc)
		if err != nil {
			t.Fatalf("%s: print: %v", tc.Name, err)
		}
		parsed, err := litmus.Parse(tc.Name+".litmus", data)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", tc.Name, err, data)
		}
		if len(parsed) != 1 {
			t.Fatalf("%s: parsed %d tests", tc.Name, len(parsed))
		}
		if !reflect.DeepEqual(parsed[0], tc) {
			t.Errorf("%s: round-trip mismatch:\ngot  %#v\nwant %#v", tc.Name, parsed[0], tc)
		}
		// Printing the reparsed test reproduces the bytes exactly.
		again, err := litmus.Print(parsed[0])
		if err != nil {
			t.Fatalf("%s: reprint: %v", tc.Name, err)
		}
		if string(again) != string(data) {
			t.Errorf("%s: print not deterministic under reparse:\n%s\nvs\n%s", tc.Name, data, again)
		}
	}
}

func TestParseMultipleTests(t *testing.T) {
	var all []litmus.Test
	var combined []byte
	for _, tc := range litmus.Registry() {
		all = append(all, tc)
	}
	combined, err := litmus.Print(all...)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := litmus.Parse("registry.litmus", combined)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, all) {
		t.Error("multi-test file round-trip mismatch")
	}
}

// TestParseErrorPositions asserts malformed inputs fail with
// position-carrying errors pointing at the offending token.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		line, col int
		contains  string
	}{
		{"not a test", "bogus \"X\" {}", 1, 1, `expected "test"`},
		{"missing name", "test {", 1, 6, "expected string"},
		{"empty name", `test "" {`, 1, 6, "empty test name"},
		{"unknown clause", "test \"X\" {\n  frobnicate\n}", 2, 3, "unknown clause"},
		{"unterminated string", "test \"X", 1, 6, "unterminated string"},
		{"bad escape", `test "\z" {}`, 1, 6, "bad string literal"},
		{"unexpected char", "test \"X\" {\n  exists { x = 0 }\n  thread { ST x = 1 }\n} $", 4, 3, "unexpected character"},
		{"lone dash", "test \"X\" { init { x = - } }", 1, 23, "expected digits"},
		{"lone amp", "test \"X\" { exists { x = 0 & } }", 1, 27, "expected '&&'"},
		{"dup description", "test \"X\" {\n  description \"a\"\n  description \"b\"\n}", 3, 3, "duplicate description"},
		{"dup init", "test \"X\" {\n  init { x = 0 }\n  init { y = 0 }\n}", 3, 3, "duplicate init"},
		{"dup init loc", "test \"X\" { init { x = 0 x = 1 } }", 1, 25, "duplicate init location"},
		{"dup exists", "test \"X\" {\n  exists { x = 0 }\n  exists { x = 1 }\n}", 3, 3, "duplicate exists"},
		{"dup cond ref", "test \"X\" { exists { x = 0 && x = 1 } }", 1, 30, "duplicate condition reference"},
		{"numeric cond register", "test \"X\" { exists { A00:0 = 0 } }", 1, 21, "condition register \"0\" is not an identifier"},
		{"reserved cond ref", "test \"X\" { exists { ST:r1 = 0 } }", 1, 21, "reserved word"},
		{"reserved reg", "test \"X\" { thread { ST x = 1 LD = 2 + 3 } }", 1, 30, "needs a destination register"},
		{"reserved loc", "test \"X\" { thread { ST FENCE = 1 } }", 1, 24, "reserved word"},
		{"missing rmw delta", "test \"X\" { thread { r = RMW x += } }", 1, 34, "expected integer"},
		{"unknown model", "test \"X\" {\n  exists { x = 0 }\n  thread { ST x = 1 }\n  model XYZ allowed\n}", 4, 9, "unknown model"},
		{"bad verdict", "test \"X\" {\n  exists { x = 0 }\n  thread { ST x = 1 }\n  model SC maybe\n}", 4, 12, `"allowed" or "forbidden"`},
		{"dup model", "test \"X\" {\n  exists { x = 0 }\n  thread { ST x = 1 }\n  model SC allowed\n  model sc forbidden\n}", 5, 9, "duplicate expectation"},
		{"no exists", "test \"X\" { thread { ST x = 1 } }", 1, 1, "no exists clause"},
		{"no threads", "test \"X\" { exists { x = 0 } }", 1, 1, "no threads"},
		{"dup test", "test \"X\" { exists { x = 0 } thread { ST x = 1 } }\ntest \"X\" { exists { x = 0 } thread { ST x = 1 } }", 2, 1, "duplicate test"},
		{"ref in thread", "test \"X\" { thread { t0:r1 = LD x } }", 1, 21, "reference"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := litmus.Parse("in.litmus", []byte(tc.src))
			if err == nil {
				t.Fatalf("input accepted:\n%s", tc.src)
			}
			var pe *litmus.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is %T, not *litmus.ParseError: %v", err, err)
			}
			if pe.Name != "in.litmus" {
				t.Errorf("error name = %q", pe.Name)
			}
			if pe.Pos.Line != tc.line || pe.Pos.Col != tc.col {
				t.Errorf("error at %s, want %d:%d (%v)", pe.Pos, tc.line, tc.col, err)
			}
			if !strings.Contains(pe.Msg, tc.contains) {
				t.Errorf("error %q does not mention %q", pe.Msg, tc.contains)
			}
		})
	}
}

func TestParseAllInstructionForms(t *testing.T) {
	src := `
// every instruction form in one thread
test "ALL" {
  description "kitchen sink"
  init { x = -3 }
  thread "worker" {
    ST x = 1
    ST x = r9
    r1 = LD x
    r2 = r1 + 1
    r3 = 2 + r2
    r4 = RMW x += -2
    ACQ
    REL
    FENCE
  }
  exists { t0:r4 = -5 && x = 7 }
  model SC allowed
}
`
	parsed, err := litmus.Parse("", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 1 {
		t.Fatalf("parsed %d tests", len(parsed))
	}
	want := litmus.Test{
		Name:        "ALL",
		Description: "kitchen sink",
		Prog: machine.Program{
			Threads: []machine.Thread{{
				Name: "worker",
				Ops: []machine.Op{
					machine.StoreOp{Addr: "x", Src: machine.Imm(1)},
					machine.StoreOp{Addr: "x", Src: machine.Reg("r9")},
					machine.LoadOp{Addr: "x", Dst: "r1"},
					machine.AddOp{Dst: "r2", A: machine.Reg("r1"), B: machine.Imm(1)},
					machine.AddOp{Dst: "r3", A: machine.Imm(2), B: machine.Reg("r2")},
					machine.RMWAddOp{Addr: "x", Dst: "r4", Delta: -2},
					machine.FenceOp{Kind: memmodel.FenceAcquire},
					machine.FenceOp{Kind: memmodel.FenceRelease},
					machine.FenceOp{Kind: memmodel.FenceFull},
				},
			}},
			Init: map[string]int{"x": -3},
		},
		Target:       litmus.Condition{"t0:r4": -5, "x": 7},
		AllowedUnder: map[string]bool{"SC": true},
	}
	if !reflect.DeepEqual(parsed[0], want) {
		t.Errorf("parse mismatch:\ngot  %#v\nwant %#v", parsed[0], want)
	}
	// And the canonical form survives its own round trip.
	printed, err := litmus.Print(parsed[0])
	if err != nil {
		t.Fatal(err)
	}
	re, err := litmus.Parse("", printed)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, printed)
	}
	if !reflect.DeepEqual(re[0], parsed[0]) {
		t.Error("canonical form round-trip mismatch")
	}
}

func TestParseModelCanonicalCasing(t *testing.T) {
	src := `test "X" { thread { ST x = 1 } exists { x = 1 } model tso allowed model rmo forbidden }`
	parsed, err := litmus.Parse("", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"TSO": true, "RMO": false}
	if !reflect.DeepEqual(parsed[0].AllowedUnder, want) {
		t.Errorf("AllowedUnder = %v, want %v", parsed[0].AllowedUnder, want)
	}
}

func TestPrintRejectsUnprintable(t *testing.T) {
	base := litmus.Test{
		Name: "X",
		Prog: machine.Program{Threads: []machine.Thread{
			{Ops: []machine.Op{machine.StoreOp{Addr: "x", Src: machine.Imm(1)}}},
		}},
		Target:       litmus.Condition{"x": 1},
		AllowedUnder: map[string]bool{"SC": false},
	}
	cases := []struct {
		name   string
		mutate func(*litmus.Test)
	}{
		{"empty name", func(t *litmus.Test) { t.Name = "" }},
		{"unknown model expectation", func(t *litmus.Test) { t.AllowedUnder = map[string]bool{"NOPE": false} }},
		{"non-identifier location", func(t *litmus.Test) {
			t.Prog.Threads[0].Ops = []machine.Op{machine.StoreOp{Addr: "bad addr", Src: machine.Imm(1)}}
		}},
		{"reserved location", func(t *litmus.Test) {
			t.Prog.Threads[0].Ops = []machine.Op{machine.StoreOp{Addr: "FENCE", Src: machine.Imm(1)}}
		}},
		{"bad condition ref", func(t *litmus.Test) { t.Target = litmus.Condition{"1x": 0} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := base
			tc.mutate(&bad)
			if _, err := litmus.Print(bad); err == nil {
				t.Error("unprintable test printed without error")
			}
		})
	}
}
