package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get on empty store reported a hit")
	}
	payload := []byte(`{"estimate":0.25}` + "\n")
	if err := s.Put("estimate:{...}", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("estimate:{...}")
	if !ok {
		t.Fatal("Get missed a stored key")
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %q want %q", got, payload)
	}
	if _, ok := s.Get("estimate:{other}"); ok {
		t.Fatal("different key hit the same record")
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1, nil", n, err)
	}
}

func TestPutReplaces(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != "v2" {
		t.Fatalf("Get = %q, %v; want v2, true", got, ok)
	}
}

// TestCorruptRecordIsSkippedAndReplaced is the robustness satellite: a
// truncated or corrupted record file must read as a miss (recompute,
// never crash), and the next Put must atomically replace the bad file.
func TestCorruptRecordIsSkippedAndReplaced(t *testing.T) {
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte("\x00\xffnot json"), 0o644)
		},
		"empty": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"bit-flipped payload": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			// Flip a byte inside the base64 payload so the JSON still
			// parses but the checksum no longer matches.
			i := bytes.Index(data, []byte(`"payload":"`)) + len(`"payload":"`)
			if data[i] == 'A' {
				data[i] = 'B'
			} else {
				data[i] = 'A'
			}
			return os.WriteFile(path, data, 0o644)
		},
		"version skew": func(path string) error {
			return setVersion(path, 999)
		},
		// Version 1 stored exact and windowdist results clamped to
		// m = 16 under the keys of longer prefixes.
		"version 1": func(path string) error {
			return setVersion(path, 1)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put("cell:q", []byte("good payload")); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(s.path("cell:q")); err != nil {
				t.Fatal(err)
			}
			before := getCorrupt.Value()
			if _, ok := s.Get("cell:q"); ok {
				t.Fatal("corrupted record served as a hit")
			}
			if getCorrupt.Value() <= before && name != "empty" {
				// An emptied file may read as plain unmarshal corruption
				// too; all listed corruptions should count as corrupt.
				t.Fatal("corruption was not counted")
			}
			// The next write replaces the bad file atomically and the
			// record becomes readable again.
			if err := s.Put("cell:q", []byte("recomputed payload")); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get("cell:q")
			if !ok || string(got) != "recomputed payload" {
				t.Fatalf("post-replace Get = %q, %v; want recomputed payload, true", got, ok)
			}
			assertNoTempFiles(t, s.dir)
		})
	}
}

// setVersion rewrites the schema version of the record file at path.
func setVersion(path string, version int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	current := fmt.Appendf(nil, `"schema_version":%d`, RecordVersion)
	if !bytes.Contains(data, current) {
		return fmt.Errorf("record has no %s", current)
	}
	return os.WriteFile(path, bytes.Replace(data, current, fmt.Appendf(nil, `"schema_version":%d`, version), 1), 0o644)
}

// TestKeyMismatchReadsAsMiss: a record renamed onto another key's
// address (or a truncated-hash collision) must not be served.
func TestKeyMismatchReadsAsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	dst := s.path("key-b")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path("key-a"), dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("key-b"); ok {
		t.Fatal("record stored under key-a served for key-b")
	}
}

func TestOpenRejectsEmptyAndUnusableDirs(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub")); err == nil {
		t.Fatal("Open under a plain file succeeded")
	}
}

func assertNoTempFiles(t *testing.T, dir string) {
	t.Helper()
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
