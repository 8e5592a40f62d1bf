// Package store is the persistent content-addressed result store: a
// second cache tier, behind the in-memory LRUs, shared by every fleet
// member and surviving restarts. Keys are the engine's existing
// canonical identities — the serve layer's endpoint-qualified canonical
// query key, or the cluster layer's (query, substream seed) cell key —
// hashed to an on-disk address, so any process that derives the same
// canonical key reads the same record.
//
// Durability contract:
//
//   - Writes are atomic: each record is written to a temp file in the
//     destination directory and renamed into place, so a reader never
//     observes a half-written record and a crashed writer leaves at
//     worst an orphaned temp file (cleaned opportunistically).
//   - Records are schema-versioned and checksummed. A read that finds
//     a truncated, corrupted, version-skewed, or key-mismatched file
//     reports a miss — the caller recomputes, never crashes — and the
//     next Put for that key atomically replaces the bad file.
//   - The store is shared-safe across processes: cross-process
//     atomicity rides entirely on rename(2); no locks are taken, and
//     concurrent writers of the same key race benignly (both write the
//     same deterministic payload).
//
// There is no background GC: records are immutable and content-
// addressed, so age-based pruning (delete files older than N days) is
// safe at any time and left to the operator — see the README's store
// layout note.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"memreliability/internal/obs"
)

// RecordVersion is the schema version stamped on every record file.
// Bump it when the layout or the meaning of a stored result changes;
// version-skewed files read as misses and are replaced on the next
// write. Version 1 records may hold exact and windowdist results clamped
// to m = 16 under the keys of longer prefixes.
const RecordVersion = 2

// ErrBadDir reports a store directory that cannot be created or used.
var ErrBadDir = errors.New("store: bad directory")

// Store metrics, on the process-global engine registry so they appear
// on /metrics/prom next to the estimator and cluster series.
var (
	getHits = obs.Default().Counter("store_gets_total",
		"Content-addressed store reads, by outcome.", obs.L("outcome", "hit"))
	getMisses = obs.Default().Counter("store_gets_total",
		"Content-addressed store reads, by outcome.", obs.L("outcome", "miss"))
	getCorrupt = obs.Default().Counter("store_gets_total",
		"Content-addressed store reads, by outcome.", obs.L("outcome", "corrupt"))
	puts = obs.Default().Counter("store_puts_total",
		"Records written (temp file + atomic rename).")
	putErrors = obs.Default().Counter("store_put_errors_total",
		"Record writes that failed before the rename.")
)

// record is the on-disk form: the full canonical key (so hash
// collisions and cross-key renames are detected, not served), the
// payload, and a payload checksum catching torn or bit-rotted files
// that still parse as JSON.
type record struct {
	SchemaVersion int    `json:"schema_version"`
	Key           string `json:"key"`
	SHA256        string `json:"sha256"`
	Payload       []byte `json:"payload"`
}

// Store is a content-addressed record store rooted at one directory.
// The zero value is not usable; call Open.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("%w: empty path", ErrBadDir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a canonical key to its record file: sha256 of the key,
// fanned out over a two-hex-digit subdirectory so one flat directory
// never holds the whole keyspace.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, name[:2], name+".json")
}

// Get returns the payload stored under key. Every failure mode — no
// file, truncated file, invalid JSON, schema-version skew, key
// mismatch, checksum mismatch — reports a miss: the store trades
// availability of bad records for recompute, never for a crash.
func (s *Store) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		getMisses.Inc()
		return nil, false
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		getCorrupt.Inc()
		return nil, false
	}
	if rec.SchemaVersion != RecordVersion || rec.Key != key {
		getCorrupt.Inc()
		return nil, false
	}
	sum := sha256.Sum256(rec.Payload)
	if hex.EncodeToString(sum[:]) != rec.SHA256 {
		getCorrupt.Inc()
		return nil, false
	}
	getHits.Inc()
	return rec.Payload, true
}

// Put stores payload under key: encode the record, write it to a temp
// file in the destination directory, and rename it into place. The
// rename is the commit point — a concurrent reader sees either the old
// record (or none) or the complete new one, and a bad record left by
// corruption is replaced wholesale.
func (s *Store) Put(key string, payload []byte) error {
	dst := s.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		putErrors.Inc()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(record{
		SchemaVersion: RecordVersion,
		Key:           key,
		SHA256:        hex.EncodeToString(sum[:]),
		Payload:       payload,
	})
	if err != nil {
		putErrors.Inc()
		return fmt.Errorf("store: encode %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		putErrors.Inc()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	// Any failure past this point must not leave the temp file behind.
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		putErrors.Inc()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		putErrors.Inc()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		putErrors.Inc()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		putErrors.Inc()
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	puts.Inc()
	return nil
}

// Len walks the store and counts committed records (temp files and
// foreign files are excluded). It is an operator/testing helper, not a
// hot path.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".json") && !strings.HasPrefix(d.Name(), ".tmp-") {
			n++
		}
		return nil
	})
	return n, err
}
