package api

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dpsadopt/internal/store"
)

// TestNewIndexReaderParity: the index built out-of-core through a
// streaming Reader is indistinguishable from the one built over a fully
// loaded store — same internals, same public views.
func TestNewIndexReaderParity(t *testing.T) {
	s, refs := fixtureStore(t)
	want := NewIndex(s, refs)

	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := NewIndexReader(r, refs)
	if err != nil {
		t.Fatal(err)
	}
	assertIndexEqual(t, want, got)
}

// TestNewIndexReaderDegraded: a dataset with one unreadable partition
// builds degraded, not dead — NewIndexReader reports the skipped
// partition via *IndexBuildError and the index still serves every
// readable day.
func TestNewIndexReaderDegraded(t *testing.T) {
	s, refs := fixtureStore(t)
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	clean, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	dir := clean.Partitions()
	clean.Close()
	victim := dir[1]
	off, length := victim.Extent()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off+length/2] ^= 0xA5
	bad := filepath.Join(t.TempDir(), "bad.dpsa")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := store.Open(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	idx, err := NewIndexReader(r, refs)
	var ibe *IndexBuildError
	if !errors.As(err, &ibe) {
		t.Fatalf("err = %v, want *IndexBuildError", err)
	}
	if len(ibe.Failed) != 1 || ibe.Failed[0].Source != victim.Source || ibe.Failed[0].Day != victim.Day {
		t.Fatalf("Failed = %+v, want the corrupted partition %s/%s", ibe.Failed, victim.Source, victim.Day)
	}
	if idx == nil {
		t.Fatal("degraded build returned nil index")
	}
	if idx.partitions != len(dir)-1 {
		t.Fatalf("partitions = %d, want %d", idx.partitions, len(dir)-1)
	}
	// The readable days still answer: compare against an index built on
	// the intact days only.
	days := idx.Days()
	if len(days) == 0 {
		t.Fatal("degraded index serves no days")
	}
	for _, d := range days {
		if d == victim.Day {
			continue // day survives only if another source covers it
		}
		if _, ok := idx.Day(d); !ok {
			t.Fatalf("readable day %s missing from degraded index", d)
		}
	}
}
