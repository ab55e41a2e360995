package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dpsadopt/internal/simtime"
)

// savedLayout describes a saved dataset's section boundaries, recovered
// through the same Open every read uses.
type savedLayout struct {
	data       []byte
	partsStart uint64
	dirOff     uint64
	parts      []PartitionInfo
}

func saveWithLayout(t *testing.T, s *Store) (string, savedLayout) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lay := savedLayout{data: data, dirOff: r.meta.dirOff, partsStart: uint64(r.partsStart), parts: r.Partitions()}
	return path, lay
}

// allRows snapshots every partition's rows for equality comparison.
func allRows(s *Store) map[string][]Row {
	out := make(map[string][]Row)
	for _, src := range s.Sources() {
		for _, day := range s.Days(src) {
			out[fmt.Sprintf("%s/%s", src, day)] = rowsOf(s, src, day)
		}
	}
	return out
}

// TestSaveCrashMidStreamKeepsOldFile is the non-atomic-save regression
// test: a save that dies mid-stream (here: the encoder fails partway
// through the dictionary) must leave the previously saved file intact
// and loadable, with no temp residue that a later save would trip over.
func TestSaveCrashMidStreamKeepsOldFile(t *testing.T) {
	s := populatedStore()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// An over-long dict string makes encode fail after the header and
	// part of the dictionary have already been written — the moral
	// equivalent of kill -9 halfway through the stream.
	bad := populatedStore()
	bad.Dict().ID(strings.Repeat("x", 1<<16+1))
	if err := bad.Save(path); err == nil {
		t.Fatal("mid-stream save failure not reported")
	}

	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, now) {
		t.Fatal("old file damaged by failed save")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("old file no longer loads: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("failed save left temp residue %s", e.Name())
		}
	}

	// Crash residue from a kill -9 during a *previous* save (a stray
	// temp file) must not confuse loading or the next save.
	residue := filepath.Join(dir, "data.dpsa.tmp-crashed")
	if err := os.WriteFile(residue, orig[:len(orig)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("load with temp residue present: %v", err)
	}
	if err := s.Save(path); err != nil {
		t.Fatalf("save with temp residue present: %v", err)
	}
	if err := Verify(path); err != nil {
		t.Fatal(err)
	}
}

func TestVerify(t *testing.T) {
	s := populatedStore()
	path, lay := saveWithLayout(t, s)
	if err := Verify(path); err != nil {
		t.Fatalf("clean file: %v", err)
	}
	// A flipped byte inside the first partition fails verification.
	mut := append([]byte(nil), lay.data...)
	mut[lay.parts[0].offset+lay.parts[0].length/2] ^= 0x01
	bad := filepath.Join(t.TempDir(), "bad.dpsa")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Verify(bad); err == nil {
		t.Fatal("flipped partition byte passed Verify")
	}
	// Truncation fails verification.
	trunc := filepath.Join(t.TempDir(), "trunc.dpsa")
	if err := os.WriteFile(trunc, lay.data[:len(lay.data)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Verify(trunc); err == nil {
		t.Fatal("truncated file passed Verify")
	}
}

// TestVerifyRejectsInvalidBlock: a partition whose checksum is valid but
// whose contents are not — a domain ID past the end of the dictionary,
// saved with a CRC computed over the bad bytes — fails Verify exactly as
// it fails Load, so Verify's nil still means Load cannot lose data.
func TestVerifyRejectsInvalidBlock(t *testing.T) {
	s := populatedStore()
	s.blocks["nl"][10].domains[0] = uint32(s.dict.Len()) + 7
	path := filepath.Join(t.TempDir(), "bad.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := Verify(path); err == nil || !strings.Contains(err.Error(), "domain id out of range") {
		t.Fatalf("Verify = %v, want a domain id out of range failure", err)
	}
	_, err := Load(path)
	var pe *PartialLoadError
	if !errors.As(err, &pe) || len(pe.Quarantined) != 1 || pe.Quarantined[0].Source != "nl" {
		t.Fatalf("Load err = %v, want nl/10 quarantined", err)
	}
}

// TestLoadSalvagesDamagedPartition: a torn/corrupt partition is
// quarantined with a descriptive error while the surviving partitions
// still load — the degrade-gracefully contract.
func TestLoadSalvagesDamagedPartition(t *testing.T) {
	s := populatedStore()
	_, lay := saveWithLayout(t, s)
	want := allRows(s)

	// Damage the second partition's bytes in place.
	victim := lay.parts[1]
	mut := append([]byte(nil), lay.data...)
	mut[victim.offset+victim.length/2] ^= 0xA5
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.dpsa")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := Load(bad)
	var pe *PartialLoadError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialLoadError", err)
	}
	if got == nil {
		t.Fatal("salvaging load returned nil store")
	}
	if len(pe.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want 1 entry", pe.Quarantined)
	}
	q := pe.Quarantined[0]
	if q.Source != victim.Source || q.Day != victim.Day {
		t.Fatalf("quarantined %s/%s, want %s/%s", q.Source, q.Day, victim.Source, victim.Day)
	}
	if !strings.Contains(q.Err, "checksum mismatch") {
		t.Fatalf("quarantine reason %q not descriptive", q.Err)
	}
	// The quarantine directory holds the partition bytes + reason.
	if q.Path == "" {
		t.Fatal("no quarantine file written")
	}
	raw, err := os.ReadFile(q.Path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(raw)) != victim.length {
		t.Fatalf("quarantine file holds %d bytes, want %d", len(raw), victim.length)
	}
	reason, err := os.ReadFile(q.Path + ".reason")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "checksum mismatch") {
		t.Fatalf("reason file %q not descriptive", reason)
	}
	// Every surviving partition matches the original exactly.
	delete(want, fmt.Sprintf("%s/%s", victim.Source, victim.Day))
	if have := allRows(got); !reflect.DeepEqual(want, have) {
		t.Fatalf("surviving partitions differ:\nwant %v\ngot  %v", want, have)
	}

	// Reader.ReadAll salvages the same survivors and reports the same
	// partition, but never writes next to the file it reads.
	roDir := t.TempDir()
	ro := filepath.Join(roDir, "bad.dpsa")
	if err := os.WriteFile(ro, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(ro)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err = r.ReadAll()
	if !errors.As(err, &pe) || len(pe.Quarantined) != 1 || pe.Quarantined[0].Path != "" {
		t.Fatalf("ReadAll err = %v, want one unquarantined damaged partition", err)
	}
	if q := pe.Quarantined[0]; q.Source != victim.Source || q.Day != victim.Day {
		t.Fatalf("ReadAll reported %s/%s, want %s/%s", q.Source, q.Day, victim.Source, victim.Day)
	}
	if have := allRows(got); !reflect.DeepEqual(want, have) {
		t.Fatalf("ReadAll survivors differ:\nwant %v\ngot  %v", want, have)
	}
	if _, err := os.Stat(filepath.Join(roDir, "quarantine")); !os.IsNotExist(err) {
		t.Fatal("ReadAll created a quarantine directory")
	}
}

func TestQuarantineFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spool.dpsa")
	if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	moved, err := QuarantineFile(path, errors.New("checksum mismatch"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("damaged file still present after quarantine")
	}
	if filepath.Dir(moved) != filepath.Join(dir, "quarantine") {
		t.Fatalf("moved to %s", moved)
	}
	reason, err := os.ReadFile(moved + ".reason")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reason), "checksum mismatch") {
		t.Fatalf("reason = %q", reason)
	}
}

// TestCorruptLoadTable is the fuzz-style section-boundary table: the
// saved file is truncated, bit-flipped, and zero-filled at and around
// every section boundary (header end, dictionary end, each partition
// start/end, directory, footer), and Load and the streaming Reader must
// never panic and never silently return wrong data — every mutation either
// fails with an error or yields exactly the original rows.
func TestCorruptLoadTable(t *testing.T) {
	s := populatedStore()
	_, lay := saveWithLayout(t, s)
	want := allRows(s)
	size := len(lay.data)

	boundaries := []int{0, 4, 8, int(lay.partsStart)}
	for _, p := range lay.parts {
		boundaries = append(boundaries, int(p.offset), int(p.offset+p.length))
	}
	boundaries = append(boundaries, int(lay.dirOff), size-int(footerSizeV4), size-4, size)
	sort.Ints(boundaries)

	check := func(t *testing.T, name string, mut []byte) {
		t.Helper()
		dir := t.TempDir()
		p := filepath.Join(dir, "mut.dpsa")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		// Load: error, or data indistinguishable from the original
		// (minus explicitly quarantined partitions).
		st, err := Load(p)
		if err == nil {
			if have := allRows(st); !reflect.DeepEqual(want, have) {
				t.Fatalf("%s: Load silently returned wrong data", name)
			}
		} else if st != nil {
			var pe *PartialLoadError
			if errors.As(err, &pe) {
				have := allRows(st)
				for key, rows := range have {
					if !reflect.DeepEqual(want[key], rows) {
						t.Fatalf("%s: salvaged partition %s has wrong rows", name, key)
					}
				}
			}
		}
		// Streaming Reader: Open may refuse the file outright; an open
		// that succeeds must serve each partition either as an error or
		// as exactly the original rows — never torn data, never a panic.
		r, err := Open(p)
		if err != nil {
			return
		}
		defer r.Close()
		dict, err := r.SharedDict()
		if err != nil {
			return
		}
		for _, k := range r.Keys() {
			b, release, err := r.AcquireBatch(k.Source, k.Day)
			if err != nil {
				continue
			}
			var have []Row
			for i := 0; i < b.Rows(); i++ {
				row := b.Row(i, dict)
				row.ASNs = append([]uint32(nil), row.ASNs...)
				have = append(have, row)
			}
			release()
			w := want[fmt.Sprintf("%s/%s", k.Source, k.Day)]
			if !reflect.DeepEqual(w, have) {
				t.Fatalf("%s: streaming read of %s silently returned wrong data", name, k)
			}
		}
	}

	for _, b := range boundaries {
		b := b
		t.Run(fmt.Sprintf("boundary%d", b), func(t *testing.T) {
			if b <= size {
				check(t, "truncate", append([]byte(nil), lay.data[:b]...))
			}
			for _, at := range []int{b - 1, b} {
				if at < 0 || at >= size {
					continue
				}
				mut := append([]byte(nil), lay.data...)
				mut[at] ^= 0x40
				check(t, fmt.Sprintf("bitflip@%d", at), mut)
			}
			if b < size {
				mut := append([]byte(nil), lay.data...)
				end := b + 8
				if end > size {
					end = size
				}
				for i := b; i < end; i++ {
					mut[i] = 0
				}
				check(t, fmt.Sprintf("zerofill@%d", b), mut)
			}
		})
	}
}

func TestAbsorb(t *testing.T) {
	s := populatedStore()
	dst := New()
	dst.Absorb(s)
	if !reflect.DeepEqual(allRows(s), allRows(dst)) {
		t.Fatal("absorbed rows differ from source")
	}
	// Absorbing a second, disjoint store adds its partitions alongside.
	other := New()
	w := other.NewWriter("org", simtime.Day(5))
	w.AddAddr("zed.org", KindApexA, addr("10.4.4.4"), []uint32{64500})
	w.Commit()
	dst.Absorb(other)
	if got := len(dst.Sources()); got != len(s.Sources())+1 {
		t.Fatalf("sources after second absorb = %v", dst.Sources())
	}
	if rows := rowsOf(dst, "org", 5); len(rows) != 1 || rows[0].Domain != "zed.org" {
		t.Fatalf("absorbed org rows = %+v", rows)
	}
}
