package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dpsadopt/internal/simtime"
)

func populatedStore() *Store {
	s := New()
	for day := simtime.Day(0); day < 3; day++ {
		w := s.NewWriter("com", day)
		w.AddAddr("foo.com", KindApexA, addr("10.0.0.1"), []uint32{13335})
		w.AddAddr("foo.com", KindApexAAAA, addr("2001:db8::7"), []uint32{13335})
		w.AddStr("foo.com", KindNS, "kate.ns.cloudflare.com")
		w.AddStr("bar.com", KindWWWCNAME, "bar.incapdns.net")
		w.AddAddr("bar.com", KindWWWA, addr("10.8.0.4"), []uint32{19551, 55002})
		w.Commit()
	}
	w := s.NewWriter("nl", 10)
	w.AddStr("x.nl", KindNS, "ns1.hostco1.net")
	w.Commit()
	return s
}

func rowsOf(s *Store, source string, day simtime.Day) []Row {
	var out []Row
	s.ForEachRow(source, day, func(r Row) {
		r.ASNs = append([]uint32(nil), r.ASNs...)
		out = append(out, r)
	})
	return out
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sources(), s.Sources()) {
		t.Fatalf("sources = %v", got.Sources())
	}
	for _, src := range s.Sources() {
		if !reflect.DeepEqual(got.Days(src), s.Days(src)) {
			t.Fatalf("%s days = %v", src, got.Days(src))
		}
		for _, day := range s.Days(src) {
			want := rowsOf(s, src, day)
			have := rowsOf(got, src, day)
			if !reflect.DeepEqual(want, have) {
				t.Fatalf("%s day %v rows differ:\nwant %+v\ngot  %+v", src, day, want, have)
			}
		}
	}
	// Statistics agree too.
	ws, gs := s.SourceStats("com"), got.SourceStats("com")
	if ws.DataPoints != gs.DataPoints || ws.UniqueSLDs != gs.UniqueSLDs {
		t.Errorf("stats differ: %+v vs %+v", ws, gs)
	}
}

// legacyV2File rewrites a saved v4 file into the version 2 format:
// strip the trailing directory + footer and patch the version field
// (partition bytes are identical across versions).
func legacyV2File(t *testing.T, s *Store) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "v4.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data[len(data)-4:]); got != dirMagic {
		t.Fatalf("footer magic = %q", got)
	}
	dirOff := binary.LittleEndian.Uint64(data[len(data)-footerSizeV4 : len(data)-footerSizeV4+8])
	legacy := append([]byte(nil), data[:dirOff]...)
	binary.LittleEndian.PutUint32(legacy[4:], 2)
	out := filepath.Join(dir, "v2.dpsa")
	if err := os.WriteFile(out, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDirectory(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dir := r.Partitions()
	want := 0
	for _, src := range s.Sources() {
		want += len(s.Days(src))
	}
	if len(dir) != want {
		t.Fatalf("directory has %d entries, want %d", len(dir), want)
	}
	for _, ent := range dir {
		if got := len(rowsOf(s, ent.Source, ent.Day)); got != ent.Rows {
			t.Errorf("%s/%v: directory says %d rows, store has %d", ent.Source, ent.Day, ent.Rows, got)
		}
	}
	// The keyed index agrees with the listing.
	byKey := IndexDirectory(dir)
	if len(byKey) != len(dir) {
		t.Fatalf("IndexDirectory has %d entries, want %d", len(byKey), len(dir))
	}
	for _, ent := range dir {
		if byKey[ent.Key()] != ent {
			t.Fatalf("keyed entry %s disagrees with listing", ent.Key())
		}
	}
}

// TestDirectoryLegacy: a version 2 file has no directory on disk, so
// Open walks it and synthesizes one whose entries (rows and byte ranges)
// match the directory the same store gets when saved today.
func TestDirectoryLegacy(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	cur, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	legacy, err := Open(legacyV2File(t, s))
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if legacy.Info().Directory {
		t.Fatal("v2 file reports an on-disk directory")
	}
	want := cur.Partitions()
	for i := range want {
		want[i].CRC = 0 // v2 predates checksums
	}
	if got := legacy.Partitions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("synthesized directory:\n got %+v\nwant %+v", got, want)
	}
}

func TestSaveDeterministic(t *testing.T) {
	s := populatedStore()
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.dpsa"), filepath.Join(dir, "b.dpsa")
	if err := s.Save(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(b); err != nil {
		t.Fatal(err)
	}
	da, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da, db) {
		t.Fatal("two saves of the same store produced different bytes")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"empty.dpsa": {},
		"short.dpsa": []byte("DP"),
		"magic.dpsa": []byte("NOPE\x00\x00\x00\x00"),
		"ver.dpsa":   []byte("DPSA\xff\x00\x00\x00"),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.dpsa")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) / 4, len(data) / 2, len(data) - 3} {
		trunc := filepath.Join(t.TempDir(), "trunc.dpsa")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(trunc); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadValidatesBlocks(t *testing.T) {
	// Flip bytes in a saved file; Load must never panic.
	s := populatedStore()
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 8; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x55
		p := filepath.Join(t.TempDir(), "mut.dpsa")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Load(p)
		if err != nil || st == nil {
			continue // rejected: fine
		}
		// Accepted: scanning must still be safe.
		for _, src := range st.Sources() {
			for _, day := range st.Days(src) {
				st.ForEachRow(src, day, func(Row) {})
			}
		}
	}
}
