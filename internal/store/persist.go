package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"dpsadopt/internal/simtime"
)

// On-disk format: a flate-free framed binary archive (the columns are
// already dictionary-encoded; callers can compress the file externally).
//
//	magic "DPSA" | version u32
//	dict: count u32, then per string: len u16 + bytes
//	partitions: count u32, then per partition:
//	  source len u16 + bytes | day i64 | rows u32 | v6 count u32 |
//	  asnVals count u32 | columns in order (domains, kinds, addrs,
//	  addrs6, strs, asnOff, asnVals)
//
// Version 3 appends a partition directory after the partitions so large
// datasets can be opened without decoding every day block:
//
//	directory: count u32, then per partition:
//	  source len u16 + bytes | day i64 | rows u32 |
//	  offset u64 | length u64      (byte range of the partition)
//	footer: directory offset u64 | magic "DPSD"
//
// Version 4 makes the file crash-evident: each directory entry carries a
// CRC32 (IEEE) of its partition's byte range, and the footer grows two
// checksums covering the remaining sections:
//
//	directory entry: ... | offset u64 | length u64 | crc u32
//	footer: directory offset u64 | dict crc u32 | dir crc u32 | "DPSD"
//
// The dict checksum covers [8, first partition offset) — the dictionary
// plus the partition-count word — and the dir checksum covers
// [directory offset, footer start). Together with the per-partition
// checksums every byte between header and footer is covered, so a torn
// write or bit flip anywhere is detected at load instead of surfacing as
// silently wrong data. Loads degrade gracefully: a damaged partition is
// quarantined (see PartialLoadError) while the surviving partitions
// still load.
//
// Version 2 readers that stop after the partition count are unaffected
// (the directory is trailing data). Version 2 files have no directory:
// Open walks them once with the partition decoder and synthesizes one.
//
// All integers are little-endian. Partitions are written in sorted
// (source, day) order, so saving the same store twice yields identical
// bytes.

const (
	persistMagic   = "DPSA"
	persistVersion = 4
	dirMagic       = "DPSD"
	footerSizeV3   = 8 + 4     // directory offset + dirMagic
	footerSizeV4   = 8 + 8 + 4 // directory offset + dict/dir CRCs + dirMagic
)

// footerSize returns the trailing footer length for a format version.
func footerSize(version uint32) int64 {
	if version >= 4 {
		return footerSizeV4
	}
	return footerSizeV3
}

// PartitionInfo describes one (source, day) partition listed in a
// dataset file's directory.
type PartitionInfo struct {
	Source string
	Day    simtime.Day
	Rows   int
	// CRC is the partition byte range's CRC32 (IEEE); zero on version 3
	// files, which predate checksums.
	CRC uint32

	offset, length uint64
}

// PartitionKey identifies one (source, day) partition — the map key for
// keyed directory lookups and follower applied-set bookkeeping.
type PartitionKey struct {
	Source string
	Day    simtime.Day
}

// Key returns the entry's map key.
func (pi PartitionInfo) Key() PartitionKey { return PartitionKey{pi.Source, pi.Day} }

// Extent reports where the partition's bytes live in the file — the
// pread range a streaming read covers and the span an operator would
// carve out of a damaged file for offline salvage.
func (pi PartitionInfo) Extent() (offset, length uint64) { return pi.offset, pi.length }

func (k PartitionKey) String() string { return fmt.Sprintf("%s/%s", k.Source, k.Day) }

// IndexDirectory builds a keyed lookup over a directory listing. Single
// lookups through the map are O(1) where scanning the slice is O(n) —
// the difference matters to the Reader, which resolves every acquire
// against a (potentially large) directory.
func IndexDirectory(dir []PartitionInfo) map[PartitionKey]PartitionInfo {
	idx := make(map[PartitionKey]PartitionInfo, len(dir))
	for _, ent := range dir {
		idx[ent.Key()] = ent
	}
	return idx
}

// QuarantinedPartition records one damaged partition that a salvaging
// read left out instead of returning as silently wrong data.
type QuarantinedPartition struct {
	Source string
	Day    simtime.Day
	// Path is the quarantine file holding the partition's raw bytes.
	// Only Load writes one; it is empty after Reader.ReadAll, which
	// never writes, and when writing the quarantine file failed.
	Path string
	// Err is the descriptive load failure (checksum mismatch, truncated
	// column, out-of-range ID, ...).
	Err string
}

// PartialLoadError reports a salvaged read: the store returned alongside
// it holds every surviving partition, and the damaged ones are listed
// here (Load also copies them into a quarantine/ directory next to the
// dataset).
// Callers that can tolerate partial data (degraded-day accounting masks
// the missing days downstream) should errors.As for this type and
// continue with the returned store.
type PartialLoadError struct {
	Quarantined []QuarantinedPartition
}

func (e *PartialLoadError) Error() string {
	if len(e.Quarantined) == 1 {
		q := e.Quarantined[0]
		return fmt.Sprintf("store: partition %s/%s quarantined: %s", q.Source, q.Day, q.Err)
	}
	return fmt.Sprintf("store: %d partitions quarantined (first: %s/%s: %s)",
		len(e.Quarantined), e.Quarantined[0].Source, e.Quarantined[0].Day, e.Quarantined[0].Err)
}

// Save writes the store to path atomically and durably: the bytes go to
// a temp file in the target directory, are fsynced, and only then
// renamed over path (followed by a directory fsync), so a crash at any
// instant leaves either the old complete file or the new complete file —
// never a torn .dpsa.
func (s *Store) Save(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	w := bufio.NewWriterSize(f, 1<<20)
	if err := s.encode(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// The data must be durable before the rename publishes it: a rename
	// surviving a crash that the data did not would be a torn file with
	// a valid name.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems reject directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Load reads a store written by Save (any supported version): Open plus
// Reader.ReadAll, so checksums are verified on version 4 files and every
// partition is decoded by the one partition decoder. Damaged partitions
// do not fail the whole load: each is copied into a quarantine/
// directory next to path and reported via a *PartialLoadError, while
// every surviving partition is returned in the store. Errors that
// predate the directory (header, dictionary, directory, footer
// corruption) are unrecoverable and return a nil store.
func Load(path string) (*Store, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	s, err := r.ReadAll()
	var pe *PartialLoadError
	if errors.As(err, &pe) {
		for i := range pe.Quarantined {
			q := &pe.Quarantined[i]
			q.Path = quarantinePartition(path, r.f, r.byKey[PartitionKey{q.Source, q.Day}], q.Err)
		}
		mQuarantined.Add(int64(len(pe.Quarantined)))
	}
	return s, err
}

// quarantinePartition copies a damaged partition's raw bytes into a
// quarantine/ directory next to the dataset, with a .reason file
// describing the failure, and returns the copy's path. Quarantine I/O
// failures never fail the load; they return "".
func quarantinePartition(path string, f *os.File, ent PartitionInfo, cause string) string {
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return ""
	}
	dst := filepath.Join(qdir, fmt.Sprintf("%s.%s.%s.part", filepath.Base(path), ent.Source, ent.Day))
	out, err := os.Create(dst)
	if err != nil {
		return ""
	}
	_, cpErr := io.Copy(out, io.NewSectionReader(f, int64(ent.offset), int64(ent.length)))
	if closeErr := out.Close(); cpErr == nil {
		cpErr = closeErr
	}
	if cpErr != nil {
		os.Remove(dst)
		return ""
	}
	reason := fmt.Sprintf("dataset: %s\npartition: %s/%s\nbytes: [%d, %d)\nerror: %s\n",
		path, ent.Source, ent.Day, ent.offset, ent.offset+ent.length, cause)
	_ = os.WriteFile(dst+".reason", []byte(reason), 0o644)
	return dst
}

// QuarantineFile moves a whole damaged dataset file into a quarantine/
// directory next to it, with a .reason file, and returns the new path.
// Used when a file is unsalvageable (or is a single-partition spool).
func QuarantineFile(path string, cause error) (string, error) {
	qdir := filepath.Join(filepath.Dir(path), "quarantine")
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		return "", err
	}
	reason := fmt.Sprintf("dataset: %s\nerror: %s\n", path, cause)
	_ = os.WriteFile(dst+".reason", []byte(reason), 0o644)
	mQuarantined.Inc()
	return dst, nil
}

// Verify checks a dataset file's integrity without building a store or
// writing anything: Open checks the header, footer, directory and (on
// version 4) the shared-section checksums, then every partition goes
// through the Reader's decoder — its checksum plus structural validation
// — into one scratch block. A nil return means a Load of the same bytes
// cannot lose or invent data.
func Verify(path string) error {
	r, err := Open(path)
	if err != nil {
		return err
	}
	defer r.Close()
	dict, err := r.SharedDict()
	if err != nil {
		return err
	}
	var blk dayBlock
	var buf []byte
	for i := range r.dir {
		if err := r.decodePartition(&r.dir[i], &blk, dict.Len(), &buf); err != nil {
			return err
		}
	}
	return nil
}

// readHeader validates the magic and returns the format version.
func readHeader(f *os.File) (uint32, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[:4]) != persistMagic {
		return 0, fmt.Errorf("store: not a dataset file")
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version < 2 || version > persistVersion {
		return 0, fmt.Errorf("store: unsupported version %d", version)
	}
	return version, nil
}

// fileMeta is a file's version and size plus, on v3+, its footer.
type fileMeta struct {
	version uint32
	size    int64
	dirOff  uint64
	// dictCRC/dirCRC are the v4 section checksums (zero on v3).
	dictCRC, dirCRC uint32
}

// readFooter parses the trailing footer of a v3+ file.
func readFooter(f *os.File, version uint32) (fileMeta, error) {
	st, err := f.Stat()
	if err != nil {
		return fileMeta{}, err
	}
	meta := fileMeta{version: version, size: st.Size()}
	fs := footerSize(version)
	if meta.size < fs {
		return fileMeta{}, fmt.Errorf("store: file too short for directory footer")
	}
	foot := make([]byte, fs)
	if _, err := f.ReadAt(foot, meta.size-fs); err != nil {
		return fileMeta{}, err
	}
	if string(foot[fs-4:]) != dirMagic {
		return fileMeta{}, fmt.Errorf("store: directory footer missing or corrupt")
	}
	meta.dirOff = binary.LittleEndian.Uint64(foot[:8])
	if version >= 4 {
		meta.dictCRC = binary.LittleEndian.Uint32(foot[8:12])
		meta.dirCRC = binary.LittleEndian.Uint32(foot[12:16])
	}
	if meta.dirOff >= uint64(meta.size-fs) {
		return fileMeta{}, fmt.Errorf("store: directory offset out of range")
	}
	return meta, nil
}

// readDirectoryAt parses the partition directory located by meta.
func readDirectoryAt(f *os.File, meta fileMeta) ([]PartitionInfo, error) {
	buf := make([]byte, meta.size-footerSize(meta.version)-int64(meta.dirOff))
	if _, err := f.ReadAt(buf, int64(meta.dirOff)); err != nil {
		return nil, err
	}
	c := byteCursor{data: buf}
	count := c.u32()
	if count > maxPersistCount {
		return nil, fmt.Errorf("store: directory too large")
	}
	// An entry is at least 30 bytes, which bounds the allocation a
	// corrupt count can ask for.
	out := make([]PartitionInfo, 0, min(int(count), len(buf)/30))
	for i := uint32(0); i < count; i++ {
		ent := PartitionInfo{Source: c.str(), Day: simtime.Day(c.i64()), Rows: int(c.u32())}
		ent.offset, ent.length = c.u64(), c.u64()
		if meta.version >= 4 {
			ent.CRC = c.u32()
		}
		if c.err != nil {
			return nil, c.err
		}
		if ent.offset+ent.length > uint64(meta.size) || ent.offset+ent.length < ent.offset {
			return nil, fmt.Errorf("store: directory entry out of range")
		}
		out = append(out, ent)
	}
	return out, nil
}

// verifySharedSections checks the v4 dictionary and directory checksums
// — the sections every partition depends on. A mismatch there is
// unsalvageable, so these fail the whole open. The dict section spans
// from the header to partsStart, including the partition-count word.
func verifySharedSections(f *os.File, meta fileMeta, partsStart int64) error {
	got, err := sectionCRC(f, 8, partsStart-8)
	if err != nil {
		return err
	}
	if got != meta.dictCRC {
		mCRCFailures.Inc()
		return fmt.Errorf("store: dictionary checksum mismatch (want %08x, got %08x)", meta.dictCRC, got)
	}
	dirLen := meta.size - footerSize(meta.version) - int64(meta.dirOff)
	got, err = sectionCRC(f, int64(meta.dirOff), dirLen)
	if err != nil {
		return err
	}
	if got != meta.dirCRC {
		mCRCFailures.Inc()
		return fmt.Errorf("store: directory checksum mismatch (want %08x, got %08x)", meta.dirCRC, got)
	}
	return nil
}

// sectionCRC computes the CRC32 (IEEE) of a byte range of f.
func sectionCRC(f *os.File, off, length int64) (uint32, error) {
	if length < 0 {
		return 0, fmt.Errorf("store: negative section length")
	}
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, io.NewSectionReader(f, off, length)); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// offsetWriter tracks the byte offset of everything written through it,
// plus a running CRC32 that encode resets at section boundaries, so the
// directory can record partition positions and checksums.
type offsetWriter struct {
	w   io.Writer
	n   uint64
	crc uint32
}

func (o *offsetWriter) Write(p []byte) (int, error) {
	n, err := o.w.Write(p)
	o.n += uint64(n)
	o.crc = crc32.Update(o.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (s *Store) encode(dst io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := &offsetWriter{w: dst}
	if _, err := io.WriteString(w, persistMagic); err != nil {
		return err
	}
	if err := writeU32(w, persistVersion); err != nil {
		return err
	}
	w.crc = 0 // dict section checksum starts after the header
	// Dictionary.
	s.dict.mu.RLock()
	strs := s.dict.strs
	if err := writeU32(w, uint32(len(strs))); err != nil {
		s.dict.mu.RUnlock()
		return err
	}
	for _, str := range strs {
		if err := writeStr(w, str); err != nil {
			s.dict.mu.RUnlock()
			return err
		}
	}
	s.dict.mu.RUnlock()
	// Partitions, in sorted (source, day) order for deterministic bytes.
	sources := make([]string, 0, len(s.blocks))
	for src := range s.blocks {
		sources = append(sources, src)
	}
	sort.Strings(sources)
	nParts := 0
	for _, days := range s.blocks {
		nParts += len(days)
	}
	if err := writeU32(w, uint32(nParts)); err != nil {
		return err
	}
	dictCRC := w.crc // covers dict + partition count word
	dir := make([]PartitionInfo, 0, nParts)
	for _, source := range sources {
		days := make([]simtime.Day, 0, len(s.blocks[source]))
		for day := range s.blocks[source] {
			days = append(days, day)
		}
		sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
		for _, day := range days {
			b := s.blocks[source][day]
			start := w.n
			w.crc = 0
			if err := writePartition(w, source, day, b); err != nil {
				return err
			}
			dir = append(dir, PartitionInfo{
				Source: source, Day: day, Rows: b.rows(), CRC: w.crc,
				offset: start, length: w.n - start,
			})
		}
	}
	// Directory + footer.
	dirOff := w.n
	w.crc = 0
	if err := writeU32(w, uint32(len(dir))); err != nil {
		return err
	}
	for _, ent := range dir {
		if err := writeStr(w, ent.Source); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, int64(ent.Day)); err != nil {
			return err
		}
		if err := writeU32(w, uint32(ent.Rows)); err != nil {
			return err
		}
		var buf [16]byte
		binary.LittleEndian.PutUint64(buf[:8], ent.offset)
		binary.LittleEndian.PutUint64(buf[8:], ent.length)
		if _, err := w.Write(buf[:]); err != nil {
			return err
		}
		if err := writeU32(w, ent.CRC); err != nil {
			return err
		}
	}
	var foot [footerSizeV4]byte
	binary.LittleEndian.PutUint64(foot[:8], dirOff)
	binary.LittleEndian.PutUint32(foot[8:12], dictCRC)
	binary.LittleEndian.PutUint32(foot[12:16], w.crc)
	copy(foot[16:], dirMagic)
	_, err := w.Write(foot[:])
	return err
}

// writePartition serialises one (source, day) block.
func writePartition(w io.Writer, source string, day simtime.Day, b *dayBlock) error {
	if err := writeStr(w, source); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, int64(day)); err != nil {
		return err
	}
	if err := writeU32(w, uint32(b.rows())); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(b.addrs6))); err != nil {
		return err
	}
	if err := writeU32(w, uint32(len(b.asnVals))); err != nil {
		return err
	}
	if err := writeU32s(w, b.domains); err != nil {
		return err
	}
	kinds := make([]byte, len(b.kinds))
	for i, k := range b.kinds {
		kinds[i] = byte(k)
	}
	if _, err := w.Write(kinds); err != nil {
		return err
	}
	if err := writeU32s(w, b.addrs); err != nil {
		return err
	}
	for _, a := range b.addrs6 {
		if _, err := w.Write(a[:]); err != nil {
			return err
		}
	}
	if err := writeU32s(w, b.strs); err != nil {
		return err
	}
	if err := writeU32s(w, b.asnOff); err != nil {
		return err
	}
	return writeU32s(w, b.asnVals)
}

// maxPersistCount bounds per-section element counts on load.
const maxPersistCount = 1 << 30

// validateBlock checks cross-column invariants of a loaded partition so a
// corrupt file cannot cause out-of-range panics later.
func validateBlock(b *dayBlock, dictLen int) error {
	for i := range b.domains {
		if int(b.domains[i]) >= dictLen {
			return fmt.Errorf("store: domain id out of range")
		}
		if b.strs[i] != ^uint32(0) && int(b.strs[i]) >= dictLen {
			return fmt.Errorf("store: string id out of range")
		}
		if isV6Kind(b.kinds[i]) && int(b.addrs[i]) >= len(b.addrs6) {
			return fmt.Errorf("store: v6 index out of range")
		}
		if int(b.asnOff[i]) > len(b.asnVals) {
			return fmt.Errorf("store: ASN offset out of range")
		}
		if i > 0 && b.asnOff[i] < b.asnOff[i-1] {
			return fmt.Errorf("store: ASN offsets not monotone")
		}
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU32s(w io.Writer, vals []uint32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	_, err := w.Write(buf)
	return err
}

func writeStr(w io.Writer, s string) error {
	if len(s) > 0xFFFF {
		return fmt.Errorf("store: string too long")
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], uint16(len(s)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}
