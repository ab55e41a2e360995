package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"dpsadopt/internal/simtime"
)

// Reader is the one read path over a .dpsa dataset and holds the one
// partition decoder (decodeBlock): Load, Verify, streaming detection, the
// API index build and dpsdata all read through it. Open reads the file's
// layout via the v3+ partition directory and partitions decode on
// demand, so streaming consumers hold O(largest partition × concurrent
// acquires) in memory instead of the whole archive; ReadAll materializes
// every partition for callers that need a resident *Store.
//
// Each AcquireBatch is one pread of the partition's byte range
// (CRC-verified against the directory entry on v4 files, in the same
// pass that decodes it), cached in a small LRU of decoded partitions and
// backed by pooled column buffers, so a full streaming sweep's
// steady-state allocations stay bounded by the pool, not the dataset.
//
// Version 2 files predate the directory: Open walks them once with the
// same decoder to find each partition's byte range, and from then on
// they are read like any other file.
//
// A Reader is safe for concurrent use. It never writes: a corrupt
// partition surfaces as a *CorruptPartitionError instead of being
// quarantined on disk (quarantine is Load's job — the read path must
// stay usable against files it has no right to move).
type Reader struct {
	path string
	f    *os.File
	meta fileMeta
	// partsStart is where the partitions begin: the end of the
	// dictionary section (which includes the partition-count word).
	partsStart int64

	dir   []PartitionInfo
	byKey map[PartitionKey]PartitionInfo

	dictOnce sync.Once
	dict     *Dict
	dictErr  error

	mu       sync.Mutex
	closed   bool
	cache    map[PartitionKey]*cachedBlock
	lru      []PartitionKey // recency order, most recent last
	capacity int
	inflight map[PartitionKey]chan struct{}

	blkPool sync.Pool // *dayBlock, column slices reused across decodes
	bufPool sync.Pool // *[]byte, raw partition bytes
}

// cachedBlock is one decoded partition resident in the Reader's LRU.
// pins counts outstanding acquires; only unpinned blocks are evicted, so
// a batch stays valid until its release is called.
type cachedBlock struct {
	blk  *dayBlock
	pins int
}

// DefaultCachePartitions is the decoded-partition LRU capacity a fresh
// Reader starts with. Streaming detection visits each partition once, so
// the cache exists for interactive consumers (dpsdata, repeated spool
// reads); concurrent pins may push residency above it temporarily.
const DefaultCachePartitions = 4

// CorruptPartitionError reports a partition whose bytes failed the
// checksum or structural validation — the quarantine-candidate signal of
// the read path. The partition's rows are never returned; the caller
// decides whether to skip, fail, or hand the file to a salvaging Load
// (which quarantines on disk).
type CorruptPartitionError struct {
	Source string
	Day    simtime.Day
	Err    error
}

func (e *CorruptPartitionError) Error() string {
	return fmt.Sprintf("store: partition %s/%s unreadable: %v", e.Source, e.Day, e.Err)
}

func (e *CorruptPartitionError) Unwrap() error { return e.Err }

// Open opens a dataset file for partition reads. On v3+ files only the
// footer and directory are read (plus, on v4, one checksum pass over the
// shared dictionary and directory sections) — no partition is decoded
// and the dictionary itself decodes lazily on first use. Version 2 files
// are walked once to synthesize the directory.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &Reader{
		path:     path,
		f:        f,
		capacity: DefaultCachePartitions,
		cache:    make(map[PartitionKey]*cachedBlock),
		inflight: make(map[PartitionKey]chan struct{}),
	}
	r.blkPool.New = func() any { return &dayBlock{} }
	r.bufPool.New = func() any { return new([]byte) }
	if err := r.layout(); err != nil {
		f.Close()
		return nil, err
	}
	r.byKey = IndexDirectory(r.dir)
	mReaderOpens.Inc()
	return r, nil
}

// layout reads the header, then the footer and directory of a v3+ file
// (checking the shared sections on v4), or walks a version 2 file.
func (r *Reader) layout() error {
	version, err := readHeader(r.f)
	if err != nil {
		return err
	}
	if version < 3 {
		return r.walkLegacy(version)
	}
	if r.meta, err = readFooter(r.f, version); err != nil {
		return err
	}
	if r.dir, err = readDirectoryAt(r.f, r.meta); err != nil {
		return err
	}
	r.partsStart = int64(r.meta.dirOff)
	for i := range r.dir {
		r.partsStart = min(r.partsStart, int64(r.dir[i].offset))
	}
	if r.partsStart < 8+4 {
		return fmt.Errorf("store: partition directory overlaps the dictionary")
	}
	if version >= 4 {
		return verifySharedSections(r.f, r.meta, r.partsStart)
	}
	return nil
}

// walkLegacy lays out a version 2 file, which has no directory to seek
// by: one pass over the whole file with the partition decoder validates
// every partition and records its byte range, and the directory is
// synthesized from that walk.
func (r *Reader) walkLegacy(version uint32) error {
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	r.meta = fileMeta{version: version, size: st.Size()}
	data := make([]byte, st.Size())
	if _, err := r.f.ReadAt(data, 0); err != nil {
		return err
	}
	c := byteCursor{data: data, off: 8}
	dict, err := decodeDict(&c)
	if err != nil {
		return err
	}
	n := c.u32()
	if c.err != nil {
		return c.err
	}
	r.partsStart = int64(c.off)
	var blk dayBlock
	for i := uint32(0); i < n; i++ {
		start := c.off
		source, day, err := decodeBlock(&c, &blk, dict.Len())
		if err != nil {
			return err
		}
		r.dir = append(r.dir, PartitionInfo{Source: source, Day: day, Rows: blk.rows(),
			offset: uint64(start), length: uint64(c.off - start)})
	}
	return nil
}

// Close releases the Reader. Outstanding batches must be released first;
// acquires racing Close fail with a read error.
func (r *Reader) Close() error {
	r.mu.Lock()
	r.closed = true
	r.cache = make(map[PartitionKey]*cachedBlock)
	r.lru = nil
	r.mu.Unlock()
	return r.f.Close()
}

// Version reports the file's format version.
func (r *Reader) Version() uint32 { return r.meta.version }

// Partitions lists the file's (source, day) partitions in sorted
// (source, day) order, from the directory alone.
func (r *Reader) Partitions() []PartitionInfo {
	return append([]PartitionInfo(nil), r.dir...)
}

// Keys lists the file's partition keys in sorted (source, day) order.
func (r *Reader) Keys() []PartitionKey {
	out := make([]PartitionKey, len(r.dir))
	for i, ent := range r.dir {
		out[i] = ent.Key()
	}
	return out
}

// SetCachePartitions resizes the decoded-partition LRU (minimum 1).
func (r *Reader) SetCachePartitions(n int) {
	if n < 1 {
		n = 1
	}
	r.mu.Lock()
	r.capacity = n
	r.evictLocked()
	r.mu.Unlock()
}

// SharedDict returns the file's dictionary, decoding it on first call.
// Every batch AcquireBatch hands out names it as its Dict.
func (r *Reader) SharedDict() (*Dict, error) {
	r.dictOnce.Do(func() { r.dict, r.dictErr = r.readDict() })
	return r.dict, r.dictErr
}

// readDict decodes a fresh copy of the file's dictionary.
func (r *Reader) readDict() (*Dict, error) {
	buf := make([]byte, r.partsStart-8)
	if _, err := r.f.ReadAt(buf, 8); err != nil {
		return nil, fmt.Errorf("store: reading dictionary: %w", err)
	}
	c := byteCursor{data: buf}
	d, err := decodeDict(&c)
	if err != nil {
		return nil, fmt.Errorf("store: reading dictionary: %w", err)
	}
	return d, nil
}

// ReadAll materializes every partition into a Store that owns its
// blocks and its dictionary — fresh columns, never the LRU's pooled ones
// — so the store stays valid after the Reader is closed. Damaged
// partitions are left out and listed in a *PartialLoadError (with empty
// Paths: ReadAll never writes) next to the store of survivors.
func (r *Reader) ReadAll() (*Store, error) {
	dict, err := r.readDict()
	if err != nil {
		return nil, err
	}
	s := New()
	s.dict = dict
	var damaged []QuarantinedPartition
	var buf []byte
	for i := range r.dir {
		ent := &r.dir[i]
		blk := &dayBlock{}
		if err := r.decodePartition(ent, blk, dict.Len(), &buf); err != nil {
			damaged = append(damaged, QuarantinedPartition{Source: ent.Source, Day: ent.Day,
				Err: err.(*CorruptPartitionError).Err.Error()})
			continue
		}
		days := s.blocks[ent.Source]
		if days == nil {
			days = make(map[simtime.Day]*dayBlock)
			s.blocks[ent.Source] = days
		}
		days[ent.Day] = blk
		mPartitions.Inc()
		mResidentRows.Add(float64(blk.rows()))
	}
	if len(damaged) > 0 {
		return s, &PartialLoadError{Quarantined: damaged}
	}
	return s, nil
}

// AcquireBatch decodes (or fetches from the LRU) one partition and
// returns its columnar view plus a release func. The batch is valid only
// until release is called — the backing columns may then be recycled for
// another partition — and release must be called exactly once. A
// checksum or structural failure returns a *CorruptPartitionError; a key
// absent from the directory is a plain error.
func (r *Reader) AcquireBatch(source string, day simtime.Day) (RowBatch, func(), error) {
	noop := func() {}
	k := PartitionKey{Source: source, Day: day}
	ent, ok := r.byKey[k]
	if !ok {
		return RowBatch{}, noop, fmt.Errorf("store: no partition %s in %s", k, r.path)
	}
	dict, err := r.SharedDict()
	if err != nil {
		return RowBatch{}, noop, err
	}

	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return RowBatch{}, noop, errors.New("store: reader closed")
		}
		if cb, ok := r.cache[k]; ok {
			cb.pins++
			r.touchLocked(k)
			r.mu.Unlock()
			mReaderCacheHits.Inc()
			return cb.blk.batch(dict), func() { r.release(cb) }, nil
		}
		ch, busy := r.inflight[k]
		if !busy {
			break
		}
		// Another goroutine is decoding this partition: wait for it and
		// re-check the cache rather than decoding twice.
		r.mu.Unlock()
		<-ch
		r.mu.Lock()
	}
	ch := make(chan struct{})
	r.inflight[k] = ch
	r.mu.Unlock()

	bufp := r.bufPool.Get().(*[]byte)
	blk := r.blkPool.Get().(*dayBlock)
	err = r.decodePartition(&ent, blk, dict.Len(), bufp)
	r.bufPool.Put(bufp)
	if err != nil {
		r.blkPool.Put(blk)
	}

	r.mu.Lock()
	delete(r.inflight, k)
	close(ch)
	if err != nil {
		r.mu.Unlock()
		return RowBatch{}, noop, err
	}
	cb := &cachedBlock{blk: blk, pins: 1}
	r.cache[k] = cb
	r.lru = append(r.lru, k)
	r.evictLocked()
	r.mu.Unlock()
	return blk.batch(dict), func() { r.release(cb) }, nil
}

func (r *Reader) release(cb *cachedBlock) {
	r.mu.Lock()
	cb.pins--
	r.evictLocked()
	r.mu.Unlock()
}

// touchLocked moves k to the most-recent end of the LRU order.
func (r *Reader) touchLocked(k PartitionKey) {
	for i := range r.lru {
		if r.lru[i] == k {
			copy(r.lru[i:], r.lru[i+1:])
			r.lru[len(r.lru)-1] = k
			return
		}
	}
}

// evictLocked drops least-recently-used unpinned blocks until the cache
// fits. Pinned blocks are never evicted, so concurrent acquires can push
// residency above capacity until their releases land.
func (r *Reader) evictLocked() {
	for len(r.lru) > r.capacity {
		victim := -1
		for i, k := range r.lru {
			if r.cache[k].pins == 0 {
				victim = i
				break
			}
		}
		if victim < 0 {
			return
		}
		k := r.lru[victim]
		blk := r.cache[k].blk
		delete(r.cache, k)
		r.lru = append(r.lru[:victim], r.lru[victim+1:]...)
		r.blkPool.Put(blk)
	}
}

// decodePartition preads one partition's byte range into *buf (grown as
// needed), checks the directory CRC over those same bytes (v4), and
// decodes them into blk — one pass over the bytes. Every failure is a
// *CorruptPartitionError.
func (r *Reader) decodePartition(ent *PartitionInfo, blk *dayBlock, dictLen int, buf *[]byte) error {
	corrupt := func(err error) error {
		return &CorruptPartitionError{Source: ent.Source, Day: ent.Day, Err: err}
	}
	if uint64(cap(*buf)) < ent.length {
		*buf = make([]byte, ent.length)
	}
	data := (*buf)[:ent.length]
	if _, err := r.f.ReadAt(data, int64(ent.offset)); err != nil {
		return corrupt(fmt.Errorf("reading partition bytes: %w", err))
	}
	mReaderBytesRead.Add(int64(len(data)))
	if r.meta.version >= 4 {
		if got := crc32.ChecksumIEEE(data); got != ent.CRC {
			mCRCFailures.Inc()
			return corrupt(fmt.Errorf("checksum mismatch (want %08x, got %08x): torn write or corruption at rest", ent.CRC, got))
		}
	}
	c := byteCursor{data: data}
	source, day, err := decodeBlock(&c, blk, dictLen)
	if err == nil && c.off != len(data) {
		err = fmt.Errorf("store: partition has %d trailing bytes", len(data)-c.off)
	}
	if err != nil {
		return corrupt(err)
	}
	if source != ent.Source || day != ent.Day {
		return corrupt(fmt.Errorf("directory points at partition %s/%s", source, day))
	}
	mReaderPartitionsDecoded.Inc()
	return nil
}

// batch is the RowBatch view of a block whose IDs index into dict.
func (b *dayBlock) batch(dict *Dict) RowBatch {
	return RowBatch{
		Dict:    dict,
		Domains: b.domains,
		Kinds:   b.kinds,
		Addrs:   b.addrs,
		Addrs6:  b.addrs6,
		Strs:    b.strs,
		asnOff:  b.asnOff,
		asnVals: b.asnVals,
	}
}

// decodeDict parses the shared dictionary at the cursor.
func decodeDict(c *byteCursor) (*Dict, error) {
	n := c.u32()
	if n > maxPersistCount {
		return nil, fmt.Errorf("store: dictionary too large")
	}
	d := NewDict()
	for i := uint32(0); i < n && c.err == nil; i++ {
		d.ID(c.str())
	}
	return d, c.err
}

// decodeBlock is the partition decoder: it parses one serialized
// (source, day) partition at the cursor into b, reusing b's column
// slices, and validates the block before returning. It is the only code
// that parses a partition's bytes.
func decodeBlock(c *byteCursor, b *dayBlock, dictLen int) (source string, day simtime.Day, err error) {
	source = c.str()
	day = simtime.Day(c.i64())
	rows := c.u32()
	nV6 := c.u32()
	nASN := c.u32()
	if c.err != nil {
		return "", 0, c.err
	}
	if rows > maxPersistCount || nV6 > rows || nASN > maxPersistCount {
		return "", 0, fmt.Errorf("store: corrupt partition header")
	}
	b.domains = c.u32sInto(b.domains, int(rows))
	kindBytes := c.take(int(rows))
	b.addrs = c.u32sInto(b.addrs, int(rows))
	v6Bytes := c.take(16 * int(nV6))
	b.strs = c.u32sInto(b.strs, int(rows))
	b.asnOff = c.u32sInto(b.asnOff, int(rows))
	b.asnVals = c.u32sInto(b.asnVals, int(nASN))
	if c.err != nil {
		return "", 0, c.err
	}
	if cap(b.kinds) < int(rows) {
		b.kinds = make([]Kind, rows)
	} else {
		b.kinds = b.kinds[:rows]
	}
	for i, k := range kindBytes {
		if Kind(k) >= numKinds {
			return "", 0, fmt.Errorf("store: bad kind %d", k)
		}
		b.kinds[i] = Kind(k)
	}
	if cap(b.addrs6) < int(nV6) {
		b.addrs6 = make([][16]byte, nV6)
	} else {
		b.addrs6 = b.addrs6[:nV6]
	}
	for i := range b.addrs6 {
		copy(b.addrs6[i][:], v6Bytes[16*i:])
	}
	if err := validateBlock(b, dictLen); err != nil {
		return "", 0, err
	}
	return source, day, nil
}

// byteCursor walks a byte slice with a sticky error, so decode code
// reads linearly and checks once.
type byteCursor struct {
	data []byte
	off  int
	err  error
}

func (c *byteCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || n > len(c.data)-c.off {
		c.err = io.ErrUnexpectedEOF
		return nil
	}
	p := c.data[c.off : c.off+n]
	c.off += n
	return p
}

func (c *byteCursor) u32() uint32 {
	p := c.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (c *byteCursor) u64() uint64 {
	p := c.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (c *byteCursor) i64() int64 { return int64(c.u64()) }

func (c *byteCursor) str() string {
	p := c.take(2)
	if p == nil {
		return ""
	}
	return string(c.take(int(binary.LittleEndian.Uint16(p))))
}

// u32sInto decodes n little-endian uint32s, reusing dst's backing array
// when it is large enough.
func (c *byteCursor) u32sInto(dst []uint32, n int) []uint32 {
	p := c.take(4 * n)
	if p == nil {
		return dst[:0]
	}
	if cap(dst) < n {
		dst = make([]uint32, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	return dst
}

// ReaderInfo summarises a dataset from its directory alone — what
// dpsdata -info prints without decoding a single partition.
type ReaderInfo struct {
	Path       string
	Version    uint32
	FileBytes  int64
	Partitions int
	Rows       int64
	// PartitionBytes sums the directory's partition byte ranges.
	PartitionBytes int64
	Sources        []string
	FirstDay       simtime.Day
	LastDay        simtime.Day
	// Directory is false on version 2 files, whose directory Open
	// synthesized by walking the file.
	Directory bool
	// CRCPartitions reports per-partition checksums (version 4+).
	CRCPartitions bool
}

// Info summarises the open dataset without decoding any partition.
func (r *Reader) Info() ReaderInfo {
	info := ReaderInfo{
		Path:          r.path,
		Version:       r.meta.version,
		FileBytes:     r.meta.size,
		Partitions:    len(r.dir),
		Directory:     r.meta.version >= 3,
		CRCPartitions: r.meta.version >= 4,
	}
	seen := make(map[string]bool)
	for i, ent := range r.dir {
		info.Rows += int64(ent.Rows)
		info.PartitionBytes += int64(ent.length)
		if !seen[ent.Source] {
			seen[ent.Source] = true
			info.Sources = append(info.Sources, ent.Source)
		}
		if i == 0 || ent.Day < info.FirstDay {
			info.FirstDay = ent.Day
		}
		if i == 0 || ent.Day > info.LastDay {
			info.LastDay = ent.Day
		}
	}
	sort.Strings(info.Sources)
	return info
}

// AcquireBatch implements core's BatchSource contract for the in-memory
// store: the batch aliases resident columns, so release is a no-op and a
// missing partition is an empty batch (matching RowBatch's semantics).
func (s *Store) AcquireBatch(source string, day simtime.Day) (RowBatch, func(), error) {
	b, _ := s.RowBatch(source, day)
	b.Dict = s.dict
	return b, func() {}, nil
}
