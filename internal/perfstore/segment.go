// Sealed segments: the immutable on-disk tier of the store.
//
// A segment is one binary file holding a batch of entries sorted by
// (time, ingest-seq), encoded column-per-field: every string field
// (system, benchmark, partition, environ, spec, result, FOM names and
// units, extra keys and values, source-file paths) is interned into one
// per-segment dictionary and the columns carry small integer ids;
// timestamps are delta-encoded along the sort order. The fixed-size
// header carries a zone map — entry count, min/max time, min/max ingest
// sequence — so a query (and a boot) can decide whether a segment is
// relevant without reading its data block, and CRCs over both header
// and data so a torn write from a crashed sealer is detected, never
// half-ingested.
//
// Layout:
//
//	header (64 bytes):
//	  magic "PSG1" | u32 version | u64 count
//	  i64 minT | i64 maxT | u64 minSeq | u64 maxSeq
//	  u64 dataLen | u32 dataCRC | u32 headerCRC
//	data block (dataLen bytes, CRC32-Castagnoli = dataCRC):
//	  dictionary: uvarint n, then n × (uvarint len, bytes)
//	  columns, count rows each:
//	    seconds (varint delta), nanos (uvarint),
//	    seq (uvarint, offset from minSeq),
//	    file/system/benchmark/partition/environ/spec/result (uvarint dict ids),
//	    job (varint),
//	    FOMs: uvarint nf, then nf × (name id, unit id, f64 bits LE),
//	    extras: uvarint nx, then nx × (key id, value id)
//
// In memory a segment stays in columns (see columns): the dictionary, one
// slice per fixed field, and one slab each of FOM and extra cells, all
// carrying dictionary ids — the same form a head shard's rows take as
// they are appended. A query compares ids, and a row becomes a
// perflog.Entry only when a Select returns it. A seal, a compaction and
// an eviction all write a segment from columns through one encoder
// (encodeRows). A sealed segment has one resident form, whether it was
// just written or loaded after a restart: both come from decodeSegment.
//
// Segments are a derived cache of the text perflog tree (the durable
// source of truth, paper Principle 6): any segment can be dropped and
// rebuilt by re-parsing the perflog bytes it covers.
package perfstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/faultinject"
	"repro/internal/fom"
	"repro/internal/perflog"
	"repro/internal/retry"
	"repro/internal/telemetry"
)

const (
	segMagic      = "PSG1"
	segVersion    = 1
	segHeaderSize = 64
)

var segCRC = crc32.MakeTable(crc32.Castagnoli)

// Sealed-tier metrics: how the segment lifecycle (seal, compact, lazy
// load, zone-map prune) is behaving in production, alongside the ingest
// counters in store.go.
var (
	metricSealsTotal = telemetry.DefaultRegistry.Counter(
		"perfstore_segments_sealed_total",
		"Head batches sealed into immutable segments.").With()
	metricCompactionsTotal = telemetry.DefaultRegistry.Counter(
		"perfstore_compactions_total",
		"Segment compactions run (small segments merged into one).").With()
	metricSealSeconds = telemetry.DefaultRegistry.Histogram(
		"perfstore_seal_seconds",
		"Wall-clock duration of one Seal call.",
		nil).With()
	metricCompactSeconds = telemetry.DefaultRegistry.Histogram(
		"perfstore_compact_seconds",
		"Wall-clock duration of one Compact call.",
		nil).With()
	metricSegmentLoads = telemetry.DefaultRegistry.Counter(
		"perfstore_segment_loads_total",
		"Segment data blocks decoded into memory (lazy loads).").With()
	metricSegmentsPruned = telemetry.DefaultRegistry.Counter(
		"perfstore_segments_pruned_total",
		"Segment reads skipped entirely by the zone map (Since past MaxT).").With()
	metricSegLoadFailures = telemetry.DefaultRegistry.Counter(
		"perfstore_segment_load_failures_total",
		"Segment loads that failed after retries (segment served as absent).").With()
	metricHeadEntries = telemetry.DefaultRegistry.Gauge(
		"perfstore_head_entries",
		"Live entries in the mutable head tier.").With()
	metricSealedEntries = telemetry.DefaultRegistry.Gauge(
		"perfstore_sealed_entries",
		"Entries held in sealed segments.").With()
	metricSealedSegments = telemetry.DefaultRegistry.Gauge(
		"perfstore_sealed_segments",
		"Sealed segments currently live in the manifest.").With()
	metricManifestGen = telemetry.DefaultRegistry.Gauge(
		"perfstore_manifest_generation",
		"Manifest generation (seals + compactions + sealed evictions).").With()
	metricSealedResident = telemetry.DefaultRegistry.Gauge(
		"perfstore_sealed_resident_bytes",
		"Bytes the loaded sealed segments keep in memory: their columns and posting lists.").With()
	metricHeadResident = telemetry.DefaultRegistry.Gauge(
		"perfstore_head_resident_bytes",
		"Bytes the head shards keep in memory: their columns, posting lists and time order.").With()
)

// segHeader is the decoded fixed-size segment header — everything a
// boot or a zone-map check needs, without touching the data block.
type segHeader struct {
	Count          int
	MinT, MaxT     int64
	MinSeq, MaxSeq uint64
	DataLen        uint64
	DataCRC        uint32
}

// SegmentInfo describes one sealed segment in the manifest and in
// Stats/healthz views. Sources lists the perflog files (relative to the
// store root) whose entries the segment holds, so a truncated source
// file can be evicted from the sealed tier without scanning every
// segment's data.
type SegmentInfo struct {
	File    string   `json:"file"`
	Count   int      `json:"count"`
	Bytes   int64    `json:"bytes"`
	MinT    int64    `json:"min_t"`
	MaxT    int64    `json:"max_t"`
	MinSeq  uint64   `json:"min_seq"`
	MaxSeq  uint64   `json:"max_seq"`
	Sources []string `json:"sources,omitempty"`
	Systems []string `json:"systems,omitempty"`
}

// rowRef is one row of one of a rowSet's sources.
type rowRef struct{ src, row int32 }

// rowSet is what a new segment is written from: rows of one or more
// columns — head shards for a seal, segments for a compaction or an
// eviction — which encodeRows writes in the order rows lists them.
type rowSet struct {
	srcs []*columns
	rows []rowRef
}

// add appends the rows of c that order lists (nil: every row, in row
// order), except those ingested from the file whose dictionary id is drop
// (noID drops nothing).
func (rs *rowSet) add(c *columns, order []int32, drop uint32) {
	src := int32(len(rs.srcs))
	rs.srcs = append(rs.srcs, c)
	rs.rows = slices.Grow(rs.rows, len(c.t))
	for i := range c.t {
		row := int32(i)
		if order != nil {
			row = order[i]
		}
		if c.col[colFile][row] != drop {
			rs.rows = append(rs.rows, rowRef{src, row})
		}
	}
}

// sort puts the rows in (time, seq) order. Each source's rows already are,
// so a set with one source is left as it is.
func (rs *rowSet) sort() {
	if len(rs.srcs) < 2 {
		return
	}
	slices.SortFunc(rs.rows, func(a, b rowRef) int {
		ca, cb := rs.srcs[a.src], rs.srcs[b.src]
		return cmpOrder(ca.t[a.row], ca.seq[a.row], cb.t[b.row], cb.seq[b.row])
	})
}

// encodeRows renders a (t, seq)-sorted row set into header + data block
// bytes: the one segment encoder, behind Seal, Compact and sealed
// eviction. Strings enter the segment's dictionary in the order the rows
// first use them, and a row's FOMs and extras go out sorted by name, so
// the bytes depend on the rows alone, never on which columns or
// dictionaries they came from.
func encodeRows(rs *rowSet) (segHeader, []byte) {
	var (
		cols  []byte
		strs  []string
		ids   = map[string]uint32{}
		remap = make([][]uint32, len(rs.srcs)) // per source: its ids to the segment's, noID until first used
		foms  []fomCell
		xs    []extraCell
		c     *columns // the source of the row being encoded
		m     []uint32 // and its remap
	)
	for i, src := range rs.srcs {
		remap[i] = make([]uint32, len(src.dict))
		for j := range remap[i] {
			remap[i][j] = noID
		}
	}
	put := func(v uint64) { cols = binary.AppendUvarint(cols, v) }
	puts := func(v int64) { cols = binary.AppendVarint(cols, v) }
	id := func(src uint32) {
		out := m[src]
		if out == noID {
			s := c.dict[src]
			var ok bool
			if out, ok = ids[s]; !ok {
				out = uint32(len(strs))
				ids[s] = out
				strs = append(strs, s)
			}
			m[src] = out
		}
		put(uint64(out))
	}
	// A row's cells sorted by name, as a map's sorted keys would list them.
	cmpFOM := func(a, b fomCell) int { return strings.Compare(c.dict[a.name], c.dict[b.name]) }
	cmpExtra := func(a, b extraCell) int { return strings.Compare(c.dict[a.key], c.dict[b.key]) }

	hdr := segHeader{Count: len(rs.rows), MinT: math.MaxInt64, MaxT: math.MinInt64, MinSeq: math.MaxUint64}
	for _, r := range rs.rows {
		src := rs.srcs[r.src]
		hdr.MinT = min(hdr.MinT, src.t[r.row])
		hdr.MaxT = max(hdr.MaxT, src.t[r.row])
		hdr.MinSeq = min(hdr.MinSeq, src.seq[r.row])
		hdr.MaxSeq = max(hdr.MaxSeq, src.seq[r.row])
	}
	if len(rs.rows) == 0 {
		hdr.MinT, hdr.MaxT, hdr.MinSeq, hdr.MaxSeq = 0, 0, 0, 0
	}
	prevSec := int64(0)
	for _, r := range rs.rows {
		c, m = rs.srcs[r.src], remap[r.src]
		row := r.row
		tm := c.time(row)
		sec := tm.Unix()
		puts(sec - prevSec)
		prevSec = sec
		put(uint64(tm.Nanosecond()))
		put(c.seq[row] - hdr.MinSeq)
		for k := range c.col {
			id(c.col[k][row])
		}
		puts(c.job[row])
		foms = append(foms[:0], c.foms[c.fomAt[row]:c.fomAt[row+1]]...)
		if !slices.IsSortedFunc(foms, cmpFOM) {
			slices.SortFunc(foms, cmpFOM)
		}
		put(uint64(len(foms)))
		for _, f := range foms {
			id(f.name)
			id(f.unit)
			cols = binary.LittleEndian.AppendUint64(cols, math.Float64bits(f.value))
		}
		xs = append(xs[:0], c.extras[c.extraAt[row]:c.extraAt[row+1]]...)
		if !slices.IsSortedFunc(xs, cmpExtra) {
			slices.SortFunc(xs, cmpExtra)
		}
		put(uint64(len(xs)))
		for _, x := range xs {
			id(x.key)
			id(x.val)
		}
	}

	data := binary.AppendUvarint(nil, uint64(len(strs)))
	for _, s := range strs {
		data = binary.AppendUvarint(data, uint64(len(s)))
		data = append(data, s...)
	}
	data = append(data, cols...)
	hdr.DataLen = uint64(len(data))
	hdr.DataCRC = crc32.Checksum(data, segCRC)
	return hdr, data
}

// marshalHeader renders the fixed-size header, CRC-stamped last.
func marshalHeader(h segHeader) []byte {
	buf := make([]byte, segHeaderSize)
	copy(buf, segMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:], segVersion)
	le.PutUint64(buf[8:], uint64(h.Count))
	le.PutUint64(buf[16:], uint64(h.MinT))
	le.PutUint64(buf[24:], uint64(h.MaxT))
	le.PutUint64(buf[32:], h.MinSeq)
	le.PutUint64(buf[40:], h.MaxSeq)
	le.PutUint64(buf[48:], h.DataLen)
	le.PutUint32(buf[56:], h.DataCRC)
	le.PutUint32(buf[60:], crc32.Checksum(buf[:60], segCRC))
	return buf
}

func unmarshalHeader(buf []byte) (segHeader, error) {
	var h segHeader
	if len(buf) < segHeaderSize {
		return h, fmt.Errorf("truncated header (%d bytes)", len(buf))
	}
	if string(buf[:4]) != segMagic {
		return h, fmt.Errorf("bad magic %q", buf[:4])
	}
	le := binary.LittleEndian
	if got, want := crc32.Checksum(buf[:60], segCRC), le.Uint32(buf[60:]); got != want {
		return h, fmt.Errorf("header CRC mismatch")
	}
	if v := le.Uint32(buf[4:]); v != segVersion {
		return h, fmt.Errorf("unsupported version %d", v)
	}
	h.Count = int(le.Uint64(buf[8:]))
	h.MinT = int64(le.Uint64(buf[16:]))
	h.MaxT = int64(le.Uint64(buf[24:]))
	h.MinSeq = le.Uint64(buf[32:])
	h.MaxSeq = le.Uint64(buf[40:])
	h.DataLen = le.Uint64(buf[48:])
	h.DataCRC = le.Uint32(buf[56:])
	if h.Count < 0 {
		return h, fmt.Errorf("negative count")
	}
	return h, nil
}

// byteReader walks a data block with bounds-checked varint reads — the
// decoder never panics on corrupt or adversarial input, it errors.
type byteReader struct {
	buf []byte
	pos int
}

func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.buf)-r.pos) {
		return nil, fmt.Errorf("truncated field at %d (want %d bytes)", r.pos, n)
	}
	out := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

// postingBuilder buckets row indices by dictionary id while a segment
// decodes, so the decoder never concatenates or hashes a posting key per
// row: a posting is one table or integer-map probe, each key string is
// built once per distinct id, and every list is carved out of one shared
// slab. finish yields exactly what the per-row key build in ref_test.go
// computes from the arena.
type postingBuilder struct {
	// system, benchmark, result and FOM-name postings are keyed by one
	// canonical dictionary id: dense id → bucket+1 tables. Extras are
	// keyed by a (key id, value id) pair.
	system, benchmark, result, fom []int32
	extra                          map[[2]uint32]int32
	buckets                        []postingBucket
	refs                           []int32 // bucket of every posting, in row order
	rowEnd                         []int32 // len(refs) after each row
}

// postingBucket is one posting list in the making: which key it will
// carry (a kind byte as in the key* functions, and the dictionary ids of
// its value) and how many rows it holds.
type postingBucket struct {
	kind byte
	a, b uint32
	n    int32
}

// newPostingBuilder sizes the id tables for a dictionary of ids strings
// and the bucket references for at most postings postings over rows rows.
func newPostingBuilder(ids, rows, postings int) *postingBuilder {
	tables := make([]int32, 4*ids)
	return &postingBuilder{
		system:    tables[:ids:ids],
		benchmark: tables[ids : 2*ids : 2*ids],
		result:    tables[2*ids : 3*ids : 3*ids],
		fom:       tables[3*ids:],
		extra:     map[[2]uint32]int32{},
		refs:      make([]int32, 0, postings),
		rowEnd:    make([]int32, 0, rows),
	}
}

// post records the current row under the bucket *slot names, creating
// the bucket on first use.
func (pb *postingBuilder) post(slot *int32, kind byte, a, b uint32) {
	if *slot == 0 {
		pb.buckets = append(pb.buckets, postingBucket{kind: kind, a: a, b: b})
		*slot = int32(len(pb.buckets))
	}
	pb.buckets[*slot-1].n++
	pb.refs = append(pb.refs, *slot-1)
}

func (pb *postingBuilder) postSystem(id uint32)    { pb.post(&pb.system[id], 's', id, 0) }
func (pb *postingBuilder) postBenchmark(id uint32) { pb.post(&pb.benchmark[id], 'b', id, 0) }
func (pb *postingBuilder) postResult(id uint32)    { pb.post(&pb.result[id], 'r', id, 0) }
func (pb *postingBuilder) postFOM(id uint32)       { pb.post(&pb.fom[id], 'f', id, 0) }

func (pb *postingBuilder) postExtra(k, v uint32) {
	slot := pb.extra[[2]uint32{k, v}]
	known := slot != 0
	pb.post(&slot, 'x', k, v)
	if !known {
		pb.extra[[2]uint32{k, v}] = slot
	}
}

// bucketKey renders a bucket's posting key from the dictionary, once per
// bucket.
func bucketKey(dict []string, bk postingBucket) string {
	switch bk.kind {
	case 's':
		return keySystem(dict[bk.a])
	case 'b':
		return keyBenchmark(dict[bk.a])
	case 'r':
		return keyResult(dict[bk.a])
	case 'f':
		return keyFOM(dict[bk.a])
	}
	return keyExtra(dict[bk.a], dict[bk.b])
}

func (pb *postingBuilder) endRow() { pb.rowEnd = append(pb.rowEnd, int32(len(pb.refs))) }

// finish lays the buckets out in one slab (ascending row order within
// each, since rows were posted in order) and names them. Ids are
// canonical, so two buckets render one key only when an extra key or
// value holds the NUL byte the key separates them with; their lists
// merge in row order, as one key string's list would.
func (pb *postingBuilder) finish(dict []string) map[string][]int32 {
	next := make([]int32, len(pb.buckets))
	off := int32(0)
	for b := range pb.buckets {
		next[b] = off
		off += pb.buckets[b].n
	}
	slab := make([]int32, len(pb.refs))
	p := int32(0)
	for row, end := range pb.rowEnd {
		for ; p < end; p++ {
			b := pb.refs[p]
			slab[next[b]] = int32(row)
			next[b]++
		}
	}
	post := make(map[string][]int32, len(pb.buckets))
	for b, bk := range pb.buckets {
		key, list := bucketKey(dict, bk), slab[next[b]-bk.n:next[b]:next[b]]
		if prev, dup := post[key]; dup {
			list = mergePostings(prev, list)
		}
		post[key] = list
	}
	return post
}

// mergePostings merges two ascending posting lists into a new one.
func mergePostings(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			out = append(out, b[0])
			b = b[1:]
		} else {
			out = append(out, a[0])
			a = a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// The identity columns of a row, in the order a segment row encodes them.
const (
	colFile = iota
	colSystem
	colBenchmark
	colPartition
	colEnviron
	colSpec
	colResult
	numCols
)

// noID is an id no dictionary hands out: the id of a string it lacks.
const noID = math.MaxUint32

// fomCell is one FOM of a row, its name and unit as dictionary ids.
type fomCell struct {
	name, unit uint32
	value      float64
}

// extraCell is one extra of a row, key and value as dictionary ids.
type extraCell struct{ key, val uint32 }

// farTime is the time of a row whose ordering key saturated (see
// timeNanos), which the key alone cannot give back.
type farTime struct {
	row int32
	sec int64
	ns  int32
}

// columns is the one in-memory form of rows, in both tiers: a sealed
// segment's, filled by decodeSegment, and a head shard's, filled by
// appends (shard.appendLocked). Every string is a dictionary id, and ids
// are canonical: a string the dictionary repeats has one id, so an
// equality is an id compare. A row holds each FOM name and extra key once,
// with the value a map filled in block order ends up holding.
//
// A head's columns only grow, and never rewrite a row, a cell or a
// dictionary string: a copy of the struct taken under the shard's read
// lock keeps reading the rows it saw after the lock is released, while
// appends go past its lengths (see leg). lookup is a map and changes in
// place, so it is read only under the lock.
type columns struct {
	dict    []string          // a segment's: substrings of one string; a head's: copies made as they are interned
	lookup  map[string]uint32 // the canonical id of each dictionary string
	empty   uint32            // the id of "", or noID: what an absent extra reads as
	t       []int64           // ordering key per row (timeNanos)
	seq     []uint64          // ingest sequence per row
	col     [numCols][]uint32 // identity fields per row
	job     []int64           // job id per row
	fomAt   []uint32          // row i's FOMs are foms[fomAt[i]:fomAt[i+1]]
	extraAt []uint32          // row i's extras are extras[extraAt[i]:extraAt[i+1]]
	foms    []fomCell
	extras  []extraCell
	far     []farTime // the rows whose ordering key saturated, ascending
}

// newColumns is an empty head's columns. "" is interned first, so an
// absent extra always has an id to read as.
func newColumns() columns {
	c := columns{lookup: map[string]uint32{}, fomAt: []uint32{0}, extraAt: []uint32{0}}
	c.empty = c.intern("")
	return c
}

// intern is s's id, adding a copy of s to the dictionary when it is new:
// the dictionary never keeps alive the buffer s was cut from.
func (c *columns) intern(s string) uint32 {
	if id, ok := c.lookup[s]; ok {
		return id
	}
	id := uint32(len(c.dict))
	s = strings.Clone(s)
	c.dict = append(c.dict, s)
	c.lookup[s] = id
	return id
}

// id is s's dictionary id, noID when the columns never store s.
func (c *columns) id(s string) uint32 {
	if id, ok := c.lookup[s]; ok {
		return id
	}
	return noID
}

// str is the string of id; noID reads as "".
func (c *columns) str(id uint32) string {
	if id == noID {
		return ""
	}
	return c.dict[id]
}

// fom finds row's FOM named by id.
func (c *columns) fom(row int32, name uint32) (fomCell, bool) {
	for _, f := range c.foms[c.fomAt[row]:c.fomAt[row+1]] {
		if f.name == name {
			return f, true
		}
	}
	return fomCell{}, false
}

// extra finds the value id of row's extra keyed by id.
func (c *columns) extra(row int32, key uint32) (uint32, bool) {
	for _, x := range c.extras[c.extraAt[row]:c.extraAt[row+1]] {
		if x.key == key {
			return x.val, true
		}
	}
	return noID, false
}

// extraOr is the value id of row's extra keyed by id, and for a row
// without it the id of "" — what a perflog.Entry's Extra map reads.
func (c *columns) extraOr(row int32, key uint32) uint32 {
	if v, ok := c.extra(row, key); ok {
		return v
	}
	return c.empty
}

// time is row's timestamp as the decoder of the text record gives it.
func (c *columns) time(row int32) time.Time {
	if t := c.t[row]; t != math.MinInt64 && t != math.MaxInt64 {
		return time.Unix(0, t).UTC()
	}
	i := sort.Search(len(c.far), func(i int) bool { return c.far[i].row >= row })
	return time.Unix(c.far[i].sec, int64(c.far[i].ns)).UTC()
}

// extrasMemo lets the rows one call materializes share an Extra map when
// their extras are the same cells of the same columns — the usual case, a
// few run parameters repeating across runs. An entry the store hands out
// is read-only.
type extrasMemo struct {
	slots [4]struct {
		cols  *columns
		cells []extraCell
		m     map[string]string
	}
	next int
}

// extra is the Extra map of cells, made the first time the memo meets them.
func (memo *extrasMemo) extra(c *columns, cells []extraCell) map[string]string {
	for i := range memo.slots {
		if s := &memo.slots[i]; s.cols == c && slices.Equal(s.cells, cells) {
			return s.m
		}
	}
	m := make(map[string]string, len(cells))
	for _, x := range cells {
		m[c.dict[x.key]] = c.dict[x.val]
	}
	s := &memo.slots[memo.next%len(memo.slots)]
	s.cols, s.cells, s.m = c, cells, m
	memo.next++
	return m
}

// fill materializes row into e.
func (c *columns) fill(row int32, e *perflog.Entry, memo *extrasMemo) {
	d, ids := c.dict, &c.col
	e.Time = c.time(row)
	e.System = d[ids[colSystem][row]]
	e.Benchmark = d[ids[colBenchmark][row]]
	e.Partition = d[ids[colPartition][row]]
	e.Environ = d[ids[colEnviron][row]]
	e.Spec = d[ids[colSpec][row]]
	e.Result = d[ids[colResult][row]]
	e.JobID = int(c.job[row])
	foms := c.foms[c.fomAt[row]:c.fomAt[row+1]]
	e.FOMs = make(map[string]fom.Value, len(foms))
	for _, f := range foms {
		name := d[f.name]
		e.FOMs[name] = fom.Value{Name: name, Value: f.value, Unit: d[f.unit]}
	}
	e.Extra = memo.extra(c, c.extras[c.extraAt[row]:c.extraAt[row+1]])
}

// size is what the view keeps resident, in bytes: the capacities of its
// columns, posting lists and time order, and its dictionary's string
// bytes. It is the one accounting of resident rows, for both tiers.
func (v *view) size() int64 {
	c := &v.cols
	n := 8*cap(c.t) + 8*cap(c.seq) + 8*cap(c.job) + 4*cap(c.fomAt) + 4*cap(c.extraAt) +
		16*cap(c.foms) + 8*cap(c.extras) + 24*cap(c.far) + 16*cap(c.dict) + 4*cap(v.byTime)
	for _, ids := range c.col {
		n += 4 * cap(ids)
	}
	for _, s := range c.dict {
		n += len(s)
	}
	for _, list := range v.post {
		n += 4 * cap(list)
	}
	return int64(n)
}

// lastSeen records, per dictionary id, the row that last placed a cell
// under it and where — how a row keeps one cell per FOM name or extra key.
type lastSeen struct {
	row int32 // row+1, so the zero value is no row
	at  uint32
}

// decodeSegment turns a data block into the segment's resident columns
// and posting lists. Every id and length is validated against the block,
// so a corrupt segment yields an error, never a panic or a silently wrong
// segment. No per-row entry, map or string is made: the rows are read in
// two passes, the first filling the fixed columns and checking and
// counting the FOM and extra lists, the second filling those lists into
// slabs the counts sized exactly and bucketing the postings (see
// postingBuilder).
func decodeSegment(h segHeader, data []byte) (*view, error) {
	if uint64(len(data)) != h.DataLen {
		return nil, fmt.Errorf("data block is %d bytes, header says %d", len(data), h.DataLen)
	}
	if crc32.Checksum(data, segCRC) != h.DataCRC {
		return nil, fmt.Errorf("data CRC mismatch")
	}
	// Each row costs at least one byte in every varint column, so a
	// count exceeding the block length is corrupt without further work.
	if uint64(h.Count) > h.DataLen {
		return nil, fmt.Errorf("count %d exceeds data length %d", h.Count, h.DataLen)
	}
	if uint64(len(data)) > math.MaxUint32 {
		return nil, fmt.Errorf("data block of %d bytes exceeds 4 GiB", len(data))
	}
	r := &byteReader{buf: data}
	nDict, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nDict > uint64(len(data)) {
		return nil, fmt.Errorf("dictionary of %d strings exceeds data length", nDict)
	}
	start := r.pos
	for i := uint64(0); i < nDict; i++ {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if _, err := r.bytes(n); err != nil {
			return nil, err
		}
	}
	// One string holds the whole dictionary; its entries are substrings.
	all := string(data[start:r.pos])
	c := &columns{dict: make([]string, nDict), lookup: make(map[string]uint32, nDict)}
	canon := make([]uint32, nDict)
	for i, p := 0, 0; i < len(c.dict); i++ {
		n, w := binary.Uvarint(data[start+p:])
		p += w
		s := all[p : p+int(n)]
		p += int(n)
		c.dict[i] = s
		id, dup := c.lookup[s]
		if !dup {
			id = uint32(i)
			c.lookup[s] = id
		}
		canon[i] = id
	}
	c.empty = c.id("")
	dictID := func() (uint32, error) {
		id, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if id >= uint64(len(canon)) {
			return 0, fmt.Errorf("dictionary id %d out of range (%d strings)", id, len(canon))
		}
		return canon[id], nil
	}

	n := h.Count
	c.t, c.seq, c.job = make([]int64, n), make([]uint64, n), make([]int64, n)
	ids := make([]uint32, numCols*n)
	for k := range c.col {
		c.col[k] = ids[k*n : (k+1)*n : (k+1)*n]
	}
	c.fomAt, c.extraAt = make([]uint32, n+1), make([]uint32, n+1)
	var nFOMs, nExtras uint64
	prevSec := int64(0)
	prevT := int64(math.MinInt64)
	for i := 0; i < n; i++ {
		dsec, err := r.varint()
		if err != nil {
			return nil, err
		}
		sec := prevSec + dsec
		prevSec = sec
		ns, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ns >= 1e9 {
			return nil, fmt.Errorf("row %d: nanoseconds %d out of range", i, ns)
		}
		dseq, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		c.seq[i] = h.MinSeq + dseq
		for k := range c.col {
			if c.col[k][i], err = dictID(); err != nil {
				return nil, err
			}
		}
		if c.job[i], err = r.varint(); err != nil {
			return nil, err
		}
		// The second pass reads the row's lists from here.
		c.fomAt[i] = uint32(r.pos)
		nf, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nf > uint64(len(data)) {
			return nil, fmt.Errorf("row %d: %d FOMs exceeds data length", i, nf)
		}
		for j := uint64(0); j < nf; j++ {
			if _, err := dictID(); err != nil {
				return nil, err
			}
			if _, err := dictID(); err != nil {
				return nil, err
			}
			if _, err := r.bytes(8); err != nil {
				return nil, err
			}
		}
		nx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nx > uint64(len(data)) {
			return nil, fmt.Errorf("row %d: %d extras exceeds data length", i, nx)
		}
		for j := uint64(0); j < 2*nx; j++ {
			if _, err := dictID(); err != nil {
				return nil, err
			}
		}
		nFOMs, nExtras = nFOMs+nf, nExtras+nx
		t := timeNanos(time.Unix(sec, int64(ns)).UTC())
		if t == math.MinInt64 || t == math.MaxInt64 {
			c.far = append(c.far, farTime{int32(i), sec, int32(ns)})
		}
		if t < prevT {
			return nil, fmt.Errorf("row %d: arena not (time, seq)-sorted", i)
		}
		c.t[i], prevT = t, t
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after last row", len(data)-r.pos)
	}

	// Second pass: the first checked every varint and id read here.
	next := func() uint32 {
		v, _ := r.uvarint()
		return uint32(v)
	}
	c.foms = make([]fomCell, 0, nFOMs)
	c.extras = make([]extraCell, 0, nExtras)
	pb := newPostingBuilder(len(c.dict), n, 3*n+int(nFOMs+nExtras))
	seen := make([]lastSeen, 2*len(c.dict)) // FOM names, then extra keys
	fomSeen, extraSeen := seen[:len(c.dict)], seen[len(c.dict):]
	for i := 0; i < n; i++ {
		r.pos = int(c.fomAt[i])
		row := int32(i + 1)
		c.fomAt[i] = uint32(len(c.foms))
		for j := next(); j > 0; j-- {
			f := fomCell{name: canon[next()], unit: canon[next()]}
			f.value = math.Float64frombits(binary.LittleEndian.Uint64(data[r.pos:]))
			r.pos += 8
			if s := &fomSeen[f.name]; s.row == row {
				c.foms[s.at] = f // a name repeated in the row: the last one holds
			} else {
				*s = lastSeen{row, uint32(len(c.foms))}
				c.foms = append(c.foms, f)
			}
		}
		c.extraAt[i] = uint32(len(c.extras))
		for j := next(); j > 0; j-- {
			x := extraCell{key: canon[next()], val: canon[next()]}
			if s := &extraSeen[x.key]; s.row == row {
				c.extras[s.at] = x
			} else {
				*s = lastSeen{row, uint32(len(c.extras))}
				c.extras = append(c.extras, x)
			}
		}
		pb.postSystem(c.col[colSystem][i])
		pb.postBenchmark(c.col[colBenchmark][i])
		if res := c.col[colResult][i]; c.dict[res] != "" {
			pb.postResult(res)
		}
		for _, f := range c.foms[c.fomAt[i]:] {
			pb.postFOM(f.name)
		}
		for _, x := range c.extras[c.extraAt[i]:] {
			pb.postExtra(x.key, x.val)
		}
		pb.endRow()
	}
	c.fomAt[n], c.extraAt[n] = uint32(len(c.foms)), uint32(len(c.extras))
	return &view{cols: *c, post: pb.finish(c.dict)}, nil
}

// segFileName names segment id on disk.
func segFileName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }

// writeSegment seals a row set into dir with atomicfile.Write, the header
// and the body as two chunks: a crash mid-seal leaves at worst an orphan
// .tmp the next Open sweeps away — never a half-written live segment. The
// "perfstore.segwrite" injection point models that crash: it fires before
// any byte of the segment is written. The segment comes back resident in
// the form a load gives it: the block it wrote, decoded. Nothing of the
// source columns stays reachable through it.
func writeSegment(dir string, id uint64, rs *rowSet) (*segment, error) {
	hdr, data := encodeRows(rs)
	name := segFileName(id)
	d, err := decodeSegment(hdr, data)
	if err != nil {
		return nil, fmt.Errorf("perfstore: seal %s: %w", name, err)
	}
	if err := faultinject.Fire("perfstore.segwrite"); err != nil {
		return nil, fmt.Errorf("perfstore: seal %s: %w", name, err)
	}
	if err := atomicfile.Write(filepath.Join(dir, name), marshalHeader(hdr), data); err != nil {
		return nil, fmt.Errorf("perfstore: seal: %w", err)
	}
	c := &d.cols
	g := &segment{dir: dir, data: d, info: SegmentInfo{
		File:    name,
		Count:   hdr.Count,
		Bytes:   int64(segHeaderSize + len(data)),
		MinT:    hdr.MinT,
		MaxT:    hdr.MaxT,
		MinSeq:  hdr.MinSeq,
		MaxSeq:  hdr.MaxSeq,
		Sources: c.distinct(colFile),
		Systems: c.distinct(colSystem),
	}}
	g.resident.Store(d.size())
	return g, nil
}

// distinct is the sorted strings column k holds, nil when it holds none.
func (c *columns) distinct(k int) []string {
	seen := make([]bool, len(c.dict))
	var out []string
	for _, id := range c.col[k] {
		if !seen[id] {
			seen[id] = true
			out = append(out, c.dict[id])
		}
	}
	sort.Strings(out)
	return out
}

// readSegmentHeader reads and validates only the fixed-size header —
// the unit of O(headers) boot.
func readSegmentHeader(path string) (segHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return segHeader{}, err
	}
	defer f.Close()
	buf := make([]byte, segHeaderSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return segHeader{}, fmt.Errorf("read header: %w", err)
	}
	return unmarshalHeader(buf)
}

// segment is one sealed segment handle: zone map from the manifest,
// data block loaded lazily on the first query that survives pruning.
type segment struct {
	dir  string
	info SegmentInfo

	mu   sync.Mutex
	data *view // columns, in (time, seq) order as sealed

	// resident is data's size in bytes once it is in memory (view.size),
	// readable without waiting for a load in progress.
	resident atomic.Int64
}

// segLoadPolicy absorbs transient read hiccups (NFS wobble, injected
// faults) before a load failure is surfaced.
var segLoadPolicy = retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// load decodes the segment's data block, once; later calls return the
// resident columns. The "perfstore.segload" injection point models the
// read failing.
func (g *segment) load() (*view, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.data != nil {
		return g.data, nil
	}
	var d *view
	err := segLoadPolicy.Do(context.Background(), "perfstore.segload", func(context.Context, int) error {
		if err := faultinject.Fire("perfstore.segload"); err != nil {
			return err
		}
		path := filepath.Join(g.dir, g.info.File)
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if len(raw) < segHeaderSize {
			return fmt.Errorf("segment %s truncated (%d bytes)", g.info.File, len(raw))
		}
		hdr, err := unmarshalHeader(raw[:segHeaderSize])
		if err != nil {
			return fmt.Errorf("segment %s: %w", g.info.File, err)
		}
		d, err = decodeSegment(hdr, raw[segHeaderSize:])
		if err != nil {
			return fmt.Errorf("segment %s: %w", g.info.File, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	metricSegmentLoads.Inc()
	g.data = d
	g.resident.Store(d.size())
	return d, nil
}
