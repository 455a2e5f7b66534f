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
	"sort"
	"sync"
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

// dictBuilder interns strings into a per-segment dictionary.
type dictBuilder struct {
	ids  map[string]uint64
	strs []string
}

func (d *dictBuilder) id(s string) uint64 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := uint64(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// encodeSegment renders a (t, seq)-sorted arena into header + data
// block bytes, and buckets the arena's posting lists by dictionary id as
// it hands the ids out — the lists a decode of the block yields.
func encodeSegment(entries []stored) (segHeader, []byte, map[string][]int32) {
	dict := &dictBuilder{ids: map[string]uint64{}}
	pb := newPostingBuilder(0, len(entries))
	var cols []byte
	put := func(v uint64) { cols = binary.AppendUvarint(cols, v) }
	puts := func(v int64) { cols = binary.AppendVarint(cols, v) }

	hdr := segHeader{Count: len(entries), MinT: math.MaxInt64, MaxT: math.MinInt64, MinSeq: math.MaxUint64}
	for i := range entries {
		st := &entries[i]
		hdr.MinT = min(hdr.MinT, st.t)
		hdr.MaxT = max(hdr.MaxT, st.t)
		hdr.MinSeq = min(hdr.MinSeq, st.seq)
		hdr.MaxSeq = max(hdr.MaxSeq, st.seq)
	}
	if len(entries) == 0 {
		hdr.MinT, hdr.MaxT, hdr.MinSeq, hdr.MaxSeq = 0, 0, 0, 0
	}
	prevSec := int64(0)
	for i := range entries {
		st := &entries[i]
		e := st.entry
		sec := e.Time.Unix()
		puts(sec - prevSec)
		prevSec = sec
		put(uint64(e.Time.Nanosecond()))
		put(st.seq - hdr.MinSeq)
		put(dict.id(st.file))
		sys, bench := dict.id(e.System), dict.id(e.Benchmark)
		put(sys)
		put(bench)
		pb.postSystem(sys)
		pb.postBenchmark(bench)
		put(dict.id(e.Partition))
		put(dict.id(e.Environ))
		put(dict.id(e.Spec))
		res := dict.id(e.Result)
		put(res)
		if e.Result != "" {
			pb.postResult(res)
		}
		puts(int64(e.JobID))
		put(uint64(len(e.FOMs)))
		for _, name := range sortedFOMNames(e.FOMs) {
			v := e.FOMs[name]
			id := dict.id(name)
			put(id)
			put(dict.id(v.Unit))
			cols = binary.LittleEndian.AppendUint64(cols, math.Float64bits(v.Value))
			pb.postFOM(id)
		}
		put(uint64(len(e.Extra)))
		for _, k := range sortedExtraKeys(e.Extra) {
			kid, vid := dict.id(k), dict.id(e.Extra[k])
			put(kid)
			put(vid)
			pb.postExtra(kid, vid)
		}
		pb.endRow()
	}

	data := binary.AppendUvarint(nil, uint64(len(dict.strs)))
	for _, s := range dict.strs {
		data = binary.AppendUvarint(data, uint64(len(s)))
		data = append(data, s...)
	}
	data = append(data, cols...)
	hdr.DataLen = uint64(len(data))
	hdr.DataCRC = crc32.Checksum(data, segCRC)
	return hdr, data, pb.finish(dict.strs)
}

func sortedFOMNames(m map[string]fom.Value) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func sortedExtraKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
// encodes or decodes, so neither path concatenates or hashes a posting
// key per row: a posting is one table or integer-map probe, each key
// string is built once per distinct id, and every list is carved out of
// one shared slab. finish yields exactly what the per-row key build in
// ref_test.go computes from the arena.
type postingBuilder struct {
	// system, benchmark, result and FOM-name postings are keyed by one
	// dictionary id: dense id → bucket+1 tables, grown as the encoder
	// hands out ids. Extras are keyed by a (key id, value id) pair.
	system, benchmark, result, fom []int32
	extra                          map[[2]uint64]int32
	buckets                        []postingBucket
	refs                           []int32 // bucket of every posting, in row order
	rowEnd                         []int32 // len(refs) after each row
}

// postingBucket is one posting list in the making: which key it will
// carry (a kind byte as in the key* functions, and the dictionary ids of
// its value) and how many rows it holds.
type postingBucket struct {
	kind byte
	a, b uint64
	n    int32
}

// newPostingBuilder sizes the id tables for a dictionary of ids strings.
func newPostingBuilder(ids, rows int) *postingBuilder {
	tables := make([]int32, 4*ids)
	return &postingBuilder{
		system:    tables[:ids:ids],
		benchmark: tables[ids : 2*ids : 2*ids],
		result:    tables[2*ids : 3*ids : 3*ids],
		fom:       tables[3*ids:],
		extra:     map[[2]uint64]int32{},
		rowEnd:    make([]int32, 0, rows),
	}
}

// post records the current row under the bucket *slot names, creating
// the bucket on first use.
func (pb *postingBuilder) post(slot *int32, kind byte, a, b uint64) {
	if *slot == 0 {
		pb.buckets = append(pb.buckets, postingBucket{kind: kind, a: a, b: b})
		*slot = int32(len(pb.buckets))
	}
	pb.buckets[*slot-1].n++
	pb.refs = append(pb.refs, *slot-1)
}

// idSlot is table's slot for id, growing the table to an id the encoder
// just handed out.
func idSlot(table *[]int32, id uint64) *int32 {
	for uint64(len(*table)) <= id {
		*table = append(*table, 0)
	}
	return &(*table)[id]
}

func (pb *postingBuilder) postSystem(id uint64)    { pb.post(idSlot(&pb.system, id), 's', id, 0) }
func (pb *postingBuilder) postBenchmark(id uint64) { pb.post(idSlot(&pb.benchmark, id), 'b', id, 0) }
func (pb *postingBuilder) postResult(id uint64)    { pb.post(idSlot(&pb.result, id), 'r', id, 0) }
func (pb *postingBuilder) postFOM(id uint64)       { pb.post(idSlot(&pb.fom, id), 'f', id, 0) }

func (pb *postingBuilder) postExtra(k, v uint64) {
	slot := pb.extra[[2]uint64{k, v}]
	known := slot != 0
	pb.post(&slot, 'x', k, v)
	if !known {
		pb.extra[[2]uint64{k, v}] = slot
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
// each, since rows were posted in order) and names them. A dictionary
// that repeats a string under two ids — the encoder never writes one —
// gives two buckets one key; their lists merge in row order.
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

// lastOf reports whether no later element of ids (taken every stride)
// names the same string as ids[j] — the occurrence a map filled in
// order ends up holding.
func lastOf(dict []string, ids []uint64, j, stride int) bool {
	for l := j + stride; l < len(ids); l += stride {
		if dict[ids[l]] == dict[ids[j]] {
			return false
		}
	}
	return true
}

// decodeSegment rebuilds the arena from a data block. Every id and
// length is validated against the block, so a corrupt segment yields an
// error, never a panic or a silently wrong arena. The entries live in
// one slab per segment and the posting lists are bucketed as the rows
// decode (see postingBuilder), so a load costs a handful of allocations
// per row rather than dozens.
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
	r := &byteReader{buf: data}
	nDict, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nDict > uint64(len(data)) {
		return nil, fmt.Errorf("dictionary of %d strings exceeds data length", nDict)
	}
	dict := make([]string, nDict)
	for i := range dict {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		b, err := r.bytes(n)
		if err != nil {
			return nil, err
		}
		dict[i] = string(b)
	}
	dictID := func() (uint64, error) {
		id, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if id >= uint64(len(dict)) {
			return 0, fmt.Errorf("dictionary id %d out of range (%d strings)", id, len(dict))
		}
		return id, nil
	}
	str := func() (string, error) {
		id, err := dictID()
		if err != nil {
			return "", err
		}
		return dict[id], nil
	}

	slab := make([]perflog.Entry, h.Count)
	d := &view{entries: make([]stored, h.Count)}
	pb := newPostingBuilder(len(dict), h.Count)
	var ids []uint64 // the row's FOM-name ids, then its extra (key, value) id pairs
	prevSec := int64(0)
	prevT := int64(math.MinInt64)
	for i := 0; i < h.Count; i++ {
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
		e := &slab[i]
		e.Time = time.Unix(sec, int64(ns)).UTC()
		st := &d.entries[i]
		st.entry, st.seq = e, h.MinSeq+dseq
		if st.file, err = str(); err != nil {
			return nil, err
		}
		sysID, err := dictID()
		if err != nil {
			return nil, err
		}
		e.System = dict[sysID]
		pb.postSystem(sysID)
		benchID, err := dictID()
		if err != nil {
			return nil, err
		}
		e.Benchmark = dict[benchID]
		pb.postBenchmark(benchID)
		if e.Partition, err = str(); err != nil {
			return nil, err
		}
		if e.Environ, err = str(); err != nil {
			return nil, err
		}
		if e.Spec, err = str(); err != nil {
			return nil, err
		}
		resID, err := dictID()
		if err != nil {
			return nil, err
		}
		if e.Result = dict[resID]; e.Result != "" {
			pb.postResult(resID)
		}
		job, err := r.varint()
		if err != nil {
			return nil, err
		}
		e.JobID = int(job)
		nf, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nf > uint64(len(data)) {
			return nil, fmt.Errorf("row %d: %d FOMs exceeds data length", i, nf)
		}
		// The map hints are capped by what the rest of the block could
		// hold (a FOM is at least 10 bytes, an extra 2), so a corrupt
		// count cannot size an allocation beyond the block itself.
		e.FOMs = make(map[string]fom.Value, min(nf, uint64(len(data)-r.pos)/10))
		ids = ids[:0]
		for j := uint64(0); j < nf; j++ {
			nameID, err := dictID()
			if err != nil {
				return nil, err
			}
			unit, err := str()
			if err != nil {
				return nil, err
			}
			b, err := r.bytes(8)
			if err != nil {
				return nil, err
			}
			name := dict[nameID]
			e.FOMs[name] = fom.Value{Name: name, Value: math.Float64frombits(binary.LittleEndian.Uint64(b)), Unit: unit}
			ids = append(ids, nameID)
		}
		// A row that names one FOM (or extra key) twice holds only the
		// last occurrence in its map; only that one is posted.
		distinct := len(e.FOMs) == len(ids)
		for j, nameID := range ids {
			if distinct || lastOf(dict, ids, j, 1) {
				pb.postFOM(nameID)
			}
		}
		nx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nx > uint64(len(data)) {
			return nil, fmt.Errorf("row %d: %d extras exceeds data length", i, nx)
		}
		e.Extra = make(map[string]string, min(nx, uint64(len(data)-r.pos)/2))
		ids = ids[:0]
		for j := uint64(0); j < nx; j++ {
			k, err := dictID()
			if err != nil {
				return nil, err
			}
			v, err := dictID()
			if err != nil {
				return nil, err
			}
			e.Extra[dict[k]] = dict[v]
			ids = append(ids, k, v)
		}
		distinct = 2*len(e.Extra) == len(ids)
		for j := 0; j < len(ids); j += 2 {
			if distinct || lastOf(dict, ids, j, 2) {
				pb.postExtra(ids[j], ids[j+1])
			}
		}
		pb.endRow()
		st.t = timeNanos(e.Time)
		if st.t < prevT {
			return nil, fmt.Errorf("row %d: arena not (time, seq)-sorted", i)
		}
		prevT = st.t
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after last row", len(data)-r.pos)
	}
	d.post = pb.finish(dict)
	return d, nil
}

// segFileName names segment id on disk.
func segFileName(id uint64) string { return fmt.Sprintf("seg-%08d.seg", id) }

// writeSegmentFile seals an arena into dir with atomicfile.Write, the
// header and the body as two chunks: a crash mid-seal leaves at worst an
// orphan .tmp the next Open sweeps away — never a half-written live
// segment. The "perfstore.segwrite" injection point models that crash:
// it fires before any byte of the segment is written. The segment comes
// back resident: its arena is entries itself, same *perflog.Entry
// pointers, with the postings the encoder built.
func writeSegmentFile(dir string, id uint64, entries []stored) (*segment, error) {
	hdr, data, post := encodeSegment(entries)
	name := segFileName(id)
	if err := faultinject.Fire("perfstore.segwrite"); err != nil {
		return nil, fmt.Errorf("perfstore: seal %s: %w", name, err)
	}
	if err := atomicfile.Write(filepath.Join(dir, name), marshalHeader(hdr), data); err != nil {
		return nil, fmt.Errorf("perfstore: seal: %w", err)
	}

	info := SegmentInfo{
		File:   name,
		Count:  hdr.Count,
		Bytes:  int64(segHeaderSize + len(data)),
		MinT:   hdr.MinT,
		MaxT:   hdr.MaxT,
		MinSeq: hdr.MinSeq,
		MaxSeq: hdr.MaxSeq,
	}
	files := map[string]bool{}
	systems := map[string]bool{}
	for i := range entries {
		files[entries[i].file] = true
		systems[entries[i].entry.System] = true
	}
	for fp := range files {
		info.Sources = append(info.Sources, fp)
	}
	sort.Strings(info.Sources)
	for sys := range systems {
		info.Systems = append(info.Systems, sys)
	}
	sort.Strings(info.Systems)
	return &segment{dir: dir, info: info, data: &view{entries: entries, post: post}}, nil
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
	data *view // byTime nil: the arena is (time, seq)-sorted as sealed
}

// segLoadPolicy absorbs transient read hiccups (NFS wobble, injected
// faults) before a load failure is surfaced.
var segLoadPolicy = retry.Policy{MaxAttempts: 3, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond}

// load decodes the segment's data block, once; later calls return the
// resident arena. The "perfstore.segload" injection point models the
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
	return d, nil
}
