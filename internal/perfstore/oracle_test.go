package perfstore

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"sort"

	"repro/internal/fom"
	"repro/internal/perflog"
)

// The entry-per-row form the store kept before both tiers held columns,
// kept as the oracle the columns are tested against: a row as a
// perflog.Entry with its source file and ordering key, the encoder that
// wrote a segment from such rows, and the predicates that read them.

// stored is one row as an entry: the entry, its source file, and its
// (time, seq) ordering key.
type stored struct {
	entry *perflog.Entry
	file  string
	t     int64
	seq   uint64
}

// cmpStored orders rows by (time, seq).
func cmpStored(a, b stored) int { return cmpOrder(a.t, a.seq, b.t, b.seq) }

// arena materializes every row not ingested from the file whose
// dictionary id is drop (noID drops nothing), its entries in one slab.
func (c *columns) arena(drop uint32) []stored {
	slab := make([]perflog.Entry, len(c.t))
	out := make([]stored, 0, len(c.t))
	var memo extrasMemo
	for row := range c.t {
		file := c.col[colFile][row]
		if file == drop {
			continue
		}
		e := &slab[row]
		c.fill(int32(row), e, &memo)
		out = append(out, stored{entry: e, file: c.dict[file], t: c.t[row], seq: c.seq[row]})
	}
	return out
}

// columnsOf appends an arena's rows, in its order, to new head columns.
func columnsOf(arena []stored) *columns {
	var sh shard
	sh.reset()
	for _, st := range arena {
		sh.appendLocked([]*perflog.Entry{st.entry}, st.file, st.seq)
	}
	return &sh.cols
}

// allRows is every row of c, in row order.
func allRows(c *columns) *rowSet {
	rs := &rowSet{}
	rs.add(c, nil, noID)
	return rs
}

// writeSegmentFile seals a (t, seq)-sorted arena through the column
// encoder: its rows are appended to head columns, which writeSegment
// encodes.
func writeSegmentFile(dir string, id uint64, arena []stored) (*segment, error) {
	return writeSegment(dir, id, allRows(columnsOf(arena)))
}

// encodeSegment is the encoder a seal ran while rows were entries: it
// renders a (t, seq)-sorted arena into header + data block bytes, reading
// each entry's maps in sorted key order. encodeRows must write the same
// bytes.
func encodeSegment(entries []stored) (segHeader, []byte) {
	ids := map[string]uint64{}
	var strs []string
	id := func(s string) uint64 {
		if id, ok := ids[s]; ok {
			return id
		}
		ids[s] = uint64(len(strs))
		strs = append(strs, s)
		return ids[s]
	}
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
		for _, s := range [numCols]string{st.file, e.System, e.Benchmark, e.Partition, e.Environ, e.Spec, e.Result} {
			put(id(s))
		}
		puts(int64(e.JobID))
		put(uint64(len(e.FOMs)))
		for _, name := range sortedKeys(e.FOMs) {
			v := e.FOMs[name]
			put(id(name))
			put(id(v.Unit))
			cols = binary.LittleEndian.AppendUint64(cols, math.Float64bits(v.Value))
		}
		put(uint64(len(e.Extra)))
		for _, k := range sortedKeys(e.Extra) {
			put(id(k))
			put(id(e.Extra[k]))
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

func sortedKeys[V fom.Value | string](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// matchEntry is the full per-entry equality predicate the scan checked
// while rows were entries: the contract leg.match is property-tested
// against. The Since window is filtered separately through the ordering
// key (matcher.sinceNano).
func (m *matcher) matchEntry(e *perflog.Entry) bool {
	q := &m.q
	if q.System != "" && e.System != q.System {
		return false
	}
	if q.Benchmark != "" && e.Benchmark != q.Benchmark {
		return false
	}
	if q.Result != "" && e.Result != q.Result {
		return false
	}
	if q.FOM != "" {
		if _, ok := e.FOMs[q.FOM]; !ok {
			return false
		}
	}
	for _, kv := range m.extras {
		if e.Extra[kv.k] != kv.v {
			return false
		}
	}
	return true
}

// entryField is field f of e.
func entryField(e *perflog.Entry, f groupField) string {
	switch f.col {
	case colSystem:
		return e.System
	case colBenchmark:
		return e.Benchmark
	case colPartition:
		return e.Partition
	case colEnviron:
		return e.Environ
	case colSpec:
		return e.Spec
	case colResult:
		return e.Result
	}
	return e.Extra[f.name]
}
