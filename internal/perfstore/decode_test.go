package perfstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
)

// randArena draws a (t, seq)-sorted arena from small vocabularies, so
// FOM names and extra keys and values repeat across rows, and includes
// the shapes the decoder sizes and posts specially: no result, no FOMs,
// no extras, several sources.
func randArena(rng *rand.Rand, n int) []stored {
	pick := func(vocab ...string) string { return vocab[rng.Intn(len(vocab))] }
	ents := make([]stored, 0, n)
	for i := 0; i < n; i++ {
		e := &perflog.Entry{
			Time:      t0.Add(time.Duration(rng.Intn(40))*time.Minute + time.Duration(rng.Intn(3))*time.Nanosecond),
			Benchmark: pick("hpgmg-fv", "hpcg", "babelstream-omp"),
			System:    pick("archer2", "csd3", "cosma8"),
			Partition: pick("compute", ""),
			Environ:   pick("gcc", "oneapi"),
			Spec:      pick("hpgmg%gcc", "hpcg%oneapi", ""),
			JobID:     rng.Intn(1000) - 5,
			Result:    pick("pass", "fail", ""),
			FOMs:      map[string]fom.Value{},
			Extra:     map[string]string{},
		}
		for j := rng.Intn(4); j > 0; j-- {
			name := pick("l0", "l1", "l2", "triad_mbps")
			e.FOMs[name] = fom.Value{Name: name, Value: rng.NormFloat64(), Unit: pick("MDOF/s", "MB/s", "")}
		}
		// Up to 12 extras: past 8 a Go map outgrows its first group, the
		// case the per-row size hint exists for.
		for j := rng.Intn(13); j > 0; j-- {
			e.Extra[pick("num_tasks", "gpu", "build_hash", "pass", "l0")+fmt.Sprint(rng.Intn(3))] = pick("8", "16", "v100", "pass", "")
		}
		ents = append(ents, stored{
			entry: e, file: pick("a/x.log", "b/y.log"), t: timeNanos(e.Time), seq: uint64(100 + i),
		})
	}
	slices.SortFunc(ents, cmpStored)
	return ents
}

// checkDecode decodes a block with decodeSegment and with the reference
// decoder, and fails unless both accept it or both refuse it and, when
// they accept it, every materialized row is deeply equal to the
// reference's entry (a NaN FOM equal to itself), with the same ordering
// key and source file, the postings are the ones buildPostings derives
// from the reference arena, and encodeRows re-encodes the columns into
// the bytes encodeSegment writes for the reference arena.
// It returns the decoded view and the reference arena.
func checkDecode(t testing.TB, hdr segHeader, data []byte) (*view, []stored) {
	t.Helper()
	d, err := decodeSegment(hdr, data)
	ref, refErr := decodeEntriesRef(hdr, data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("decoder and reference disagree: err %v, reference err %v", err, refErr)
	}
	if err != nil {
		return nil, nil
	}
	got := d.cols.arena(noID)
	if len(got) != len(ref) || d.rows() != len(ref) {
		t.Fatalf("decoded %d rows (%d materialized), reference %d", d.rows(), len(got), len(ref))
	}
	for i := range ref {
		want, got := ref[i], got[i]
		// Deep equality, with FOM values compared bit for bit: a fuzzed
		// block can hold a NaN.
		if !reflect.DeepEqual(want.entry.Time, got.entry.Time) || !sameEntry(want.entry, got.entry) {
			t.Fatalf("row %d:\nwant %#v\ngot  %#v", i, want.entry, got.entry)
		}
		if want.t != got.t || want.seq != got.seq || want.file != got.file {
			t.Fatalf("row %d: slot (%d,%d,%q) -> (%d,%d,%q)", i, want.t, want.seq, want.file, got.t, got.seq, got.file)
		}
	}
	if want := buildPostings(ref); !reflect.DeepEqual(want, d.post) {
		t.Fatalf("decoded postings diverge from buildPostings\nwant %v\ngot  %v", want, d.post)
	}
	// Re-encoding the columns writes what the entry encoder writes for
	// the reference's rows, whatever order or repeats the block held.
	wantHdr, wantData := encodeSegment(ref)
	if gotHdr, gotData := encodeRows(allRows(&d.cols)); gotHdr != wantHdr || !bytes.Equal(gotData, wantData) {
		t.Fatalf("column encoder diverges from the entry encoder: header %+v, want %+v", gotHdr, wantHdr)
	}
	return d, ref
}

// TestSegmentDecodeMatchesReference: for random arenas the decoder must
// give back the very entries that were encoded, as the reference decoder
// does, with the posting lists buildPostings derives from them.
func TestSegmentDecodeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ents := randArena(rng, rng.Intn(300))
		hdr, data := encodeSegment(ents)
		_, ref := checkDecode(t, hdr, data)
		for i := range ents {
			if !reflect.DeepEqual(ents[i].entry, ref[i].entry) {
				t.Fatalf("seed %d row %d:\nwant %#v\ngot  %#v", seed, i, ents[i].entry, ref[i].entry)
			}
		}
	}
}

// rawRow is one segment row spelled in dictionary ids, for blocks the
// encoder would never write. Partition, environ and spec are id 0.
type rawRow struct {
	sec                             int64
	file, system, benchmark, result uint64
	foms                            [][2]uint64 // name id, unit id
	extras                          [][2]uint64 // key id, value id
}

func rawBlock(dict []string, rows []rawRow) (segHeader, []byte) {
	data := binary.AppendUvarint(nil, uint64(len(dict)))
	for _, s := range dict {
		data = binary.AppendUvarint(data, uint64(len(s)))
		data = append(data, s...)
	}
	prev := int64(0)
	for i, r := range rows {
		data = binary.AppendVarint(data, r.sec-prev)
		prev = r.sec
		data = binary.AppendUvarint(data, 0)         // nanos
		data = binary.AppendUvarint(data, uint64(i)) // seq offset
		for _, id := range []uint64{r.file, r.system, r.benchmark, 0, 0, 0, r.result} {
			data = binary.AppendUvarint(data, id)
		}
		data = binary.AppendVarint(data, int64(i)) // job
		data = binary.AppendUvarint(data, uint64(len(r.foms)))
		for _, f := range r.foms {
			data = binary.AppendUvarint(data, f[0])
			data = binary.AppendUvarint(data, f[1])
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(float64(i)))
		}
		data = binary.AppendUvarint(data, uint64(len(r.extras)))
		for _, x := range r.extras {
			data = binary.AppendUvarint(data, x[0])
			data = binary.AppendUvarint(data, x[1])
		}
	}
	return segHeader{
		Count: len(rows), MinSeq: 1, MaxSeq: uint64(len(rows)),
		DataLen: uint64(len(data)), DataCRC: crc32.Checksum(data, segCRC),
	}, data
}

// TestSegmentDecodeRepeatedDictionaryStrings: a block whose dictionary
// holds one string under two ids, and whose rows name one FOM or extra
// key twice or list them out of name order, is not something
// encodeSegment writes, but it decodes —
// and then its rows must still be the reference's, the last occurrence
// of a name holding, and its postings the reference's: one list per key
// string, rows in order, a row posted under the value its map ended up
// holding.
func TestSegmentDecodeRepeatedDictionaryStrings(t *testing.T) {
	dict := []string{
		0: "", 1: "f.log", 2: "archer2", 3: "archer2", 4: "hpcg", 5: "hpcg",
		6: "pass", 7: "pass", 8: "l0", 9: "l0", 10: "u", 11: "k", 12: "k", 13: "v1", 14: "v2", 15: "v1",
	}
	rows := []rawRow{
		{sec: 10, file: 1, system: 2, benchmark: 4, result: 6, foms: [][2]uint64{{8, 10}}, extras: [][2]uint64{{11, 13}}},
		{sec: 11, file: 1, system: 3, benchmark: 5, result: 7, foms: [][2]uint64{{9, 10}}, extras: [][2]uint64{{12, 15}}},
		{sec: 12, file: 1, system: 2, benchmark: 5, result: 0, foms: [][2]uint64{{8, 10}, {9, 10}}, extras: [][2]uint64{{11, 13}, {12, 14}}},
		{sec: 13, file: 1, system: 3, benchmark: 4, result: 6, foms: [][2]uint64{{9, 10}, {9, 10}}, extras: [][2]uint64{{12, 14}, {11, 13}, {11, 13}}},
		{sec: 14, file: 1, system: 2, benchmark: 4, result: 7},
		{sec: 15, file: 1, system: 3, benchmark: 5, result: 6, foms: [][2]uint64{{10, 10}, {8, 10}}, extras: [][2]uint64{{10, 13}, {11, 13}}},
	}
	hdr, data := rawBlock(dict, rows)
	d, ref := checkDecode(t, hdr, data)
	if d == nil {
		t.Fatal("block refused")
	}
	if got := ref[2].entry.Extra["k"]; got != "v2" {
		t.Fatalf("row 2 holds k=%q, want the last occurrence, v2", got)
	}
	if sys := d.cols.col[colSystem]; sys[0] != sys[1] {
		t.Fatalf("archer2 decoded under ids %d and %d, want one canonical id", sys[0], sys[1])
	}
	for key, want := range map[string][]int32{
		keySystem("archer2"): {0, 1, 2, 3, 4, 5},
		keyBenchmark("hpcg"): {0, 1, 2, 3, 4, 5},
		keyResult("pass"):    {0, 1, 3, 4, 5},
		keyFOM("l0"):         {0, 1, 2, 3, 5},
		keyFOM("u"):          {5},
		keyExtra("k", "v1"):  {0, 1, 3, 5},
		keyExtra("k", "v2"):  {2},
		keyExtra("u", "v1"):  {5},
	} {
		if got := d.post[key]; !slices.Equal(got, want) {
			t.Errorf("post[%q] = %v, want %v", key, got, want)
		}
	}
}

// decodeEntriesRef is the decoder a segment load ran before sealed
// segments stayed in columns, kept as the oracle decodeSegment is tested
// against: it rebuilds the arena, one perflog.Entry with two maps per
// row, and makes the same checks.
func decodeEntriesRef(h segHeader, data []byte) ([]stored, error) {
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
	arena := make([]stored, h.Count)
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
		st := &arena[i]
		st.entry, st.seq = e, h.MinSeq+dseq
		if st.file, err = str(); err != nil {
			return nil, err
		}
		if e.System, err = str(); err != nil {
			return nil, err
		}
		if e.Benchmark, err = str(); err != nil {
			return nil, err
		}
		if e.Partition, err = str(); err != nil {
			return nil, err
		}
		if e.Environ, err = str(); err != nil {
			return nil, err
		}
		if e.Spec, err = str(); err != nil {
			return nil, err
		}
		if e.Result, err = str(); err != nil {
			return nil, err
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
		for j := uint64(0); j < nf; j++ {
			name, err := str()
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
			e.FOMs[name] = fom.Value{Name: name, Value: math.Float64frombits(binary.LittleEndian.Uint64(b)), Unit: unit}
		}
		nx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if nx > uint64(len(data)) {
			return nil, fmt.Errorf("row %d: %d extras exceeds data length", i, nx)
		}
		e.Extra = make(map[string]string, min(nx, uint64(len(data)-r.pos)/2))
		for j := uint64(0); j < nx; j++ {
			k, err := str()
			if err != nil {
				return nil, err
			}
			v, err := str()
			if err != nil {
				return nil, err
			}
			e.Extra[k] = v
		}
		st.t = timeNanos(e.Time)
		if st.t < prevT {
			return nil, fmt.Errorf("row %d: arena not (time, seq)-sorted", i)
		}
		prevT = st.t
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%d trailing bytes after last row", len(data)-r.pos)
	}
	return arena, nil
}
