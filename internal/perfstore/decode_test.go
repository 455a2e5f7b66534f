package perfstore

import (
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
	slices.SortFunc(ents, func(a, b stored) int {
		return cmpHits(hit{a.entry, a.t, a.seq}, hit{b.entry, b.t, b.seq})
	})
	return ents
}

// TestSegmentDecodeMatchesReference: for random arenas the decoder must
// give back the very entries that were encoded, and the posting lists
// the encoder and the decoder bucket by dictionary id must both be the
// ones buildPostings derives from the arena.
func TestSegmentDecodeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ents := randArena(rng, rng.Intn(300))
		hdr, data, post := encodeSegment(ents)
		d, err := decodeSegment(hdr, data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(d.entries) != len(ents) {
			t.Fatalf("seed %d: decoded %d of %d entries", seed, len(d.entries), len(ents))
		}
		for i := range ents {
			want, got := ents[i], d.entries[i]
			if !reflect.DeepEqual(want.entry, got.entry) {
				t.Fatalf("seed %d row %d:\nwant %#v\ngot  %#v", seed, i, want.entry, got.entry)
			}
			if want.t != got.t || want.seq != got.seq || want.file != got.file {
				t.Fatalf("seed %d row %d: slot (%d,%d,%q) -> (%d,%d,%q)",
					seed, i, want.t, want.seq, want.file, got.t, got.seq, got.file)
			}
		}
		want := buildPostings(ents)
		if !reflect.DeepEqual(want, d.post) {
			t.Fatalf("seed %d: decoded postings diverge from buildPostings\nwant %v\ngot  %v", seed, want, d.post)
		}
		if !reflect.DeepEqual(want, post) {
			t.Fatalf("seed %d: encoded postings diverge from buildPostings\nwant %v\ngot  %v", seed, want, post)
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
// key twice, is not something encodeSegment writes, but it decodes —
// and then its postings must still be the reference's: one list per
// key string, rows in order, a row posted under the value its map
// ended up holding.
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
	}
	hdr, data := rawBlock(dict, rows)
	d, err := decodeSegment(hdr, data)
	if err != nil {
		t.Fatal(err)
	}
	if want := buildPostings(d.entries); !reflect.DeepEqual(want, d.post) {
		t.Fatalf("postings diverge from buildPostings\nwant %v\ngot  %v", want, d.post)
	}
	for key, want := range map[string][]int32{
		keySystem("archer2"): {0, 1, 2, 3, 4},
		keyBenchmark("hpcg"): {0, 1, 2, 3, 4},
		keyResult("pass"):    {0, 1, 3, 4},
		keyFOM("l0"):         {0, 1, 2, 3},
		keyExtra("k", "v1"):  {0, 1, 3},
		keyExtra("k", "v2"):  {2},
	} {
		if got := d.post[key]; !slices.Equal(got, want) {
			t.Errorf("post[%q] = %v, want %v", key, got, want)
		}
	}
}
