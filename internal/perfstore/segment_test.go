package perfstore

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// sortedStored renders n random entries as a (t, seq)-sorted arena —
// the precondition every segment encoder call site establishes.
func sortedStored(seed int64, n int) []stored {
	rng := rand.New(rand.NewSource(seed))
	ents := make([]stored, 0, n)
	for i := 0; i < n; i++ {
		e := randEntry(rng, i)
		ents = append(ents, stored{entry: e, file: "mem.log", t: timeNanos(e.Time), seq: uint64(i + 1)})
	}
	slices.SortFunc(ents, cmpStored)
	return ents
}

// TestSegmentRoundTrip: encode → decode must reproduce every entry
// byte-identically (via the canonical perflog line) along with its
// ordering key, sequence, and source file.
func TestSegmentRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500} {
		ents := sortedStored(int64(n)+1, n)
		hdr, data := encodeSegment(ents)
		if hdr.Count != n {
			t.Fatalf("n=%d: header count %d", n, hdr.Count)
		}
		d, _ := checkDecode(t, hdr, data)
		if d == nil {
			t.Fatalf("n=%d: block refused", n)
		}
		got := d.cols.arena(noID)
		for i := range ents {
			want, got := ents[i], got[i]
			if want.entry.Line() != got.entry.Line() {
				t.Fatalf("n=%d row %d: line diverged\nwant %s\ngot  %s", n, i, want.entry.Line(), got.entry.Line())
			}
			if !want.entry.Time.Equal(got.entry.Time) {
				t.Fatalf("n=%d row %d: time %v -> %v", n, i, want.entry.Time, got.entry.Time)
			}
			if want.t != got.t || want.seq != got.seq || want.file != got.file {
				t.Fatalf("n=%d row %d: ordering key diverged: (%d,%d,%q) -> (%d,%d,%q)",
					n, i, want.t, want.seq, want.file, got.t, got.seq, got.file)
			}
		}
	}
}

// TestSealOutputUnchanged pins the PSG1 v1 bytes a seal writes: three
// arenas — the end-to-end benchmark's layout (windowArena), random rows
// with repeated names, empty results and no FOMs or extras (randArena),
// and randEntry rows — sealed into files whose SHA-256 is what the
// encoder wrote before segments stayed in columns in memory. Whatever
// the resident form, the segment format does not move.
func TestSealOutputUnchanged(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range []struct {
		arena []stored
		sum   string
	}{
		{windowArena(5000), "4fc18402892d121fb78c5845edf6393e4048553876b1b46ad89c6f2b6963024d"},
		{randArena(rand.New(rand.NewSource(7)), 500), "30e0337522a9a41cfe3d7cc8b52a3fd2c308f58b0d6f04b7a549850347b99dce"},
		{sortedStored(9, 300), "0939143a12bb993aad21a1227a21b281a30fae8e0890beca062d09984e7a341e"},
	} {
		g, err := writeSegmentFile(dir, uint64(i+1), tc.arena)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, g.info.File))
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(raw)); sum != tc.sum {
			t.Errorf("arena %d: sealed file has SHA-256 %s, want %s", i, sum, tc.sum)
		}
	}
}

// TestSegmentHeaderRoundTrip pins the fixed header codec, including
// CRC rejection of corruption in any byte.
func TestSegmentHeaderRoundTrip(t *testing.T) {
	h := segHeader{Count: 42, MinT: -5, MaxT: 1e18, MinSeq: 7, MaxSeq: 99, DataLen: 12345, DataCRC: 0xdeadbeef}
	buf := marshalHeader(h)
	got, err := unmarshalHeader(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: %+v -> %+v", h, got)
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xff
		if _, err := unmarshalHeader(mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// TestSegmentFileSurvivesTimeExtremes: the saturating ordering key and
// the (sec, nanos) time columns must both round-trip entries far
// outside UnixNano's range.
func TestSegmentTimeExtremes(t *testing.T) {
	times := []time.Time{
		time.Date(1400, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1678, 6, 1, 0, 0, 0, 999, time.UTC),
		t0,
		time.Date(2262, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 1, 1, 0, 0, 0, 1, time.UTC),
	}
	ents := make([]stored, 0, len(times))
	for i, tm := range times {
		e := entry("archer2", "hpgmg-fv", i, tm, map[string]float64{"l0": float64(i)})
		ents = append(ents, stored{entry: e, file: "x.log", t: timeNanos(tm), seq: uint64(i + 1)})
	}
	slices.SortFunc(ents, cmpStored)
	hdr, data := encodeSegment(ents)
	d, _ := checkDecode(t, hdr, data)
	if d == nil {
		t.Fatal("block refused")
	}
	got := d.cols.arena(noID)
	for i := range ents {
		if !ents[i].entry.Time.Equal(got[i].entry.Time) {
			t.Fatalf("row %d: time %v -> %v", i, ents[i].entry.Time, got[i].entry.Time)
		}
		if ents[i].t != got[i].t {
			t.Fatalf("row %d: ordering key %d -> %d", i, ents[i].t, got[i].t)
		}
	}
}

// TestSegmentWriteRead drives the file layer: write atomically, read
// the header alone, then load and compare.
func TestSegmentWriteRead(t *testing.T) {
	dir := t.TempDir()
	ents := sortedStored(3, 100)
	written, err := writeSegmentFile(dir, 1, ents)
	if err != nil {
		t.Fatal(err)
	}
	info := written.info
	if info.Count != 100 || info.File != "seg-00000001.seg" {
		t.Fatalf("info = %+v", info)
	}
	hdr, err := readSegmentHeader(filepath.Join(dir, info.File))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Count != 100 || hdr.MinT != info.MinT || hdr.MaxT != info.MaxT {
		t.Fatalf("header %+v disagrees with info %+v", hdr, info)
	}
	g := &segment{dir: dir, info: info}
	d, err := g.load()
	if err != nil {
		t.Fatal(err)
	}
	got := d.cols.arena(noID)
	for i := range ents {
		if ents[i].entry.Line() != got[i].entry.Line() {
			t.Fatalf("row %d diverged after file round trip", i)
		}
	}
	// No temp debris.
	if _, err := os.Stat(filepath.Join(dir, info.File+".tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

// TestSegmentDecodeRejectsCorruption flips bytes across the data block
// and requires an error (never a panic, never silent acceptance of a
// wrong arena — the CRC catches every single-byte flip).
func TestSegmentDecodeRejectsCorruption(t *testing.T) {
	ents := sortedStored(7, 40)
	hdr, data := encodeSegment(ents)
	for i := 0; i < len(data); i += 7 {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x5a
		if _, err := decodeSegment(hdr, mut); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
	if _, err := decodeSegment(hdr, data[:len(data)-1]); err == nil {
		t.Fatal("truncated data accepted")
	}
}

// FuzzSegmentDecode hammers the decoder with arbitrary headers and data
// blocks: it must never panic, must accept exactly what the reference
// decoder accepts, and must then give back the reference's rows and the
// postings buildPostings derives from them (checkDecode). Re-encoding a
// decoded arena must give a block that decodes to the same rows.
func FuzzSegmentDecode(f *testing.F) {
	for _, n := range []int{0, 1, 25} {
		ents := sortedStored(int64(n)+11, n)
		hdr, data := encodeSegment(ents)
		f.Add(marshalHeader(hdr), data)
	}
	f.Add([]byte("PSG1 garbage header padding here to 64 bytes....................."), []byte("junk"))
	f.Fuzz(func(t *testing.T, hdrBytes, data []byte) {
		hdr, err := unmarshalHeader(hdrBytes)
		if err != nil {
			return
		}
		d, ref := checkDecode(t, hdr, data)
		if d == nil {
			return
		}
		// Whatever decoded must satisfy the segment invariants.
		if d.rows() != hdr.Count {
			t.Fatalf("decoded %d rows, header says %d", d.rows(), hdr.Count)
		}
		for i := 1; i < len(d.cols.t); i++ {
			if d.cols.t[i-1] > d.cols.t[i] {
				t.Fatalf("arena out of order at %d", i)
			}
		}
		// And re-encoding a decoded arena must be stable (canonical form).
		hdr2, data2 := encodeSegment(ref)
		d2, _ := checkDecode(t, hdr2, data2)
		if d2 == nil {
			t.Fatal("re-encode of decoded arena does not decode")
		}
		again := d2.cols.arena(noID)
		for i := range ref {
			if ref[i].entry.Line() != again[i].entry.Line() {
				t.Fatalf("re-encode changed row %d", i)
			}
		}
	})
}

// loaded reports whether the data block is resident (zone-map pruning
// tests peek at this).
func (g *segment) loaded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.data != nil
}

// TestSegmentZoneMapPrunes: a Since window entirely past a segment's
// MaxT must answer from the zone map alone — the data block is never
// read from disk.
func TestSegmentZoneMapPrunes(t *testing.T) {
	dir := t.TempDir()
	ents := sortedStored(5, 50)
	written, err := writeSegmentFile(dir, 1, ents)
	if err != nil {
		t.Fatal(err)
	}
	info := written.info
	g := &segment{dir: dir, info: info}
	s := Open("unused")
	s.seg.list = []*segment{g}
	if got := s.Select(Query{Since: time.Unix(0, info.MaxT).UTC().Add(time.Hour)}); len(got) != 0 {
		t.Fatalf("pruned segment returned %d entries", len(got))
	}
	if g.loaded() {
		t.Fatal("zone-map prune still loaded the data block")
	}
	// A window inside the zone map does load and answer.
	if got := s.Select(Query{Since: time.Unix(0, info.MinT).UTC()}); len(got) != 50 {
		t.Fatalf("in-range select returned %d entries, want 50", len(got))
	}
	if !g.loaded() {
		t.Fatal("in-range select did not load the segment")
	}
}
