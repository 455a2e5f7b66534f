package perfstore

import (
	"math/rand"
	"testing"

	"repro/internal/perflog"
)

// benchTree writes an n-entry perflog tree under a fresh temp root,
// grouped into one file per (system, benchmark) the way real trees
// are laid out.
func benchTree(b *testing.B, n int) string {
	b.Helper()
	root := b.TempDir()
	rng := rand.New(rand.NewSource(9))
	groups := map[[2]string][]*perflog.Entry{}
	for i := 0; i < n; i++ {
		e := randEntry(rng, i)
		k := [2]string{e.System, e.Benchmark}
		groups[k] = append(groups[k], e)
	}
	for k, ents := range groups {
		if err := perflog.Append(root, k[0], k[1], ents...); err != nil {
			b.Fatal(err)
		}
	}
	return root
}

// BenchmarkStoreColdBoot measures what the tiered engine exists for:
// daemon boot time over an already-ingested corpus. The text leg
// re-parses every perflog byte; the sealed leg recovers the corpus
// from segment headers and parses only the (empty) tail.
func BenchmarkStoreColdBoot(b *testing.B) {
	const n = 20_000
	root := benchTree(b, n)
	dataDir := b.TempDir()
	s, err := OpenTiered(root, dataDir)
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	if _, err := s.Seal(); err != nil {
		b.Fatal(err)
	}

	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st := Open(root)
			if err := st.Sync(); err != nil {
				b.Fatal(err)
			}
			if st.Len() != n {
				b.Fatalf("boot recovered %d entries", st.Len())
			}
		}
	})
	b.Run("sealed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st, err := OpenTiered(root, dataDir)
			if err != nil {
				b.Fatal(err)
			}
			if err := st.Sync(); err != nil {
				b.Fatal(err)
			}
			if st.Len() != n {
				b.Fatalf("boot recovered %d entries", st.Len())
			}
			if st.Stats().BytesParsed != 0 {
				b.Fatal("sealed boot re-parsed perflog bytes")
			}
		}
	})
}

// benchSealed builds a fully-sealed tiered store holding the same
// entries as benchStoreN, with the segment resident (first query paid
// outside the timed loop).
func benchSealed(b *testing.B, n int) *Store {
	b.Helper()
	s, err := OpenTiered(b.TempDir(), b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		s.add(randEntry(rng, i), "mem.log")
	}
	if _, err := s.Seal(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreSealedSelect compares the selective posting-list query
// served from the mutable head against the identical query served from
// a sealed segment.
func BenchmarkStoreSealedSelect(b *testing.B) {
	head := benchStoreN(b, benchN)
	sealed := benchSealed(b, benchN)
	q := selectiveQuery()
	want := len(head.Select(q))
	if got := len(sealed.Select(q)); got != want {
		b.Fatalf("sealed select returned %d entries, head %d", got, want)
	}
	b.Run("head", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(head.Select(q)) != want {
				b.Fatal("wrong result")
			}
		}
	})
	b.Run("sealed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(sealed.Select(q)) != want {
				b.Fatal("wrong result")
			}
		}
	})
}

// BenchmarkStoreSealedAggregate: grouped aggregation over every entry,
// head vs sealed segment.
func BenchmarkStoreSealedAggregate(b *testing.B) {
	head := benchStoreN(b, benchN)
	sealed := benchSealed(b, benchN)
	q := Query{FOM: "l0", GroupBy: []string{"system", "benchmark"}}
	rows, err := head.Aggregate(q)
	if err != nil {
		b.Fatal(err)
	}
	want := len(rows)
	b.Run("head", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := head.Aggregate(q)
			if err != nil || len(rows) != want {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
	b.Run("sealed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := sealed.Aggregate(q)
			if err != nil || len(rows) != want {
				b.Fatalf("rows=%d err=%v", len(rows), err)
			}
		}
	})
}

// BenchmarkSegmentDecode measures the segment load path alone — CRC,
// dictionary, rows, posting lists — on a 50k-row block, so allocs/op ÷
// 50k is the per-row garbage a cold sealed boot pays.
func BenchmarkSegmentDecode(b *testing.B) {
	const n = 50_000
	hdr, data := encodeSegment(sortedStored(21, n))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := decodeSegment(hdr, data)
		if err != nil || len(d.entries) != n {
			b.Fatalf("decoded %d entries, err %v", len(d.entries), err)
		}
	}
}
