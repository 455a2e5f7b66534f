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

// genTree writes n entries in the end-to-end benchmark's layout
// (bench/gen, windowEntry): entry i is stamped i seconds after t0 and
// lands in the next of fifteen files, five systems × three benchmarks,
// so each system's three files interleave in time.
func genTree(tb testing.TB, n int) string {
	tb.Helper()
	root := tb.TempDir()
	rng := rand.New(rand.NewSource(3))
	var files [15][]*perflog.Entry
	for i := 0; i < n; i++ {
		files[i%15] = append(files[i%15], windowEntry(rng, i))
	}
	for _, ents := range files {
		if len(ents) == 0 {
			continue
		}
		if err := perflog.Append(root, ents[0].System, ents[0].Benchmark, ents...); err != nil {
			tb.Fatal(err)
		}
	}
	return root
}

// BenchmarkStoreColdBoot measures what the tiered engine exists for:
// daemon boot time over an already-ingested corpus. The text leg
// re-parses every perflog byte; the interleaved leg does so on a tree
// whose files interleave in time, as the end-to-end benchmark's corpus
// does; the sealed leg recovers the corpus from segment headers and
// parses only the (empty) tail. The text legs report resident-B/row, what
// the booted head keeps per row (Stats.HeadResidentBytes).
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

	textBoot := func(root string) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var st *Store
			for i := 0; i < b.N; i++ {
				st = Open(root)
				if err := st.Sync(); err != nil {
					b.Fatal(err)
				}
				if st.Len() != n {
					b.Fatalf("boot recovered %d entries", st.Len())
				}
			}
			b.ReportMetric(float64(st.Stats().HeadResidentBytes)/n, "resident-B/row")
		}
	}
	b.Run("text", textBoot(root))
	b.Run("interleaved", textBoot(genTree(b, n)))
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
// dictionary, columns, posting lists — on a 50k-row block, so allocs/op
// is the allocations of one cold segment load (a count that does not
// grow with the rows) and resident-B/row what the loaded segment keeps
// in memory per row.
func BenchmarkSegmentDecode(b *testing.B) {
	const n = 50_000
	hdr, data := encodeSegment(sortedStored(21, n))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var d *view
	for i := 0; i < b.N; i++ {
		var err error
		if d, err = decodeSegment(hdr, data); err != nil {
			b.Fatal(err)
		}
	}
	if d.rows() != n {
		b.Fatalf("decoded %d rows, want %d", d.rows(), n)
	}
	b.ReportMetric(float64(d.size())/n, "resident-B/row")
}
