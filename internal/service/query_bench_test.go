package service

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/bench/gen"
	"repro/internal/perfstore"
)

// sealedServer boots a daemon over the end-to-end benchmark's sealed
// corpus: n entries written to a perflog tree and sealed into four
// segments a quarter at a time, as benchload's query_sealed workload
// builds it.
func sealedServer(b *testing.B, n int) *Server {
	b.Helper()
	root, dataDir := b.TempDir(), b.TempDir()
	c := gen.NewCorpus(7, n)
	for q := 0; q < 4; q++ {
		if err := c.Write(root, q*n/4, (q+1)*n/4); err != nil {
			b.Fatal(err)
		}
		s, err := perfstore.OpenTiered(root, dataDir)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := New(Config{
		PerflogRoot: root,
		DataDir:     dataDir,
		InstallTree: b.TempDir(),
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Shutdown(context.Background()) })
	return srv
}

// BenchmarkQueryHandler times two of benchload's requests through the
// daemon's whole handler into a recorder, on a sealed 200k-entry store:
// the select of the newest 100 entries, and the dashboard aggregate
// answered from the query cache. The first request of each, untimed,
// loads the segments and fills the cache.
func BenchmarkQueryHandler(b *testing.B) {
	h := sealedServer(b, 200_000).Handler()
	for _, bc := range []struct{ name, path string }{
		{"select", gen.SelectPath},
		{"aggregate_hit", gen.AggregatePath()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			serve := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, bc.path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("%s: status %d: %s", bc.path, rec.Code, rec.Body)
				}
			}
			serve()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				serve()
			}
		})
	}
}
