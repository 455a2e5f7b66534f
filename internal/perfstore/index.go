package perfstore

import (
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/perflog"
)

// The secondary index. Each shard keeps, besides its append-only entry
// arena:
//
//   - posting lists: for every indexed predicate value (system,
//     benchmark, result, FOM presence, extra key=value) the ascending
//     arena indices of the entries carrying it. A selective query
//     intersects the relevant lists instead of scanning the arena.
//   - a time-ordered view (byTime): arena indices sorted by
//     (timestamp, ingest sequence), so Since binary-searches its lower
//     bound and Limit takes a bounded tail instead of materializing
//     everything first.
//
// Both are maintained incrementally under the shard lock on add and
// evict; queries only ever take the read lock. Entries are immutable
// once added, so index reads may hand out *perflog.Entry freely.

// Posting-list keys. The kind byte namespaces the value so a system
// named "pass" never collides with result=pass.
func keySystem(v string) string    { return "s\x00" + v }
func keyBenchmark(v string) string { return "b\x00" + v }
func keyResult(v string) string    { return "r\x00" + v }
func keyFOM(name string) string    { return "f\x00" + name }
func keyExtra(k, v string) string  { return "x\x00" + k + "\x00" + v }

// stored is one arena slot: the entry, its source file (for eviction),
// and a store-wide ingest sequence number that breaks timestamp ties so
// every ordering in the store is total and deterministic. t caches the
// entry's timestamp as Unix nanoseconds — every ordering comparison in
// the hot paths (byTime inserts, result sorts, cross-shard merges) is
// an integer compare instead of a time.Time method call.
type stored struct {
	entry *perflog.Entry
	file  string
	t     int64
	seq   uint64
	dead  bool
}

// timeNanos is the ordering key for a timestamp. Outside UnixNano's
// representable range (roughly years 1678–2262) it saturates, so
// far-out timestamps still order totally and consistently across the
// index, scan, and merge paths — ties within a saturated extreme fall
// to ingest sequence.
func timeNanos(tm time.Time) int64 {
	switch y := tm.Year(); {
	case y <= 1678:
		return math.MinInt64
	case y >= 2262:
		return math.MaxInt64
	}
	return tm.UnixNano()
}

// view is the read side of one leg of a query — a head shard or a sealed
// segment: the arena, its posting lists, and its (time, seq) order. A
// segment's arena is sealed in that order, so its byTime is nil, meaning
// identity. Everything a query reads goes through a view, so both tiers
// run the one scan in query.go.
type view struct {
	entries []stored           // arena; a shard's is append-only, dead slots tombstoned
	post    map[string][]int32 // posting lists, ascending arena indices
	byTime  []int32            // live arena indices, sorted by (Time, seq); non-nil whenever a shard holds anything
}

type shard struct {
	mu sync.RWMutex
	view
	deadN   int
	live    int
	systems map[string]int // live entries per system (Systems/Stats)
}

func (sh *shard) init() {
	sh.post = map[string][]int32{}
	sh.systems = map[string]int{}
}

// reset empties the shard — the head clear after a Seal froze its
// entries into a segment. Callers hold sh.mu.
func (sh *shard) reset() {
	sh.entries = nil
	sh.deadN = 0
	sh.live = 0
	sh.byTime = nil
	sh.post = map[string][]int32{}
	sh.systems = map[string]int{}
}

// addLocked indexes one entry. Callers hold sh.mu.
func (sh *shard) addLocked(e *perflog.Entry, file string, seq uint64) {
	idx := int32(len(sh.entries))
	t := timeNanos(e.Time)
	sh.entries = append(sh.entries, stored{entry: e, file: file, t: t, seq: seq})
	sh.post[keySystem(e.System)] = append(sh.post[keySystem(e.System)], idx)
	sh.post[keyBenchmark(e.Benchmark)] = append(sh.post[keyBenchmark(e.Benchmark)], idx)
	if e.Result != "" {
		sh.post[keyResult(e.Result)] = append(sh.post[keyResult(e.Result)], idx)
	}
	for name := range e.FOMs {
		sh.post[keyFOM(name)] = append(sh.post[keyFOM(name)], idx)
	}
	for k, v := range e.Extra {
		sh.post[keyExtra(k, v)] = append(sh.post[keyExtra(k, v)], idx)
	}
	// Insert into the time-ordered view. Perflogs are appended roughly
	// chronologically, so the common case is an append at the end; an
	// out-of-order timestamp pays one binary search plus a copy. The new
	// entry carries the largest seq, so it sorts after existing
	// equal-timestamp entries — (Time, seq) order by construction.
	pos := len(sh.byTime)
	if pos > 0 && sh.entries[sh.byTime[pos-1]].t > t {
		pos = sort.Search(len(sh.byTime), func(i int) bool {
			return sh.entries[sh.byTime[i]].t > t
		})
	}
	sh.byTime = append(sh.byTime, 0)
	copy(sh.byTime[pos+1:], sh.byTime[pos:])
	sh.byTime[pos] = idx
	sh.live++
	sh.systems[e.System]++
}

// evictLocked tombstones every entry ingested from file and filters it
// out of the posting lists and the time view. Callers hold sh.mu.
func (sh *shard) evictLocked(file string) int {
	removed := 0
	for i := range sh.entries {
		st := &sh.entries[i]
		if st.dead || st.file != file {
			continue
		}
		st.dead = true
		removed++
		sys := st.entry.System
		if sh.systems[sys]--; sh.systems[sys] == 0 {
			delete(sh.systems, sys)
		}
	}
	if removed == 0 {
		return 0
	}
	sh.live -= removed
	sh.deadN += removed
	kept := sh.byTime[:0]
	for _, i := range sh.byTime {
		if !sh.entries[i].dead {
			kept = append(kept, i)
		}
	}
	sh.byTime = kept
	for key, list := range sh.post {
		kl := list[:0]
		for _, i := range list {
			if !sh.entries[i].dead {
				kl = append(kl, i)
			}
		}
		if len(kl) == 0 {
			delete(sh.post, key)
		} else {
			sh.post[key] = kl
		}
	}
	// Tombstones accumulate across truncation/rewrite cycles; compact
	// once the majority of the arena is dead so memory stays bounded by
	// the live set.
	if sh.deadN > len(sh.entries)/2 {
		sh.compactLocked()
	}
	return removed
}

// compactLocked rewrites the arena without tombstones and remaps every
// index structure. byTime and the posting lists hold only live indices,
// so the remap is total for them.
func (sh *shard) compactLocked() {
	remap := make([]int32, len(sh.entries))
	kept := sh.entries[:0]
	for i := range sh.entries {
		if sh.entries[i].dead {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(kept))
		kept = append(kept, sh.entries[i])
	}
	sh.entries = kept
	for j, i := range sh.byTime {
		sh.byTime[j] = remap[i]
	}
	for _, list := range sh.post {
		for j, i := range list {
			list[j] = remap[i]
		}
	}
	sh.deadN = 0
}

// hit is one matching entry with its ordering key — timestamp nanos
// plus the tie-break sequence — the unit of the cross-shard merge.
type hit struct {
	e   *perflog.Entry
	t   int64
	seq uint64
}

func (st *stored) hit() hit { return hit{st.entry, st.t, st.seq} }

// cmpOrder compares two (time, seq) ordering keys.
func cmpOrder(at int64, aseq uint64, bt int64, bseq uint64) int {
	switch {
	case at < bt, at == bt && aseq < bseq:
		return -1
	case at > bt, aseq > bseq:
		return 1
	}
	return 0
}

func cmpHits(a, b hit) int       { return cmpOrder(a.t, a.seq, b.t, b.seq) }
func cmpStored(a, b *stored) int { return cmpOrder(a.t, a.seq, b.t, b.seq) }

// rows is the number of live rows.
func (v *view) rows() int {
	if v.byTime != nil {
		return len(v.byTime)
	}
	return len(v.entries)
}

// row is the i-th live row in (time, seq) order.
func (v *view) row(i int) *stored {
	if v.byTime != nil {
		i = int(v.byTime[i])
	}
	return &v.entries[i]
}

// lists looks up the posting list of every key, rarest first. It returns
// nil when some predicate value has no posting list at all — zero
// matches, no work.
func (v *view) lists(keys []string) [][]int32 {
	lists := make([][]int32, 0, len(keys))
	for _, k := range keys {
		l, ok := v.post[k]
		if !ok {
			return nil
		}
		lists = append(lists, l)
	}
	slices.SortFunc(lists, func(a, b []int32) int { return len(a) - len(b) })
	return lists
}

// intersect runs the posting-list intersection — shared by the head
// shards and the sealed segments, which maintain the same posting-list
// key scheme: the rarest list (lists[0]) drives, the others are probed
// with an advancing galloping search — the probe starts where the
// previous one left off, doubles its step until it overshoots, then
// binary-searches the bracketed window. Dense probed lists cost ~O(1)
// per probe, sparse ones O(log gap); either way no per-element closure
// calls. A single list is returned as is: callers must not write to the
// result.
func intersect(lists [][]int32) []int32 {
	base := lists[0]
	rest := lists[1:]
	if len(rest) == 0 {
		return base
	}
	cursors := make([]int, len(rest))
	out := make([]int32, 0, len(base))
outer:
	for _, idx := range base {
		for li, l := range rest {
			pos := cursors[li]
			if pos < len(l) && l[pos] < idx {
				step := 1
				for pos+step < len(l) && l[pos+step] < idx {
					pos += step
					step <<= 1
				}
				hi := pos + step
				if hi > len(l) {
					hi = len(l)
				}
				for pos++; pos < hi; { // l[pos-1] < idx ≤ l[hi] (if any)
					mid := int(uint(pos+hi) >> 1)
					if l[mid] < idx {
						pos = mid + 1
					} else {
						hi = mid
					}
				}
			}
			cursors[li] = pos
			if pos == len(l) || l[pos] != idx {
				continue outer
			}
		}
		out = append(out, idx)
	}
	return out
}

// fanN runs fn(0..n-1) on a worker pool sized by GOMAXPROCS — queries
// parallelize across head shards and sealed segments without spawning
// more runnable goroutines than there are CPUs to run them.
func fanN(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mergeHits merges per-leg (time, seq)-ordered hit slices into one entry
// slice in the same order. With a limit it merges backwards from the
// tails and stops after limit entries — each leg already trimmed itself
// to its own most recent limit, and the global answer is a subset of
// those tails.
func mergeHits(parts [][]hit, limit int) []*perflog.Entry {
	live := parts[:0]
	total := 0
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
		}
	}
	if total == 0 {
		return nil
	}
	n, back, step := total, limit > 0, 1
	pos := make([]int, len(live)) // the next hit of each part: from its head, or from its tail backwards
	if back {
		n, step = min(limit, total), -1
		for i, p := range live {
			pos[i] = len(p) - 1
		}
	}
	out := make([]*perflog.Entry, n)
	for k := range out {
		best := -1
		for i, p := range live {
			if uint(pos[i]) < uint(len(p)) && (best == -1 || (cmpHits(p[pos[i]], live[best][pos[best]]) < 0) != back) {
				best = i
			}
		}
		if back {
			out[n-1-k] = live[best][pos[best]].e
		} else {
			out[k] = live[best][pos[best]].e
		}
		pos[best] += step
	}
	return out
}

// newestHits is the most recent limit of the per-leg tails, in (time,
// seq) order.
func newestHits(parts [][]hit, limit int) []hit {
	all := slices.Concat(parts...)
	slices.SortFunc(all, cmpHits)
	return all[max(0, len(all)-limit):]
}
