package perfstore

import (
	"cmp"
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
// rebuilt with the arena on evict; queries only ever take the read
// lock. Entries are immutable once added, so a Select may hand out a
// head row's *perflog.Entry itself.

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
// segment: the rows, their posting lists, and their (time, seq) order. A
// shard's rows are its arena of entries, in ingest order, with byTime
// giving the time order; a segment's rows are columns (see columns),
// sealed in time order, so its byTime is nil, meaning identity.
// Everything a query reads goes through a view, so both tiers run the one
// scan in query.go.
type view struct {
	entries []stored           // a shard's arena; grows by appends and is rebuilt by eviction
	cols    *columns           // a segment's rows
	post    map[string][]int32 // posting lists, ascending row indices
	byTime  []int32            // a shard's rows, sorted by (Time, seq); non-nil whenever it holds anything
}

type shard struct {
	mu sync.RWMutex
	view
	systems map[string]int    // entries per system (Stats)
	keys    map[string]string // every posting key, interned
	keyBuf  []byte            // scratch for rendering a posting key
}

func (sh *shard) init() {
	sh.post = map[string][]int32{}
	sh.systems = map[string]int{}
	sh.keys = map[string]string{}
}

// reset empties the shard — the head clear after a Seal froze its
// entries into a segment. Callers hold sh.mu.
func (sh *shard) reset() {
	sh.entries = nil
	sh.byTime = nil
	sh.init()
}

// addLocked indexes a run of entries of one file, taking ingest
// sequences seq, seq+1, ... in order. Callers hold sh.mu. The arena
// grows once; a posting key the shard already holds allocates nothing;
// the rows join the time order in one merge, and a run arriving in
// order — the group-commit steady state — is a plain append.
func (sh *shard) addLocked(es []*perflog.Entry, file string, seq uint64) {
	base := int32(len(sh.entries))
	sh.entries = slices.Grow(sh.entries, len(es))
	for k, e := range es {
		sh.entries = append(sh.entries, stored{entry: e, file: file, t: timeNanos(e.Time), seq: seq + uint64(k)})
	}
	sh.indexLocked(base)
}

// indexLocked posts the arena rows from base on and merges them into the
// time order. Callers hold sh.mu.
func (sh *shard) indexLocked(base int32) {
	for idx := base; idx < int32(len(sh.entries)); idx++ {
		e := sh.entries[idx].entry
		sys := sh.postLocked(idx, 's', e.System, "")
		sh.systems[sys[2:]]++ // the interned key's copy: no chunk of the file stays reachable through it
		sh.postLocked(idx, 'b', e.Benchmark, "")
		if e.Result != "" {
			sh.postLocked(idx, 'r', e.Result, "")
		}
		for name := range e.FOMs {
			sh.postLocked(idx, 'f', name, "")
		}
		for k, v := range e.Extra {
			sh.postLocked(idx, 'x', k, v)
		}
	}
	sh.mergeTimeLocked(base)
}

// postLocked appends idx to the posting list of the key that keySystem,
// keyBenchmark, keyResult, keyFOM or keyExtra renders for kind and its
// value(s), and returns the interned key. Callers hold sh.mu.
func (sh *shard) postLocked(idx int32, kind byte, v, v2 string) string {
	b := append(sh.keyBuf[:0], kind, 0)
	b = append(b, v...)
	if kind == 'x' {
		b = append(append(b, 0), v2...)
	}
	sh.keyBuf = b
	key, ok := sh.keys[string(b)]
	if !ok {
		key = string(b)
		sh.keys[key] = key
	}
	sh.post[key] = append(sh.post[key], idx)
	return key
}

// mergeTimeLocked adds the arena rows from base on to the time order.
// Callers hold sh.mu.
func (sh *shard) mergeTimeLocked(base int32) {
	old := len(sh.byTime)
	for i := base; i < int32(len(sh.entries)); i++ {
		sh.byTime = append(sh.byTime, i)
	}
	cmpTime := func(a, b int32) int { return cmp.Compare(sh.entries[a].t, sh.entries[b].t) }
	sorted := slices.IsSortedFunc(sh.byTime[old:], cmpTime)
	if sorted && (old == 0 || cmpTime(sh.byTime[old-1], base) <= 0) {
		return
	}
	// Seqs ascend with arena index, so a stable sort on time alone is
	// (time, seq) order.
	run := slices.Clone(sh.byTime[old:])
	if !sorted {
		slices.SortStableFunc(run, cmpTime)
	}
	// Merge from the back. Each run row goes after the existing rows up
	// to and including its timestamp — they hold smaller seqs — found by
	// a galloping search back from the last placed row, and the existing
	// rows it passes move up as one block.
	i, k := old, len(sh.byTime)
	for j := len(run) - 1; j >= 0; j-- {
		later := func(x int) bool { return cmpTime(sh.byTime[x], run[j]) > 0 }
		hi, step := i, 1
		for hi-step >= 0 && later(hi-step) {
			hi -= step
			step <<= 1
		}
		lo := max(hi-step+1, 0)
		p := lo + sort.Search(hi-lo, func(x int) bool { return later(lo + x) })
		k -= i - p
		copy(sh.byTime[k:], sh.byTime[p:i])
		i = p
		k--
		sh.byTime[k] = run[j]
	}
}

// evictLocked removes every entry ingested from file by rebuilding the
// shard from the rows that stay, their seqs and arena order unchanged —
// as sealed eviction rewrites a segment. The rows that stay move to a new
// arena, so no arena row is ever written twice: a query that copied the
// arena's slice header under the read lock can still read its rows after
// releasing it (see leg). Callers hold sh.mu.
func (sh *shard) evictLocked(file string) int {
	removed := 0
	for i := range sh.entries {
		if sh.entries[i].file == file {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	kept := make([]stored, 0, len(sh.entries)-removed)
	for _, st := range sh.entries {
		if st.file != file {
			kept = append(kept, st)
		}
	}
	sh.reset()
	sh.entries = kept
	sh.indexLocked(0)
	return removed
}

// hit is one matching row, the unit of the cross-leg merge: it is read,
// and ordered by (time, seq), through its leg.
type hit struct {
	leg *leg
	row int32
}

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

func cmpHits(a, b hit) int {
	at, aseq := a.key()
	bt, bseq := b.key()
	return cmpOrder(at, aseq, bt, bseq)
}

// rows is the number of rows.
func (v *view) rows() int {
	if v.cols != nil {
		return len(v.cols.t)
	}
	return len(v.byTime)
}

// at is the row that is i-th in (time, seq) order.
func (v *view) at(i int) int32 {
	if v.byTime != nil {
		return v.byTime[i]
	}
	return int32(i)
}

// key is row's (time, seq) ordering key.
func (v *view) key(row int32) (int64, uint64) {
	if v.cols != nil {
		return v.cols.t[row], v.cols.seq[row]
	}
	st := &v.entries[row]
	return st.t, st.seq
}

// cmp compares two rows in (time, seq) order.
func (v *view) cmp(a, b int32) int {
	at, aseq := v.key(a)
	bt, bseq := v.key(b)
	return cmpOrder(at, aseq, bt, bseq)
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
// those tails. A sealed row it picks is materialized here, into one slab
// for the call.
func mergeHits(parts [][]hit, limit int) []*perflog.Entry {
	live := parts[:0]
	total, sealed := 0, 0
	for _, p := range parts {
		if len(p) > 0 {
			live = append(live, p)
			total += len(p)
			if p[0].leg.cols != nil {
				sealed += len(p)
			}
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
	slab := make([]perflog.Entry, 0, min(n, sealed))
	var memo extrasMemo
	for k := range out {
		best := -1
		for i, p := range live {
			if uint(pos[i]) < uint(len(p)) && (best == -1 || (cmpHits(p[pos[i]], live[best][pos[best]]) < 0) != back) {
				best = i
			}
		}
		e := live[best][pos[best]].entry(&slab, &memo)
		if back {
			out[n-1-k] = e
		} else {
			out[k] = e
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
