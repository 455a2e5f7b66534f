package perfstore

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fom"
	"repro/internal/perflog"
)

// The secondary index. Each shard keeps, besides its rows (columns,
// filled by appends in ingest order):
//
//   - posting lists: for every indexed predicate value (system,
//     benchmark, result, FOM presence, extra key=value) the ascending
//     row indices of the rows carrying it. A selective query intersects
//     the relevant lists instead of scanning the rows.
//   - a time-ordered view (byTime): row indices sorted by (timestamp,
//     ingest sequence), so Since binary-searches its lower bound and
//     Limit takes a bounded tail instead of materializing everything
//     first.
//
// Both are maintained incrementally under the shard lock on append and
// rebuilt with the rows on evict; queries only ever take the read lock.

// Posting-list keys. The kind byte namespaces the value so a system
// named "pass" never collides with result=pass.
func keySystem(v string) string    { return "s\x00" + v }
func keyBenchmark(v string) string { return "b\x00" + v }
func keyResult(v string) string    { return "r\x00" + v }
func keyFOM(name string) string    { return "f\x00" + name }
func keyExtra(k, v string) string  { return "x\x00" + k + "\x00" + v }

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
// segment: the rows, their posting lists, and their (time, seq) order.
// Both tiers hold their rows in columns. A shard's rows are in ingest
// order, with byTime giving the time order; a segment's rows were sealed
// in time order, so its byTime is nil, meaning identity. Everything a
// query reads goes through a view, so both tiers run the one scan in
// query.go.
type view struct {
	cols   columns
	post   map[string][]int32 // posting lists, ascending row indices
	byTime []int32            // a shard's rows, sorted by (time, seq); non-nil whenever it holds anything
}

type shard struct {
	mu sync.RWMutex
	view
	systems map[string]int // rows per system (Stats)
	// Posting keys, rendered once per dictionary id: system, benchmark,
	// result and FOM-name keys by id (postKinds order), extra keys by
	// (key id, value id).
	idKeys    [len(postKinds)][]string
	extraKeys map[[2]uint32]string
	// Scratch for one entry's FOMs and extras, sorted by name.
	fomBuf   []namedFOM
	extraBuf [][2]string
}

type namedFOM struct {
	name string
	v    fom.Value
}

// reset empties the shard — the head clear after a Seal froze its rows
// into a segment. An empty shard holds no columns; its first append makes
// them. Callers hold sh.mu, or own the shard.
func (sh *shard) reset() {
	sh.view = view{post: map[string][]int32{}}
	sh.systems = map[string]int{}
	sh.idKeys, sh.extraKeys = [len(postKinds)][]string{}, map[[2]uint32]string{}
}

// rows is the number of rows.
func (v *view) rows() int { return len(v.cols.t) }

// appendLocked appends a run of entries of one file as rows, taking
// ingest sequences seq, seq+1, ... in order, and indexes them. Each row's
// FOMs and extras are sorted by name as they are appended, and a string
// the shard has not seen is copied into its dictionary, so nothing of an
// entry — or of the perflog chunk its strings were cut from — stays
// reachable through a row. A string the dictionary holds and a posting
// key the shard holds allocate nothing; the rows join the time order in
// one merge, and a run arriving in order — the group-commit steady state
// — is a plain append. Callers hold sh.mu.
func (sh *shard) appendLocked(es []*perflog.Entry, file string, seq uint64) {
	c := &sh.cols
	if c.lookup == nil {
		*c = newColumns()
	}
	base := int32(len(c.t))
	fileID := c.intern(file)
	for k, e := range es {
		t := timeNanos(e.Time)
		if t == math.MinInt64 || t == math.MaxInt64 {
			c.far = append(c.far, farTime{int32(len(c.t)), e.Time.Unix(), int32(e.Time.Nanosecond())})
		}
		c.t = append(c.t, t)
		c.seq = append(c.seq, seq+uint64(k))
		for col, id := range [numCols]uint32{
			fileID, c.intern(e.System), c.intern(e.Benchmark), c.intern(e.Partition),
			c.intern(e.Environ), c.intern(e.Spec), c.intern(e.Result),
		} {
			c.col[col] = append(c.col[col], id)
		}
		c.job = append(c.job, int64(e.JobID))
		foms := sh.fomBuf[:0]
		for name, v := range e.FOMs {
			foms = append(foms, namedFOM{name, v})
		}
		if len(foms) > 1 {
			slices.SortFunc(foms, func(a, b namedFOM) int { return strings.Compare(a.name, b.name) })
		}
		for _, f := range foms {
			c.foms = append(c.foms, fomCell{c.intern(f.name), c.intern(f.v.Unit), f.v.Value})
		}
		c.fomAt = append(c.fomAt, uint32(len(c.foms)))
		extras := sh.extraBuf[:0]
		for k, v := range e.Extra {
			extras = append(extras, [2]string{k, v})
		}
		if len(extras) > 1 {
			slices.SortFunc(extras, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
		}
		for _, x := range extras {
			c.extras = append(c.extras, extraCell{c.intern(x[0]), c.intern(x[1])})
		}
		c.extraAt = append(c.extraAt, uint32(len(c.extras)))
		sh.fomBuf, sh.extraBuf = foms, extras
	}
	// The scratch lets go of the entries' strings.
	clear(sh.fomBuf[:cap(sh.fomBuf)])
	clear(sh.extraBuf[:cap(sh.extraBuf)])
	sh.indexLocked(base)
}

// indexLocked posts the rows from base on and merges them into the time
// order. Callers hold sh.mu.
func (sh *shard) indexLocked(base int32) {
	c := &sh.cols
	for row := base; row < int32(len(c.t)); row++ {
		sys := sh.postLocked(row, 's', c.col[colSystem][row], 0)
		sh.systems[sys[2:]]++ // the key's copy of the name
		sh.postLocked(row, 'b', c.col[colBenchmark][row], 0)
		if res := c.col[colResult][row]; res != c.empty {
			sh.postLocked(row, 'r', res, 0)
		}
		for _, f := range c.foms[c.fomAt[row]:c.fomAt[row+1]] {
			sh.postLocked(row, 'f', f.name, 0)
		}
		for _, x := range c.extras[c.extraAt[row]:c.extraAt[row+1]] {
			sh.postLocked(row, 'x', x.key, x.val)
		}
	}
	sh.mergeTimeLocked(base)
}

// postKinds are the posting kinds keyed by one dictionary id.
const postKinds = "sbrf"

// postLocked appends row to the posting list of the key that keySystem,
// keyBenchmark, keyResult, keyFOM or keyExtra renders for kind and the
// dictionary ids a (and b, an extra's value), and returns the key. A key
// is rendered once per id, so a posting under a known one allocates
// nothing. Callers hold sh.mu.
func (sh *shard) postLocked(row int32, kind byte, a, b uint32) string {
	var key string
	if kind == 'x' {
		if key = sh.extraKeys[[2]uint32{a, b}]; key == "" {
			key = bucketKey(sh.cols.dict, postingBucket{kind: kind, a: a, b: b})
			sh.extraKeys[[2]uint32{a, b}] = key
		}
	} else {
		keys := &sh.idKeys[strings.IndexByte(postKinds, kind)]
		if int(a) >= len(*keys) {
			*keys = append(*keys, make([]string, int(a)+1-len(*keys))...)
		}
		if key = (*keys)[a]; key == "" {
			key = bucketKey(sh.cols.dict, postingBucket{kind: kind, a: a})
			(*keys)[a] = key
		}
	}
	sh.post[key] = append(sh.post[key], row)
	return key
}

// mergeTimeLocked adds the rows from base on to the time order. Callers
// hold sh.mu.
func (sh *shard) mergeTimeLocked(base int32) {
	old := len(sh.byTime)
	for i := base; i < int32(len(sh.cols.t)); i++ {
		sh.byTime = append(sh.byTime, i)
	}
	t := sh.cols.t
	cmpTime := func(a, b int32) int { return cmp.Compare(t[a], t[b]) }
	sorted := slices.IsSortedFunc(sh.byTime[old:], cmpTime)
	if sorted && (old == 0 || cmpTime(sh.byTime[old-1], base) <= 0) {
		return
	}
	// Seqs ascend with row index, so a stable sort on time alone is
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

// evictLocked removes every row ingested from file by rebuilding the
// shard from the rows that stay, their seqs and order unchanged — as
// sealed eviction rewrites a segment. The rows that stay move to new
// columns (sharing the dictionary, which only grows), so no row is ever
// written twice: a query that copied the columns under the read lock can
// still read its rows after releasing it (see leg). Callers hold sh.mu.
func (sh *shard) evictLocked(file string) int {
	old := sh.cols
	drop := old.id(file)
	removed := 0
	for _, id := range old.col[colFile] {
		if id == drop {
			removed++
		}
	}
	if removed == 0 {
		return 0
	}
	c := columns{dict: old.dict, lookup: old.lookup, empty: old.empty, fomAt: []uint32{0}, extraAt: []uint32{0}}
	for i, id := range old.col[colFile] {
		if id == drop {
			continue
		}
		row := int32(i)
		if t := old.t[row]; t == math.MinInt64 || t == math.MaxInt64 {
			far := old.far[sort.Search(len(old.far), func(k int) bool { return old.far[k].row >= row })]
			far.row = int32(len(c.t))
			c.far = append(c.far, far)
		}
		c.t = append(c.t, old.t[row])
		c.seq = append(c.seq, old.seq[row])
		for k := range c.col {
			c.col[k] = append(c.col[k], old.col[k][row])
		}
		c.job = append(c.job, old.job[row])
		c.foms = append(c.foms, old.foms[old.fomAt[row]:old.fomAt[row+1]]...)
		c.fomAt = append(c.fomAt, uint32(len(c.foms)))
		c.extras = append(c.extras, old.extras[old.extraAt[row]:old.extraAt[row+1]]...)
		c.extraAt = append(c.extraAt, uint32(len(c.extras)))
	}
	sh.reset()
	if len(c.t) > 0 {
		sh.cols = c
		sh.indexLocked(0)
	}
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

// at is the row that is i-th in (time, seq) order.
func (v *view) at(i int) int32 {
	if v.byTime != nil {
		return v.byTime[i]
	}
	return int32(i)
}

// key is row's (time, seq) ordering key.
func (v *view) key(row int32) (int64, uint64) { return v.cols.t[row], v.cols.seq[row] }

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
// those tails. Each row it picks becomes a *perflog.Entry here, in one
// slab for the call: the one place a store row is read as an entry.
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
	slab := make([]perflog.Entry, n)
	var memo extrasMemo
	for k := range out {
		best := -1
		for i, p := range live {
			if uint(pos[i]) < uint(len(p)) && (best == -1 || (cmpHits(p[pos[i]], live[best][pos[best]]) < 0) != back) {
				best = i
			}
		}
		h, e := live[best][pos[best]], &slab[k]
		h.leg.cols.fill(h.row, e, &memo)
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
