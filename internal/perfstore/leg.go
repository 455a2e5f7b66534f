package perfstore

import (
	"repro/internal/perflog"
)

// leg is one view bound to one query: what view's scan walks, and what a
// hit reads its row through. The view — its columns' slice headers — is
// copied under the leg's lock, and its rows stay readable after the lock
// is released: a segment's columns never change, and a shard never writes
// a row, a cell or a dictionary string twice (appends go past the copied
// lengths, eviction builds new columns), so the hits of a leg outlive its
// scan. The dictionary's lookup map does change in place, so it is read
// only in bind, under the lock.
//
// The query's strings are resolved to the view's dictionary ids once,
// when the leg is bound, so no row is compared by string: a predicate
// value the dictionary lacks matches no row, and the leg is none.
type leg struct {
	view
	m   *matcher
	ids legIDs
}

// legIDs is a query's strings as one view's dictionary ids, noID where the
// dictionary lacks the string. The slices start in the fixed buffers, so
// binding a usual query allocates nothing.
type legIDs struct {
	none   bool        // a predicate value is missing: no row matches
	preds  []colPred   // system, benchmark and result predicates
	fom    uint32      // the query's FOM
	extras [][2]uint32 // extra predicates: key id, value id
	group  []uint32    // per group-by field that is an extra: its key id
	rep    []uint32    // the repetition-statistics keys of the FOM (matcher.rep)
	bufs   struct {
		preds  [3]colPred
		extras [2][2]uint32
		group  [2]uint32
		rep    [6]uint32
	}
}

// colPred is an equality on one identity column.
type colPred struct {
	col int
	id  uint32
}

// bind points l at v, for m, resolving m's strings into ids. Callers hold
// v's lock.
func (l *leg) bind(v *view, m *matcher) {
	l.view, l.m = *v, m
	c, ids := &l.cols, &l.ids
	pred := func(s string) uint32 {
		id := c.id(s)
		ids.none = ids.none || id == noID
		return id
	}
	q := &m.q
	ids.preds, ids.extras, ids.group, ids.rep = ids.bufs.preds[:0], ids.bufs.extras[:0], ids.bufs.group[:0], ids.bufs.rep[:0]
	for _, p := range [...]struct {
		col int
		v   string
	}{{colSystem, q.System}, {colBenchmark, q.Benchmark}, {colResult, q.Result}} {
		if p.v != "" {
			ids.preds = append(ids.preds, colPred{p.col, pred(p.v)})
		}
	}
	ids.fom = noID
	if q.FOM != "" {
		ids.fom = pred(q.FOM)
	}
	for _, kv := range m.extras {
		ids.extras = append(ids.extras, [2]uint32{pred(kv.k), pred(kv.v)})
	}
	for _, f := range m.group {
		if f.col < 0 {
			ids.group = append(ids.group, c.id(f.name))
		}
	}
	if m.withRep {
		for _, k := range m.rep.Keys() {
			ids.rep = append(ids.rep, c.id(k))
		}
	}
}

// none reports whether no row of the leg can match.
func (l *leg) none() bool { return l.ids.none }

// match is the full equality predicate on row, as id compares.
func (l *leg) match(row int32) bool {
	c, ids := &l.cols, &l.ids
	for _, p := range ids.preds {
		if c.col[p.col][row] != p.id {
			return false
		}
	}
	if ids.fom != noID {
		if _, ok := c.fom(row, ids.fom); !ok {
			return false
		}
	}
	for _, x := range ids.extras {
		if c.extraOr(row, x[0]) != x[1] {
			return false
		}
	}
	return true
}

// key is the hit's (time, seq) ordering key.
func (h hit) key() (int64, uint64) { return h.leg.key(h.row) }

// groupKey appends the row's group key — its group-by fields (matcher.
// group) joined by "/" — to dst.
func (h hit) groupKey(dst []byte) []byte {
	l, extra := h.leg, 0
	c := &l.cols
	for i, f := range l.m.group {
		if i > 0 {
			dst = append(dst, '/')
		}
		if f.col >= 0 {
			dst = append(dst, c.dict[c.col[f.col][h.row]]...)
		} else {
			dst = append(dst, c.str(c.extraOr(h.row, l.ids.group[extra]))...)
			extra++
		}
	}
	return dst
}

// value is the row's value of the query's FOM and its unit; zero when the
// row does not carry it.
func (h hit) value() (float64, string) {
	c := &h.leg.cols
	f, ok := c.fom(h.row, h.leg.ids.fom)
	if !ok {
		return 0, ""
	}
	return f.value, c.dict[f.unit]
}

// repStats reads the repetition statistics of the query's FOM from the
// row (matcher.withRep must be set).
func (h hit) repStats() (perflog.RepStats, bool) {
	l := h.leg
	return l.m.rep.ReadFunc(func(i int) (string, bool) {
		v, ok := l.cols.extra(h.row, l.ids.rep[i])
		return l.cols.str(v), ok
	})
}

// groupField is one group-by field: an identity column, or an extra.
type groupField struct {
	col  int    // colSystem … colResult, or -1 for an extra
	name string // the extra's key
}

// compileGroup resolves group-by names to fields.
func compileGroup(groupBy []string) []groupField {
	fields := make([]groupField, len(groupBy))
	for i, name := range groupBy {
		col := -1
		switch name {
		case "system":
			col = colSystem
		case "benchmark":
			col = colBenchmark
		case "partition":
			col = colPartition
		case "environ":
			col = colEnviron
		case "spec":
			col = colSpec
		case "result":
			col = colResult
		}
		fields[i] = groupField{col, name}
	}
	return fields
}
