package sqldb

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Result is the table produced by executing a query.
type Result struct {
	Columns []string
	Rows    []relation.Tuple
}

// String renders the result as an aligned text table (for CLIs and examples).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells[i] = make([]string, len(row))
		for j, v := range row {
			cells[i][j] = relation.Format(v)
			if len(cells[i][j]) > widths[j] {
				widths[j] = len(cells[i][j])
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for j, v := range vals {
			if j > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			for k := len(v); k < widths[j]; k++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}

// SortRows orders the rows canonically (by formatted values); useful for
// deterministic comparison in tests and experiment reports.
func (r *Result) SortRows() {
	sort.SliceStable(r.Rows, func(i, j int) bool {
		for k := range r.Rows[i] {
			if c := relation.Compare(r.Rows[i][k], r.Rows[j][k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// ExecSQL parses and executes a SQL statement against db: Parse, then
// ExecOpts with no context and the default configuration. It is the
// convenience entry for callers without a context in scope (CLIs, examples,
// tests); request paths call ExecOpts.
func ExecSQL(db *relation.Database, sql string) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	res, _, err := ExecOpts(context.Background(), db, q, ExecConfig{})
	return res, err
}

type boundCol struct {
	table string // alias the column is reachable under
	name  string
}

type rowset struct {
	cols []boundCol
	rows []relation.Tuple
	// base is the table this rowset scans when rows is exactly base.Tuples
	// (no filter or join applied yet); equality filters on such a pristine
	// scan can use the table's value index. nil otherwise.
	base *relation.Table
	// Dictionary encoding carried alongside rows when the source tables are
	// frozen: dicts[i] is column i's dictionary (a nil entry marks an
	// unencoded column, e.g. an aggregate output; a nil slice means the
	// rowset carries no encoding at all) and enc holds the IDs row-major
	// with stride len(cols). Cells of unencoded columns are meaningless
	// zeros. Invariant: enc is maintained exactly when dicts is non-nil.
	dicts []*relation.Dict
	enc   []uint32
	// key is the canonical subplan identity used by the memo; empty when
	// the rowset is not a cacheable fragment or no memo is attached.
	key string
}

// encoded reports whether column i carries dictionary IDs in enc.
func (rs *rowset) encoded(i int) bool { return i < len(rs.dicts) && rs.dicts[i] != nil }

// resolve returns the position of c in the rowset, or -1. Unqualified names
// must be unambiguous.
func (rs *rowset) resolve(c sqlast.Col) (int, error) {
	found := -1
	for i, bc := range rs.cols {
		if !strings.EqualFold(bc.name, c.Column) {
			continue
		}
		if c.Table != "" && !strings.EqualFold(bc.table, c.Table) {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("sqldb: ambiguous column reference %s", c)
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("sqldb: unknown column %s", c)
	}
	return found, nil
}

func (rs *rowset) has(c sqlast.Col) bool {
	n := 0
	for _, bc := range rs.cols {
		if strings.EqualFold(bc.name, c.Column) &&
			(c.Table == "" || strings.EqualFold(bc.table, c.Table)) {
			n++
		}
	}
	return n == 1
}

// appendHashKey appends an injective hash key for the given columns of row
// ri: a fixed 4-byte dictionary ID for encoded columns, a length-prefixed
// Format rendering otherwise. Two rows of the same rowset get equal keys
// exactly when every selected column pair formats equally — unlike the old
// "\x1f"-joined keys, values containing the separator cannot alias.
//
// The formatted-key half (here, appendJoinKey and the string-keyed DISTINCT
// aggregate) is needed only for columns that carry no dictionary: computed
// aggregate outputs, which a derived table can feed into an outer GROUP BY,
// DISTINCT or join, and tables of a database that was never frozen.
func (rs *rowset) appendHashKey(buf []byte, ri int, idx []int) []byte {
	st := len(rs.cols)
	for _, i := range idx {
		if rs.encoded(i) {
			buf = appendLE32(buf, rs.enc[ri*st+i])
		} else {
			buf = appendFormatted(buf, rs.rows[ri][i])
		}
	}
	return buf
}

func appendLE32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// putLE32 overwrites the four bytes at b[off:] with v, little-endian.
func putLE32(b []byte, off int, v uint32) {
	b[off], b[off+1], b[off+2], b[off+3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

// appendFormatted appends the length-prefixed Format rendering of v without
// materializing a string per row: a placeholder length is appended first and
// backfilled once the value's bytes are in place. The output is
// byte-identical to appendLE32(buf, len(Format(v))) + Format(v) bytes
// (pinned by TestAppendFormattedKeyBytes).
func appendFormatted(buf []byte, v relation.Value) []byte {
	n0 := len(buf)
	buf = appendLE32(buf, 0)
	buf = relation.AppendFormat(buf, v)
	putLE32(buf, n0, uint32(len(buf)-n0-4))
	return buf
}

type executor struct {
	db   *relation.Database
	ctx  context.Context // non-nil only when cancellable (see ExecOpts)
	ops  uint            // row-touch counter for amortized ctx checks
	memo *Memo           // shared-subplan cache; nil = no memoization

	// Shard-parallel configuration (see parallel.go): the worker target for
	// the batch-kernel drivers (<=1 runs everything sequentially) and the
	// rows-per-shard override (0 = relation.ShardRows; rounded up to whole
	// blocks).
	par       int
	shardRows int

	memoHits   int
	memoMisses int
	shardRuns  int // kernel passes that actually ran shard-parallel

	// Batch-kernel scratch, reused across operators of one statement (the
	// executor is single-goroutine and never reentrant within an operator):
	// the whole-input selection bitset, the packed per-block selection
	// indexes, and the per-block translated probe IDs.
	selBits []uint64
	selIdx  []int32
	pids    []uint32
}

// rowCheckInterval bounds how many rows a loop may touch between context
// checks; a power of two so the amortized check is a mask, not a division.
const rowCheckInterval = 1024

// step is called once per row inside the evaluation loops. With no
// cancellable context it is a single nil comparison; otherwise it polls
// ctx.Err() every rowCheckInterval rows.
func (e *executor) step() error {
	if e.ctx == nil {
		return nil
	}
	e.ops++
	if e.ops&(rowCheckInterval-1) != 0 {
		return nil
	}
	return e.ctx.Err()
}

// checkpoint polls cancellation at operator boundaries (per source, join,
// filter and projection phase), so even tiny statements notice a dead
// context promptly.
func (e *executor) checkpoint() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

func (e *executor) query(q *sqlast.Query) (*Result, error) {
	rs, err := e.queryRowset(q, true)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(rs.cols))
	for i, bc := range rs.cols {
		cols[i] = bc.name
	}
	return &Result{Columns: cols, Rows: rs.rows}, nil
}

// queryRowset evaluates q into a rowset. topLevel marks the outermost query
// of a statement: its projected rowset becomes the Result directly, so
// building an output encoding would be wasted work unless DISTINCT still
// needs hash keys.
func (e *executor) queryRowset(q *sqlast.Query, topLevel bool) (*rowset, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("sqldb: query has no FROM clause")
	}
	sources := make([]*rowset, len(q.From))
	for i, tr := range q.From {
		if err := e.checkpoint(); err != nil {
			return nil, err
		}
		rs, err := e.source(tr)
		if err != nil {
			return nil, err
		}
		sources[i] = rs
	}

	consumed := make([]bool, len(q.Where))

	// Push single-source filters down before joining. All predicates local
	// to one source are applied as a unit so the filtered rowset can be
	// memoized under its canonical scan-plus-filters key.
	for si, rs := range sources {
		var preds []sqlast.Pred
		for pi, p := range q.Where {
			if consumed[pi] || !localPred(rs, p) {
				continue
			}
			preds = append(preds, p)
			consumed[pi] = true
		}
		if len(preds) == 0 {
			continue
		}
		key := ""
		if rs.key != "" {
			var b strings.Builder
			b.WriteString(rs.key)
			for _, p := range preds {
				b.WriteString("|f:")
				b.WriteString(p.String())
			}
			key = b.String()
		}
		filtered, err := e.memoized(key, func() (*rowset, error) {
			cur := rs
			for _, p := range preds {
				next, err := e.filterRows(cur, p)
				if err != nil {
					return nil, err
				}
				cur = next
			}
			return cur, nil
		})
		if err != nil {
			return nil, err
		}
		sources[si] = filtered
	}

	// Greedy join ordering: start from the smallest source, then repeatedly
	// join the smallest source connected to the accumulated result by a join
	// predicate (falling back to the smallest remaining source when nothing
	// connects — a cross join). This keeps intermediate results small
	// without a full optimizer and is deterministic (ties break on FROM
	// position).
	remaining := make([]int, 0, len(sources)-1)
	start := 0
	for i := 1; i < len(sources); i++ {
		if len(sources[i].rows) < len(sources[start].rows) {
			start = i
		}
	}
	for i := range sources {
		if i != start {
			remaining = append(remaining, i)
		}
	}
	connects := func(acc *rowset, src *rowset) bool {
		for pi, p := range q.Where {
			if consumed[pi] {
				continue
			}
			jp, ok := p.(sqlast.JoinPred)
			if !ok {
				continue
			}
			if (acc.has(jp.Left) && src.has(jp.Right)) || (acc.has(jp.Right) && src.has(jp.Left)) {
				return true
			}
		}
		return false
	}
	acc := sources[start]
	for len(remaining) > 0 {
		pick, pickPos := -1, -1
		for pos, idx := range remaining {
			src := sources[idx]
			if !connects(acc, src) {
				continue
			}
			if pick < 0 || len(src.rows) < len(sources[pick].rows) {
				pick, pickPos = idx, pos
			}
		}
		if pick < 0 {
			for pos, idx := range remaining {
				if pick < 0 || len(sources[idx].rows) < len(sources[pick].rows) {
					pick, pickPos = idx, pos
				}
			}
		}
		src := sources[pick]
		remaining = append(remaining[:pickPos], remaining[pickPos+1:]...)
		if err := e.checkpoint(); err != nil {
			return nil, err
		}

		var eqs []sqlast.JoinPred
		for pi, p := range q.Where {
			if consumed[pi] {
				continue
			}
			jp, ok := p.(sqlast.JoinPred)
			if !ok {
				continue
			}
			l, r := jp.Left, jp.Right
			switch {
			case acc.has(l) && src.has(r):
				eqs = append(eqs, jp)
				consumed[pi] = true
			case acc.has(r) && src.has(l):
				eqs = append(eqs, sqlast.JoinPred{Left: r, Right: l})
				consumed[pi] = true
			}
		}
		key := ""
		if acc.key != "" && src.key != "" {
			ons := make([]string, len(eqs))
			for k, jp := range eqs {
				ons[k] = jp.String()
			}
			sort.Strings(ons)
			key = "join(" + acc.key + ")+(" + src.key + ")|on:" + strings.Join(ons, ",")
		}
		joined, err := e.memoized(key, func() (*rowset, error) {
			return e.join(acc, src, eqs)
		})
		if err != nil {
			return nil, err
		}
		acc = joined
	}

	// Remaining predicates (including join predicates that closed a cycle).
	for pi, p := range q.Where {
		if consumed[pi] {
			continue
		}
		filtered, err := e.filterRows(acc, p)
		if err != nil {
			return nil, err
		}
		acc = filtered
	}

	if err := e.checkpoint(); err != nil {
		return nil, err
	}
	res, err := e.project(acc, q, !topLevel || q.Distinct)
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		res = distinctRowset(res)
	}
	if len(q.OrderBy) > 0 {
		if err := orderByRowset(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.rows) > q.Limit {
		res.rows = res.rows[:q.Limit]
		if res.enc != nil {
			res.enc = res.enc[:q.Limit*len(res.cols)]
		}
	}
	return res, nil
}

func (e *executor) source(tr sqlast.TableRef) (*rowset, error) {
	alias := tr.Alias
	if tr.Subquery != nil {
		key := ""
		if e.memo != nil {
			key = "sub|" + tr.Subquery.String()
		}
		sub, err := e.memoized(key, func() (*rowset, error) {
			return e.queryRowset(tr.Subquery, false)
		})
		if err != nil {
			return nil, err
		}
		// Rebind the subquery's output columns under the FROM alias on a
		// fresh rowset: the underlying rows may be shared through the memo
		// and must never be mutated.
		rs := &rowset{rows: sub.rows, dicts: sub.dicts, enc: sub.enc}
		rs.cols = make([]boundCol, len(sub.cols))
		for i, bc := range sub.cols {
			rs.cols[i] = boundCol{table: alias, name: bc.name}
		}
		if key != "" {
			rs.key = key + "|as:" + strings.ToLower(alias)
		}
		return rs, nil
	}
	t := e.db.Table(tr.Name)
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown relation %q", tr.Name)
	}
	rs := &rowset{rows: t.Tuples, base: t}
	if dicts, enc, ok := t.Encoding(); ok {
		rs.dicts, rs.enc = dicts, enc
	}
	if e.memo != nil {
		rs.key = "scan|" + strings.ToLower(tr.Name) + "|" + strings.ToLower(alias)
	}
	for _, a := range t.Schema.Attributes {
		rs.cols = append(rs.cols, boundCol{table: alias, name: a.Name})
	}
	return rs, nil
}

// localPred reports whether every column in p is resolvable in rs alone.
func localPred(rs *rowset, p sqlast.Pred) bool {
	switch pp := p.(type) {
	case sqlast.ComparePred:
		return rs.has(pp.Col)
	case sqlast.ContainsPred:
		return rs.has(pp.Col)
	case sqlast.ColComparePred:
		return rs.has(pp.Left) && rs.has(pp.Right)
	case sqlast.JoinPred:
		return false // joins are handled during join planning
	default:
		return false
	}
}

// keyableConst reports whether the constant can key a hash/index lookup.
// Floating-point constants fall back to the scan path: the index and the
// dictionaries are keyed by the formatted value, and float formatting has
// corners (negative zero) where format equality and Compare equality
// disagree.
func keyableConst(v relation.Value) bool {
	switch v.(type) {
	case string, int64:
		return true
	default:
		return false
	}
}

// indexableEq reports whether p is an equality against a constant that the
// per-table value index can answer on a pristine base-table scan.
func indexableEq(rs *rowset, p sqlast.Pred) bool {
	pp, ok := p.(sqlast.ComparePred)
	return ok && pp.Op == sqlast.OpEq && rs.base != nil && keyableConst(pp.Value)
}

// dictableEq reports whether an equality constant may be answered through a
// dictionary ID bucket (with a boxed Compare re-verify of the candidates).
// Wider than keyableConst: any constant formats deterministically and the
// re-verify rejects format collisions, so floats qualify too — except a float
// zero, where Format distinguishes "0" from "-0" while Compare does not, so
// the bucket would miss the other sign's rows that a Compare scan matches.
func dictableEq(v relation.Value) bool {
	if f, ok := v.(float64); ok && f == 0 {
		return false
	}
	return true
}

func (e *executor) filterRows(rs *rowset, p sqlast.Pred) (*rowset, error) {
	out := &rowset{cols: rs.cols, dicts: rs.dicts}
	if rs.key != "" {
		out.key = rs.key + "|f:" + p.String()
	}
	st := len(rs.cols)
	emit := func(ri int) {
		out.rows = append(out.rows, rs.rows[ri])
		if out.dicts != nil {
			out.enc = append(out.enc, rs.enc[ri*st:(ri+1)*st]...)
		}
	}
	switch pp := p.(type) {
	case sqlast.ComparePred:
		i, err := rs.resolve(pp.Col)
		if err != nil {
			return nil, err
		}
		if indexableEq(rs, p) {
			// Index lookup instead of a scan: candidates come from the value
			// index (ascending row ids, so scan order is preserved) and are
			// re-verified with Compare, which also rejects NULLs colliding
			// with the formatted key.
			for _, ri := range rs.base.Lookup(rs.cols[i].name, pp.Value) {
				v := rs.rows[ri][i]
				if !relation.Null(v) && relation.Compare(v, pp.Value) == 0 {
					emit(ri)
				}
			}
			return out, nil
		}
		if pp.Op == sqlast.OpEq && rs.encoded(i) && dictableEq(pp.Value) {
			// Encoded equality on a derived rowset (post-filter, post-join or
			// subquery output): a branch-free per-block kernel compares
			// dictionary IDs into the selection bitset, then the gather emits
			// only the selected rows, preallocated to the match count and
			// re-verified with Compare exactly like the index path.
			id, ok := rs.dicts[i].ID(pp.Value)
			if !ok {
				return out, nil
			}
			sel, err := e.fillFilterBits(rs, i, id, nil)
			if err != nil {
				return nil, err
			}
			err = e.gatherSelected(rs, sel, out, func(ri int) bool {
				v := rs.rows[ri][i]
				return !relation.Null(v) && relation.Compare(v, pp.Value) == 0
			})
			return out, err
		}
		for ri, row := range rs.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			if relation.Null(row[i]) {
				continue
			}
			c := relation.Compare(row[i], pp.Value)
			keep := false
			switch pp.Op {
			case sqlast.OpEq:
				keep = c == 0
			case sqlast.OpNe:
				keep = c != 0
			case sqlast.OpLt:
				keep = c < 0
			case sqlast.OpLe:
				keep = c <= 0
			case sqlast.OpGt:
				keep = c > 0
			case sqlast.OpGe:
				keep = c >= 0
			}
			if keep {
				emit(ri)
			}
		}
	case sqlast.ContainsPred:
		i, err := rs.resolve(pp.Col)
		if err != nil {
			return nil, err
		}
		if rs.encoded(i) && rs.dicts[i].AllStrings() && rs.dicts[i].Len() <= len(rs.rows) {
			d := rs.dicts[i]
			// Evaluate the substring match once per dictionary entry instead
			// of once per row: the per-entry answers become a bitset over
			// the ID space, and the per-row pass is a branch-free bit lookup
			// into it. Sound only when every encoded value is a string: with
			// mixed types one ID can cover values of different dynamic
			// types, and the per-entry answer would be wrong for some of its
			// rows. AllStrings also implies no NULL rows (NULL is not a
			// string), so no re-verification is needed.
			keep := make([]uint64, (d.Len()+63)/64)
			for id := 0; id < d.Len(); id++ {
				s, _ := d.Value(uint32(id)).(string)
				if relation.ContainsFold(s, pp.Needle) {
					keep[id>>6] |= 1 << (uint(id) & 63)
				}
			}
			sel, err := e.fillFilterBits(rs, i, 0, keep)
			if err != nil {
				return nil, err
			}
			err = e.gatherSelected(rs, sel, out, nil)
			return out, err
		}
		for ri, row := range rs.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			s, ok := row[i].(string)
			if ok && relation.ContainsFold(s, pp.Needle) {
				emit(ri)
			}
		}
	case sqlast.JoinPred:
		li, err := rs.resolve(pp.Left)
		if err != nil {
			return nil, err
		}
		ri, err := rs.resolve(pp.Right)
		if err != nil {
			return nil, err
		}
		for rowi, row := range rs.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			if !relation.Null(row[li]) && relation.Equal(row[li], row[ri]) {
				emit(rowi)
			}
		}
	case sqlast.ColComparePred:
		li, err := rs.resolve(pp.Left)
		if err != nil {
			return nil, err
		}
		ri, err := rs.resolve(pp.Right)
		if err != nil {
			return nil, err
		}
		for rowi, row := range rs.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			if relation.Null(row[li]) || relation.Null(row[ri]) {
				continue
			}
			c := relation.Compare(row[li], row[ri])
			keep := false
			switch pp.Op {
			case sqlast.OpEq:
				keep = c == 0
			case sqlast.OpNe:
				keep = c != 0
			case sqlast.OpLt:
				keep = c < 0
			case sqlast.OpLe:
				keep = c <= 0
			case sqlast.OpGt:
				keep = c > 0
			case sqlast.OpGe:
				keep = c >= 0
			}
			if keep {
				emit(rowi)
			}
		}
	default:
		return nil, fmt.Errorf("sqldb: unsupported predicate %T", p)
	}
	return out, nil
}

// join combines two rowsets. With equality predicates it hash-joins —
// over dictionary IDs when every key column is encoded (a per-column
// translation table bridges the two sides' ID spaces), over length-prefixed
// formatted keys when some key column has no dictionary (see
// appendHashKey). Without predicates it produces the cross product.
func (e *executor) join(left, right *rowset, eqs []sqlast.JoinPred) (*rowset, error) {
	lst, rst := len(left.cols), len(right.cols)
	out := &rowset{cols: make([]boundCol, 0, lst+rst)}
	out.cols = append(append(out.cols, left.cols...), right.cols...)
	if left.dicts != nil || right.dicts != nil {
		out.dicts = make([]*relation.Dict, lst+rst)
		copy(out.dicts[:lst], left.dicts)
		copy(out.dicts[lst:], right.dicts)
	}
	var chunk []uint32 // scratch encoded output row, appended per emit
	if out.dicts != nil {
		chunk = make([]uint32, lst+rst)
	}
	// Output tuples are carved out of arena blocks: one allocation per
	// tupleArenaValues values instead of one per output row. Earlier blocks
	// stay referenced by the tuples sliced from them, and every tuple is
	// capacity-capped so a consumer's append cannot bleed into a neighbor.
	var arena []relation.Value
	width := lst + rst
	emit := func(li, ri int) {
		if len(arena)+width > cap(arena) {
			c := tupleArenaValues
			if width > c {
				c = width
			}
			arena = make([]relation.Value, 0, c)
		}
		off := len(arena)
		arena = arena[:off+width]
		t := relation.Tuple(arena[off : off+width : off+width])
		copy(t[:lst], left.rows[li])
		copy(t[lst:], right.rows[ri])
		out.rows = append(out.rows, t)
		if chunk != nil {
			if left.enc != nil {
				copy(chunk[:lst], left.enc[li*lst:(li+1)*lst])
			}
			if right.enc != nil {
				copy(chunk[lst:], right.enc[ri*rst:(ri+1)*rst])
			}
			out.enc = append(out.enc, chunk...)
		}
	}
	if len(eqs) == 0 {
		for li := range left.rows {
			for ri := range right.rows {
				if err := e.step(); err != nil {
					return nil, err
				}
				emit(li, ri)
			}
		}
		return out, nil
	}
	lidx := make([]int, len(eqs))
	ridx := make([]int, len(eqs))
	for k, jp := range eqs {
		li, err := left.resolve(jp.Left)
		if err != nil {
			return nil, err
		}
		ri, err := right.resolve(jp.Right)
		if err != nil {
			return nil, err
		}
		lidx[k], ridx[k] = li, ri
	}
	encKeys := true
	for k := range eqs {
		if !left.encoded(lidx[k]) || !right.encoded(ridx[k]) {
			encKeys = false
			break
		}
	}

	switch {
	case encKeys && len(eqs) == 1:
		// Single encoded key: build-side rows are chained per dictionary ID
		// through heads/next — zero allocations per row — and probed through
		// a cached left-to-right ID translation table. Chains are threaded in
		// reverse row order so probing walks matches in ascending row order,
		// matching the formatted-key path's output order exactly. NULL never
		// joins, and NULL shares its ID with the literal string "NULL", so
		// the skip must test the boxed value.
		li, ri := lidx[0], ridx[0]
		next := make([]int32, len(right.rows))
		nd := right.dicts[ri].Len()
		var denseHeads []int32
		var mapHeads map[uint32]int32
		if nd <= 4*len(right.rows)+1024 {
			// Dictionary small relative to the build side: index chain heads
			// by ID directly.
			denseHeads = make([]int32, nd)
			for i := range denseHeads {
				denseHeads[i] = -1
			}
			for rj := len(right.rows) - 1; rj >= 0; rj-- {
				if relation.Null(right.rows[rj][ri]) {
					continue
				}
				id := right.enc[rj*rst+ri]
				next[rj] = denseHeads[id]
				denseHeads[id] = int32(rj)
			}
		} else {
			// Build side much smaller than the dictionary (a filtered scan
			// over a wide column): a map wastes less than a dense table.
			mapHeads = make(map[uint32]int32, len(right.rows))
			for rj := len(right.rows) - 1; rj >= 0; rj-- {
				if relation.Null(right.rows[rj][ri]) {
					continue
				}
				id := right.enc[rj*rst+ri]
				h, ok := mapHeads[id]
				if !ok {
					h = -1
				}
				next[rj] = h
				mapHeads[id] = int32(rj)
			}
		}
		remap := left.dicts[li].RemapCached(right.dicts[ri])
		if e.parFor(len(left.rows)) > 1 {
			// Shard-parallel probe: per-shard match collection, then an
			// exactly-preallocated materialization at prefix-sum offsets
			// (see parProbe). Output is byte-identical to batchProbe.
			if err := e.parProbe(left, right, li, remap, denseHeads, mapHeads, next, out); err != nil {
				return nil, err
			}
			return out, nil
		}
		// Batch probe: translate a block of probe IDs through the remap
		// table, mask misses and NULLs branch-free, walk chains only for the
		// packed survivors (see batchProbe).
		if err := e.batchProbe(left, li, remap, denseHeads, mapHeads, next, emit); err != nil {
			return nil, err
		}
		return out, nil
	case encKeys && len(eqs) == 2:
		// Two encoded keys pack into one uint64, chained exactly like the
		// single-key kernel: no per-row allocation on either side.
		l0, l1 := lidx[0], lidx[1]
		r0, r1 := ridx[0], ridx[1]
		next := make([]int32, len(right.rows))
		heads := make(map[uint64]int32, len(right.rows))
		for rj := len(right.rows) - 1; rj >= 0; rj-- {
			rr := right.rows[rj]
			if relation.Null(rr[r0]) || relation.Null(rr[r1]) {
				continue
			}
			key := uint64(right.enc[rj*rst+r0]) | uint64(right.enc[rj*rst+r1])<<32
			h, ok := heads[key]
			if !ok {
				h = -1
			}
			next[rj] = h
			heads[key] = int32(rj)
		}
		remap0 := left.dicts[l0].RemapCached(right.dicts[r0])
		remap1 := left.dicts[l1].RemapCached(right.dicts[r1])
		for lj, lr := range left.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			if relation.Null(lr[l0]) || relation.Null(lr[l1]) {
				continue
			}
			id0 := remap0[left.enc[lj*lst+l0]]
			id1 := remap1[left.enc[lj*lst+l1]]
			if id0 == relation.NoID || id1 == relation.NoID {
				continue
			}
			h, ok := heads[uint64(id0)|uint64(id1)<<32]
			if !ok {
				continue
			}
			for rj := h; rj >= 0; rj = next[rj] {
				emit(lj, int(rj))
			}
		}
	case encKeys:
		// Three or more encoded keys: pack the 4-byte IDs into a reusable buffer.
		// Probing with map[string(buf)] is allocation-free; only inserting a
		// new distinct key copies the buffer into a string.
		slots := make(map[string]int, len(right.rows))
		var lists [][]int
		buf := make([]byte, 0, 4*len(eqs))
	buildRows:
		for rj, rr := range right.rows {
			buf = buf[:0]
			for k := range eqs {
				if relation.Null(rr[ridx[k]]) {
					continue buildRows
				}
				buf = appendLE32(buf, right.enc[rj*rst+ridx[k]])
			}
			slot, ok := slots[string(buf)]
			if !ok {
				slot = len(lists)
				slots[string(buf)] = slot
				lists = append(lists, nil)
			}
			lists[slot] = append(lists[slot], rj)
		}
		remaps := make([][]uint32, len(eqs))
		for k := range eqs {
			remaps[k] = left.dicts[lidx[k]].RemapCached(right.dicts[ridx[k]])
		}
	probeRows:
		for lj, lr := range left.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			buf = buf[:0]
			for k := range eqs {
				if relation.Null(lr[lidx[k]]) {
					continue probeRows
				}
				id := remaps[k][left.enc[lj*lst+lidx[k]]]
				if id == relation.NoID {
					continue probeRows
				}
				buf = appendLE32(buf, id)
			}
			slot, ok := slots[string(buf)]
			if !ok {
				continue
			}
			for _, rj := range lists[slot] {
				emit(lj, rj)
			}
		}
	default:
		// A key column without a dictionary (see appendHashKey):
		// length-prefixed formatted keys. Like the encoded kernels these
		// cannot alias values containing the old "\x1f" separator.
		slots := make(map[string]int, len(right.rows))
		var lists [][]int
		var buf []byte
		for rj, rr := range right.rows {
			var ok bool
			buf, ok = appendJoinKey(buf[:0], rr, ridx)
			if !ok {
				continue
			}
			slot, have := slots[string(buf)]
			if !have {
				slot = len(lists)
				slots[string(buf)] = slot
				lists = append(lists, nil)
			}
			lists[slot] = append(lists[slot], rj)
		}
		for lj, lr := range left.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			var ok bool
			buf, ok = appendJoinKey(buf[:0], lr, lidx)
			if !ok {
				continue
			}
			slot, have := slots[string(buf)]
			if !have {
				continue
			}
			for _, rj := range lists[slot] {
				emit(lj, rj)
			}
		}
	}
	return out, nil
}

// appendJoinKey appends the length-prefixed formatted join key of the given
// columns, reporting false when any key value is NULL (NULL never joins).
func appendJoinKey(buf []byte, row relation.Tuple, idx []int) ([]byte, bool) {
	for _, i := range idx {
		v := row[i]
		if relation.Null(v) {
			return buf, false
		}
		buf = appendFormatted(buf, v)
	}
	return buf, true
}

// tupleArenaValues sizes the arena blocks that join output tuples are carved
// from: larger blocks amortize allocation further but round the last block's
// waste up.
const tupleArenaValues = 8192

// project evaluates the SELECT list, applying GROUP BY and aggregates.
// wantEnc asks for the output rowset to carry dictionary encoding for the
// pass-through columns (worth it when the projection feeds DISTINCT or an
// outer query's joins; wasted at the top level of a statement).
func (e *executor) project(rs *rowset, q *sqlast.Query, wantEnc bool) (*rowset, error) {
	out := &rowset{cols: make([]boundCol, len(q.Select))}
	hasAgg := false
	for k, it := range q.Select {
		out.cols[k] = boundCol{name: outputName(it)}
		if _, ok := it.Expr.(sqlast.AggExpr); ok {
			hasAgg = true
		}
	}
	st := len(rs.cols)

	if !hasAgg && len(q.GroupBy) == 0 {
		idxs := make([]int, len(q.Select))
		for k, it := range q.Select {
			ce, ok := it.Expr.(sqlast.ColExpr)
			if !ok {
				return nil, fmt.Errorf("sqldb: unsupported select expression %T", it.Expr)
			}
			i, err := rs.resolve(ce.Col)
			if err != nil {
				return nil, err
			}
			idxs[k] = i
		}
		if wantEnc && rs.dicts != nil {
			dicts := make([]*relation.Dict, len(idxs))
			any := false
			for k, i := range idxs {
				if dicts[k] = rs.dicts[i]; dicts[k] != nil {
					any = true
				}
			}
			if any {
				out.dicts = dicts
				out.enc = make([]uint32, 0, len(rs.rows)*len(idxs))
			}
		}
		// All output tuples share one flat backing array (capacity-capped per
		// tuple, and never mutated after projection), so the projection costs
		// one allocation instead of one per row.
		nc := len(idxs)
		backing := make([]relation.Value, len(rs.rows)*nc)
		out.rows = make([]relation.Tuple, 0, len(rs.rows))
		for ri, row := range rs.rows {
			tuple := relation.Tuple(backing[ri*nc : (ri+1)*nc : (ri+1)*nc])
			for k, i := range idxs {
				tuple[k] = row[i]
			}
			out.rows = append(out.rows, tuple)
			if out.dicts != nil {
				for _, i := range idxs {
					out.enc = append(out.enc, rs.enc[ri*st+i])
				}
			}
		}
		return out, nil
	}

	gidx := make([]int, len(q.GroupBy))
	for k, c := range q.GroupBy {
		i, err := rs.resolve(c)
		if err != nil {
			return nil, err
		}
		gidx[k] = i
	}

	// Resolve the select list once, not per group — and before grouping, so
	// the batch path can pick the columnar fold for simple plans.
	plan, err := resolveSelect(rs, q.Select)
	if err != nil {
		return nil, err
	}

	// Bucket rows into groups; lists and firsts are in first-seen order.
	// Unlike joins, grouping does not skip NULLs — a NULL key groups with
	// the literal string "NULL" by format, which is exactly the class the
	// shared dictionary ID represents.
	var lists [][]int
	var firsts []int
	allEnc := len(gidx) > 0
	for _, g := range gidx {
		if !rs.encoded(g) {
			allEnc = false
			break
		}
	}
	if len(rs.rows) > 0 && (len(gidx) == 0 || allEnc) {
		var rowSlot []int32
		var bfirsts []int
		var sizes []int32
		var err error
		par := e.parFor(len(rs.rows)) > 1
		if par && len(gidx) >= 1 && len(gidx) <= 2 {
			rowSlot, bfirsts, sizes, err = e.parGroupSlots(rs, gidx)
		} else {
			rowSlot, bfirsts, sizes, err = e.batchGroupSlots(rs, gidx)
		}
		if err != nil {
			return nil, err
		}
		if rowSlot != nil { // shape is batchable (0–2 encoded key columns)
			firsts = bfirsts
			if par {
				// Shard-parallel fold: distinct slots fold concurrently, each
				// slot's rows in ascending order on one worker — value- and
				// byte-identical to the sequential folds (see parAggregate).
				if wantEnc {
					setupGroupEnc(out, rs, plan, len(firsts))
				}
				if err := e.parAggregate(rs, plan, rowSlot, firsts, sizes, out); err != nil {
					return nil, err
				}
				return out, nil
			}
			if simplePlan(plan) {
				// Columnar fold: aggregate straight off the slot assignment,
				// never materializing per-slot row lists.
				if wantEnc {
					setupGroupEnc(out, rs, plan, len(firsts))
				}
				if err := e.batchAggregate(rs, plan, rowSlot, firsts, sizes, out); err != nil {
					return nil, err
				}
				return out, nil
			}
			// DISTINCT aggregates still need the row lists: carve them from
			// the slot assignment by counting sort and share the generic
			// per-slot loop below.
			lists = carveLists(rowSlot, sizes)
		}
	}
	if lists == nil && len(gidx) > 0 {
		// No batch kernel for this shape — three or more key columns, or a
		// key column without a dictionary (see appendHashKey): packed IDs
		// for encoded key columns, length-prefixed formats for the rest.
		// Lookups through map[string(buf)] are allocation-free; a new group
		// interns its key once.
		slots := make(map[string]int)
		var buf []byte
		for ri := range rs.rows {
			if err := e.step(); err != nil {
				return nil, err
			}
			buf = rs.appendHashKey(buf[:0], ri, gidx)
			slot, ok := slots[string(buf)]
			if !ok {
				slot = len(lists)
				slots[string(buf)] = slot
				lists = append(lists, nil)
				firsts = append(firsts, ri)
			}
			lists[slot] = append(lists[slot], ri)
		}
	}
	synthetic := false
	if len(gidx) == 0 && len(lists) == 0 {
		// Aggregates over an empty input still yield one row.
		lists = [][]int{nil}
		firsts = []int{-1}
		synthetic = true
	}

	if wantEnc && !synthetic {
		setupGroupEnc(out, rs, plan, len(lists))
	}
	for slot, rows := range lists {
		first := firsts[slot]
		tuple := make(relation.Tuple, len(plan))
		for k, s := range plan {
			if s.agg {
				v, err := aggregate(s.ex, rs, rows, s.col)
				if err != nil {
					return nil, err
				}
				tuple[k] = v
			} else if first >= 0 {
				tuple[k] = rs.rows[first][s.col]
			}
		}
		out.rows = append(out.rows, tuple)
		if out.dicts != nil {
			for k, s := range plan {
				var id uint32
				if out.dicts[k] != nil {
					id = rs.enc[first*st+s.col]
				}
				out.enc = append(out.enc, id)
			}
		}
	}
	return out, nil
}

// selItem is one resolved SELECT item: a pass-through column or an
// aggregate over a column.
type selItem struct {
	agg bool
	ex  sqlast.AggExpr
	col int
}

// resolveSelect resolves every SELECT item against the rowset.
func resolveSelect(rs *rowset, items []sqlast.SelectItem) ([]selItem, error) {
	plan := make([]selItem, len(items))
	for k, it := range items {
		switch ex := it.Expr.(type) {
		case sqlast.ColExpr:
			i, err := rs.resolve(ex.Col)
			if err != nil {
				return nil, err
			}
			plan[k] = selItem{col: i}
		case sqlast.AggExpr:
			i, err := rs.resolve(ex.Arg)
			if err != nil {
				return nil, err
			}
			plan[k] = selItem{agg: true, ex: ex, col: i}
		default:
			return nil, fmt.Errorf("sqldb: unsupported select expression %T", it.Expr)
		}
	}
	return plan, nil
}

// setupGroupEnc attaches an output encoding for the pass-through columns of
// a grouped projection over ngroups groups (when any column carries one).
func setupGroupEnc(out, rs *rowset, plan []selItem, ngroups int) {
	if rs.dicts == nil {
		return
	}
	dicts := make([]*relation.Dict, len(plan))
	any := false
	for k, s := range plan {
		if !s.agg && rs.dicts[s.col] != nil {
			dicts[k] = rs.dicts[s.col]
			any = true
		}
	}
	if any {
		out.dicts = dicts
		out.enc = make([]uint32, 0, ngroups*len(plan))
	}
}

func aggregate(ex sqlast.AggExpr, rs *rowset, rows []int, i int) (relation.Value, error) {
	st := len(rs.cols)
	if !ex.Distinct {
		// Without DISTINCT the aggregate folds in one pass over the group —
		// no intermediate value slice.
		switch ex.Func {
		case sqlast.AggCount:
			n := int64(0)
			for _, ri := range rows {
				if !relation.Null(rs.rows[ri][i]) {
					n++
				}
			}
			return relation.Int(n), nil
		case sqlast.AggMin, sqlast.AggMax:
			var best relation.Value
			for _, ri := range rows {
				v := rs.rows[ri][i]
				if relation.Null(v) {
					continue
				}
				if best == nil {
					best = v
					continue
				}
				c := relation.Compare(v, best)
				if (ex.Func == sqlast.AggMin && c < 0) || (ex.Func == sqlast.AggMax && c > 0) {
					best = v
				}
			}
			return best, nil
		case sqlast.AggSum, sqlast.AggAvg:
			sum, n, allInt := 0.0, 0, true
			for _, ri := range rows {
				v := rs.rows[ri][i]
				if relation.Null(v) {
					continue
				}
				f, ok := relation.AsFloat(v)
				if !ok {
					return nil, fmt.Errorf("sqldb: %s over non-numeric value %v", ex.Func, v)
				}
				if _, isInt := v.(int64); !isInt {
					allInt = false
				}
				sum += f
				n++
			}
			if n == 0 {
				return nil, nil
			}
			if ex.Func == sqlast.AggAvg {
				return relation.Float(sum / float64(n)), nil
			}
			if allInt {
				return relation.Int(int64(sum)), nil
			}
			return relation.Float(sum), nil
		default:
			return nil, fmt.Errorf("sqldb: unknown aggregate %q", ex.Func)
		}
	}
	var vals []relation.Value
	if rs.encoded(i) {
		// DISTINCT de-duplicates by formatted value; the dictionary ID is
		// that class, so no per-row formatting is needed.
		seen := make(map[uint32]bool)
		for _, ri := range rows {
			v := rs.rows[ri][i]
			if relation.Null(v) {
				continue
			}
			id := rs.enc[ri*st+i]
			if seen[id] {
				continue
			}
			seen[id] = true
			vals = append(vals, v)
		}
	} else {
		seen := make(map[string]bool)
		for _, ri := range rows {
			v := rs.rows[ri][i]
			if relation.Null(v) {
				continue
			}
			k := relation.Format(v)
			if seen[k] {
				continue
			}
			seen[k] = true
			vals = append(vals, v)
		}
	}
	switch ex.Func {
	case sqlast.AggCount:
		return relation.Int(int64(len(vals))), nil
	case sqlast.AggMin, sqlast.AggMax:
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := relation.Compare(v, best)
			if (ex.Func == sqlast.AggMin && c < 0) || (ex.Func == sqlast.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	case sqlast.AggSum, sqlast.AggAvg:
		if len(vals) == 0 {
			return nil, nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			f, ok := relation.AsFloat(v)
			if !ok {
				return nil, fmt.Errorf("sqldb: %s over non-numeric value %v", ex.Func, v)
			}
			if _, isInt := v.(int64); !isInt {
				allInt = false
			}
			sum += f
		}
		if ex.Func == sqlast.AggAvg {
			return relation.Float(sum / float64(len(vals))), nil
		}
		if allInt {
			return relation.Int(int64(sum)), nil
		}
		return relation.Float(sum), nil
	default:
		return nil, fmt.Errorf("sqldb: unknown aggregate %q", ex.Func)
	}
}

func outputName(it sqlast.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch ex := it.Expr.(type) {
	case sqlast.ColExpr:
		return ex.Col.Column
	default:
		return it.Expr.String()
	}
}

func distinctRowset(rs *rowset) *rowset {
	out := &rowset{cols: rs.cols, dicts: rs.dicts}
	st := len(rs.cols)
	out.rows = make([]relation.Tuple, 0, len(rs.rows))
	if out.dicts != nil {
		out.enc = make([]uint32, 0, len(rs.rows)*st)
	}
	emit := func(ri int) {
		out.rows = append(out.rows, rs.rows[ri])
		if out.dicts != nil {
			out.enc = append(out.enc, rs.enc[ri*st:(ri+1)*st]...)
		}
	}
	if st == 1 && rs.encoded(0) {
		if nd := rs.dicts[0].Len(); nd <= 4*len(rs.rows)+1024 {
			seen := make([]bool, nd)
			for ri := range rs.rows {
				id := rs.enc[ri]
				if seen[id] {
					continue
				}
				seen[id] = true
				emit(ri)
			}
			return out
		}
		seen := make(map[uint32]bool, len(rs.rows))
		for ri := range rs.rows {
			id := rs.enc[ri]
			if seen[id] {
				continue
			}
			seen[id] = true
			emit(ri)
		}
		return out
	}
	if st == 2 && rs.encoded(0) && rs.encoded(1) {
		nd0, nd1 := int64(rs.dicts[0].Len()), int64(rs.dicts[1].Len())
		if prod := nd0 * nd1; prod <= 64*int64(len(rs.rows))+4096 {
			// The combined ID space is small: de-duplicate through a bitset
			// indexed by id0*nd1+id1 instead of hashing at all.
			seen := make([]uint64, (prod+63)/64)
			for ri := range rs.rows {
				key := int64(rs.enc[ri*2])*nd1 + int64(rs.enc[ri*2+1])
				w, b := key/64, uint(key%64)
				if seen[w]&(1<<b) != 0 {
					continue
				}
				seen[w] |= 1 << b
				emit(ri)
			}
			return out
		}
		seen := make(map[uint64]struct{}, len(rs.rows))
		for ri := range rs.rows {
			key := uint64(rs.enc[ri*2]) | uint64(rs.enc[ri*2+1])<<32
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			emit(ri)
		}
		return out
	}
	idx := make([]int, st)
	for i := range idx {
		idx[i] = i
	}
	seen := make(map[string]bool, len(rs.rows))
	var buf []byte
	for ri := range rs.rows {
		buf = rs.appendHashKey(buf[:0], ri, idx)
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		emit(ri)
	}
	return out
}

func orderByRowset(rs *rowset, items []sqlast.OrderItem) error {
	idxs := make([]int, len(items))
	for k, o := range items {
		found := -1
		for i, bc := range rs.cols {
			if strings.EqualFold(bc.name, o.Col.Column) || strings.EqualFold(bc.name, o.Col.String()) {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("sqldb: ORDER BY column %s not in result", o.Col)
		}
		idxs[k] = found
	}
	less := func(a, b relation.Tuple) bool {
		for k, i := range idxs {
			c := relation.Compare(a[i], b[i])
			if c != 0 {
				if items[k].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	}
	if rs.enc == nil {
		sort.SliceStable(rs.rows, func(a, b int) bool { return less(rs.rows[a], rs.rows[b]) })
		return nil
	}
	// Sort a permutation, then rebuild rows and the encoding in lockstep.
	st := len(rs.cols)
	perm := make([]int, len(rs.rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return less(rs.rows[perm[a]], rs.rows[perm[b]]) })
	rows := make([]relation.Tuple, len(rs.rows))
	enc := make([]uint32, len(rs.enc))
	for ni, oi := range perm {
		rows[ni] = rs.rows[oi]
		copy(enc[ni*st:(ni+1)*st], rs.enc[oi*st:(oi+1)*st])
	}
	rs.rows, rs.enc = rows, enc
	return nil
}
