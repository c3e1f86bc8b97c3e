package sqldb

import (
	"context"
	"fmt"
	"math/bits"
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

// rowset is an intermediate result in its only representation: dictionary
// IDs. Column i has dictionary dicts[i] — a frozen table's column
// dictionary, or for a computed column (an aggregate output) a per-result
// dictionary built at projection (relation.EncodeColumn) — and enc holds the
// n rows' IDs row-major with stride len(cols). Values are decoded once, when
// the outermost projection builds the Result (see decode).
type rowset struct {
	cols  []boundCol
	dicts []*relation.Dict
	enc   []uint32
	n     int
	// base is the table this rowset scans when its rows are exactly the
	// table's, in order (no filter or join applied yet): filters on such a
	// pristine scan and joins that build on it can use the table's value
	// index, and the kernels its column-major encoding. nil otherwise.
	base *relation.Table
	// key is the canonical subplan identity used by the memo; empty when
	// the rowset is not a cacheable fragment or no memo is attached.
	key string
}

// row returns row ri's IDs.
func (rs *rowset) row(ri int) []uint32 {
	st := len(rs.cols)
	return rs.enc[ri*st : (ri+1)*st]
}

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

	// top is the outermost query's evaluated FROM list: the join order the
	// statement ran (read by tests through export_test.go).
	top *fromList

	// Batch-kernel scratch, reused across operators of one statement (the
	// executor is single-goroutine and never reentrant within an operator):
	// the whole-input selection bitset and the packed per-block selection
	// indexes.
	selBits []uint64
	selIdx  []int32
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
	rs, err := e.queryRowset(q, true, nil, nil)
	if err != nil {
		return nil, err
	}
	return decode(rs, len(q.GroupBy) > 0 && !q.Distinct), nil
}

// decode builds the Result of the outermost query, the one place the
// executor boxes values: every ID decodes to its dictionary's first-seen
// value, into one allocation for all cells and one for the row headers. An
// empty GROUP BY result keeps nil Rows and every other empty result an
// empty slice; the public kwagg.Result makes both an empty slice.
func decode(rs *rowset, grouped bool) *Result {
	nc := len(rs.cols)
	res := &Result{Columns: make([]string, nc)}
	for i, bc := range rs.cols {
		res.Columns[i] = bc.name
	}
	if rs.n == 0 && grouped {
		return res
	}
	cells := make([]relation.Value, rs.n*nc)
	res.Rows = make([]relation.Tuple, rs.n)
	for ri := range res.Rows {
		row := relation.Tuple(cells[ri*nc : (ri+1)*nc : (ri+1)*nc])
		for k, id := range rs.row(ri) {
			row[k] = rs.dicts[k].Value(id)
		}
		res.Rows[ri] = row
	}
	return res
}

// queryRowset evaluates q into a rowset. topLevel marks the outermost query
// of a statement, whose join order is kept for tests. pushes restrict q's
// output columns (a semi-join reduction handed down by the enclosing query,
// see semijoin.go); plan, when non-nil, records how the FROM list was
// evaluated (Explain).
func (e *executor) queryRowset(q *sqlast.Query, topLevel bool, pushes []semiPush, plan *Plan) (*rowset, error) {
	fl, err := e.evalFrom(q, pushes, plan)
	if err != nil {
		return nil, err
	}
	if topLevel {
		e.top = fl
	}
	acc := fl.sources[fl.start]
	for si, st := range fl.steps {
		src := fl.sources[st.src]
		if err := e.checkpoint(); err != nil {
			return nil, err
		}
		key := ""
		if acc.key != "" && src.key != "" {
			ons := make([]string, len(st.eqs))
			for k, jp := range st.eqs {
				ons[k] = jp.String()
			}
			sort.Strings(ons)
			key = "join(" + acc.key + ")+(" + src.key + ")|on:" + strings.Join(ons, ",")
		}
		joined, err := e.memoized(key, func() (*rowset, error) {
			out, indexed, err := e.join(acc, src, st.eqs)
			if plan != nil {
				plan.Steps[si].Access = joinAccess(indexed)
			}
			return out, err
		})
		if err != nil {
			return nil, err
		}
		acc = joined
	}

	// Remaining predicates (including join predicates that closed a cycle).
	for pi, p := range q.Where {
		if fl.consumed[pi] {
			continue
		}
		filtered, _, err := e.filterRows(acc, p)
		if err != nil {
			return nil, err
		}
		acc = filtered
	}

	if err := e.checkpoint(); err != nil {
		return nil, err
	}
	order, err := orderColumns(acc, q)
	if err != nil {
		return nil, err
	}
	res, err := e.project(acc, q)
	if err != nil {
		return nil, err
	}
	if len(order) > 0 {
		orderRowset(res, order, q.OrderBy)
	}
	if q.Limit != nil && *q.Limit >= 0 && res.n > *q.Limit { // a negative LIMIT, as in SQLite, is none
		res.n = *q.Limit
		res.enc = res.enc[:res.n*len(res.cols)]
	}
	return res, nil
}

// fromList is a query's FROM list after evaluation: every source scanned or
// derived, filtered by its local predicates and semi-join reduced, and the
// greedy join order over them. ExecOpts joins in exactly this order and
// Explain prints it.
type fromList struct {
	sources  []*rowset
	consumed []bool // WHERE conjuncts applied below the post-join filter phase
	start    int    // the FROM entry the join order starts from
	steps    []joinStep
}

// evalFrom evaluates q's FROM list: base sources and their local filters
// first, then derived tables, each restricted to the keys of its
// already-evaluated restricted join partners (see semijoin.go), and finally
// the join order over the results. pushes are the restrictions handed down
// by the enclosing query onto q's output columns.
func (e *executor) evalFrom(q *sqlast.Query, pushes []semiPush, plan *Plan) (*fromList, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("sqldb: query has no FROM clause")
	}
	n := len(q.From)
	fl := &fromList{sources: make([]*rowset, n), consumed: make([]bool, len(q.Where))}
	cols := make([][]boundCol, n)
	for i, tr := range q.From {
		c, err := e.fromCols(tr)
		if err != nil {
			return nil, err
		}
		cols[i] = c
	}

	// Single-source predicates are pushed below the joins. They are assigned
	// by column binding alone, before any source is evaluated, each to the
	// first FROM entry that binds all of its columns.
	local := make([][]sqlast.Pred, n)
	for i := range q.From {
		probe := rowset{cols: cols[i]}
		for pi, p := range q.Where {
			if fl.consumed[pi] || !localPred(&probe, p) {
				continue
			}
			local[i] = append(local[i], p)
			fl.consumed[pi] = true
		}
	}
	// Pushes from the enclosing query go to the FROM entry their column
	// copies (the enclosing query checked each routes soundly).
	var outer [][]semiPush
	if len(pushes) > 0 {
		outer = make([][]semiPush, n)
		for _, p := range pushes {
			f, c, ok := semiRoute(q, cols, p.col)
			if !ok {
				return nil, fmt.Errorf("sqldb: semi-join push onto unroutable column %d", p.col)
			}
			p.col = c
			outer[f] = append(outer[f], p)
		}
	}
	own := func(i int) []semiPush {
		if outer == nil {
			return nil
		}
		return outer[i]
	}
	if plan != nil {
		plan.Shape = queryShape(q)
		plan.Sources = make([]PlanSource, n)
	}

	restricted := make([]bool, n)
	eval := func(i int, semi []semiPush) error {
		if err := e.checkpoint(); err != nil {
			return err
		}
		tr, mine := q.From[i], own(i)
		var sub *Plan
		if plan != nil && tr.Subquery != nil {
			sub = &Plan{}
		}
		all := append(mine[:len(mine):len(mine)], semi...)
		rs, err := e.source(tr, cols[i], all, sub)
		if err != nil {
			return err
		}
		var ps *PlanSource
		if plan != nil {
			ps = &plan.Sources[i]
			*ps = PlanSource{Alias: tr.Alias, Name: tr.Name, Derived: sub}
			if tr.Subquery != nil {
				ps.Name = "(subquery)"
			}
		}
		if rs, err = e.filterLocal(rs, local[i], ps); err != nil {
			return err
		}
		if tr.Subquery == nil {
			// A base scan takes its pushes after its local filters, which
			// may still answer from the value index of the pristine scan.
			for _, p := range mine {
				var indexed bool
				if rs, indexed, err = e.semiFilter(rs, p.col, p.keys); err != nil {
					return err
				}
				if ps != nil {
					ps.Semi = append(ps.Semi, p.String()+filterAccess(indexed))
				}
			}
		}
		fl.sources[i] = rs
		restricted[i] = len(local[i]) > 0 || len(all) > 0 || (tr.Subquery != nil && len(tr.Subquery.Where) > 0)
		if ps != nil {
			ps.Rows = rs.n
			if tr.Subquery != nil {
				// The pushes were handed down: the derived plan's scans
				// record how they ran.
				for _, p := range all {
					ps.Semi = append(ps.Semi, p.String())
				}
			}
		}
		return nil
	}

	// Base sources first, then the derived tables filtered on their own:
	// both are ready to restrict their join partners. The join conjuncts
	// that can reduce a derived table are looked for only when some source
	// is restricted, so a statement without one does no extra work.
	var selfFiltered []int
	derived, restricting := false, false
	for i, tr := range q.From {
		if tr.Subquery == nil {
			if err := eval(i, nil); err != nil {
				return nil, err
			}
			restricting = restricting || restricted[i]
			continue
		}
		derived = true
		if len(tr.Subquery.Where) > 0 || len(local[i]) > 0 || len(own(i)) > 0 {
			selfFiltered = append(selfFiltered, i)
			restricting = true
		}
	}
	var edges []semiEdge
	if derived && restricting {
		edges = e.semiEdges(q, cols)
	}
	for _, i := range selfFiltered {
		semi, err := e.semiPushes(fl, cols, edges, restricted, i)
		if err != nil {
			return nil, err
		}
		if err := eval(i, semi); err != nil {
			return nil, err
		}
	}
	// Then, repeatedly, the pending derived table whose smallest restricted
	// partner is smallest (ties on FROM position), reduced by every
	// restricted partner it has.
	for {
		best, bestRows := -1, 0
		for _, ed := range edges {
			if fl.sources[ed.to] != nil || !restricted[ed.from] {
				continue
			}
			rows := fl.sources[ed.from].n
			if best < 0 || rows < bestRows || (rows == bestRows && ed.to < best) {
				best, bestRows = ed.to, rows
			}
		}
		if best < 0 {
			break
		}
		semi, err := e.semiPushes(fl, cols, edges, restricted, best)
		if err != nil {
			return nil, err
		}
		if err := eval(best, semi); err != nil {
			return nil, err
		}
	}
	// Leftovers have no restricted partner and are evaluated whole.
	for i := range q.From {
		if fl.sources[i] == nil {
			if err := eval(i, nil); err != nil {
				return nil, err
			}
		}
	}

	fl.start, fl.steps = joinOrder(q, fl.sources, fl.consumed)
	if plan != nil {
		plan.record(q, fl)
	}
	return fl, nil
}

// filterLocal applies the predicates local to one source as a unit, so the
// filtered rowset is memoized under its canonical scan-plus-filters key. ps,
// when non-nil, records each predicate with the access path it ran.
func (e *executor) filterLocal(rs *rowset, preds []sqlast.Pred, ps *PlanSource) (*rowset, error) {
	if len(preds) == 0 {
		return rs, nil
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
	return e.memoized(key, func() (*rowset, error) {
		cur := rs
		for _, p := range preds {
			next, indexed, err := e.filterRows(cur, p)
			if err != nil {
				return nil, err
			}
			if ps != nil {
				ps.Pushed = append(ps.Pushed, p.String()+filterAccess(indexed))
			}
			cur = next
		}
		return cur, nil
	})
}

// joinStep is one step of the join order: FROM entry src joins the
// accumulated result on eqs (accumulated side Left), the WHERE conjuncts at
// positions on; without eqs it is a cross join.
type joinStep struct {
	src int
	eqs []sqlast.JoinPred
	on  []int
}

// joinOrder picks the greedy join order over the evaluated sources: start
// from the smallest source, then repeatedly join the smallest source
// connected to the accumulated result by a join predicate (falling back to
// the smallest remaining source when nothing connects — a cross join). This
// keeps intermediate results small without a full optimizer and is
// deterministic (ties break on FROM position). It reads only source sizes
// and column bindings, never rows, and marks the join predicates it uses
// consumed.
func joinOrder(q *sqlast.Query, sources []*rowset, consumed []bool) (int, []joinStep) {
	start := 0
	for i := 1; i < len(sources); i++ {
		if sources[i].n < sources[start].n {
			start = i
		}
	}
	if len(sources) == 1 {
		return start, nil
	}
	remaining := make([]int, 0, len(sources)-1)
	for i := range sources {
		if i != start {
			remaining = append(remaining, i)
		}
	}
	acc := &rowset{cols: append([]boundCol(nil), sources[start].cols...)}
	connects := func(src *rowset) bool {
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
	steps := make([]joinStep, 0, len(remaining))
	for len(remaining) > 0 {
		pick, pickPos := -1, -1
		for pos, idx := range remaining {
			if !connects(sources[idx]) {
				continue
			}
			if pick < 0 || sources[idx].n < sources[pick].n {
				pick, pickPos = idx, pos
			}
		}
		if pick < 0 {
			for pos, idx := range remaining {
				if pick < 0 || sources[idx].n < sources[pick].n {
					pick, pickPos = idx, pos
				}
			}
		}
		src := sources[pick]
		remaining = append(remaining[:pickPos], remaining[pickPos+1:]...)
		st := joinStep{src: pick}
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
				st.eqs = append(st.eqs, jp)
			case acc.has(r) && src.has(l):
				st.eqs = append(st.eqs, sqlast.JoinPred{Left: r, Right: l})
			default:
				continue
			}
			st.on = append(st.on, pi)
			consumed[pi] = true
		}
		acc.cols = append(acc.cols, src.cols...)
		steps = append(steps, st)
	}
	return start, steps
}

// fromCols returns the columns FROM entry tr binds, as source binds them:
// the relation's attributes, or the derived table's output names, under
// tr's alias.
func (e *executor) fromCols(tr sqlast.TableRef) ([]boundCol, error) {
	if tr.Subquery != nil {
		cols := make([]boundCol, len(tr.Subquery.Select))
		for k, it := range tr.Subquery.Select {
			cols[k] = boundCol{table: tr.Alias, name: outputName(it)}
		}
		return cols, nil
	}
	t := e.db.Table(tr.Name)
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown relation %q", tr.Name)
	}
	cols := make([]boundCol, len(t.Schema.Attributes))
	for k, a := range t.Schema.Attributes {
		cols[k] = boundCol{table: tr.Alias, name: a.Name}
	}
	return cols, nil
}

// source evaluates one FROM entry bound to cols (see fromCols): a pristine
// scan of a base relation, or a derived table evaluated under pushes. A
// derived table reduced by a push is specific to its statement's partners
// and is never memoized.
func (e *executor) source(tr sqlast.TableRef, cols []boundCol, pushes []semiPush, plan *Plan) (*rowset, error) {
	if tr.Subquery != nil {
		key := ""
		if e.memo != nil && len(pushes) == 0 {
			key = "sub|" + tr.Subquery.String()
		}
		sub, err := e.memoized(key, func() (*rowset, error) {
			return e.queryRowset(tr.Subquery, false, pushes, plan)
		})
		if err != nil {
			return nil, err
		}
		// Rebind the subquery's output columns under the FROM alias on a
		// fresh rowset: the underlying IDs may be shared through the memo
		// and must never be mutated.
		rs := &rowset{cols: cols, dicts: sub.dicts, enc: sub.enc, n: sub.n}
		if key != "" {
			rs.key = key + "|as:" + strings.ToLower(tr.Alias)
		}
		return rs, nil
	}
	t := e.db.Table(tr.Name)
	if t == nil {
		return nil, fmt.Errorf("sqldb: unknown relation %q", tr.Name)
	}
	dicts, enc, ok := t.Encoding()
	if !ok {
		return nil, fmt.Errorf("sqldb: relation %q is not frozen; freeze the database before executing", t.Schema.Name)
	}
	rs := &rowset{cols: cols, dicts: dicts, enc: enc, n: t.Len(), base: t}
	if e.memo != nil {
		rs.key = "scan|" + strings.ToLower(tr.Name) + "|" + strings.ToLower(tr.Alias)
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

// filterRows keeps the rows of rs that satisfy p, in ascending row order.
// indexed reports whether they came from the value index of a pristine scan
// (see filterEntries) rather than a sweep.
func (e *executor) filterRows(rs *rowset, p sqlast.Pred) (out *rowset, indexed bool, err error) {
	out = &rowset{cols: rs.cols, dicts: rs.dicts}
	if rs.key != "" {
		out.key = rs.key + "|f:" + p.String()
	}
	var sel []uint64
	switch pp := p.(type) {
	case sqlast.ComparePred:
		i, err := rs.resolve(pp.Col)
		if err != nil {
			return nil, false, err
		}
		if pp.Op != sqlast.OpEq {
			return e.selectEntries(rs, i, func(v relation.Value) bool {
				return holds(pp.Op, relation.Compare(v, pp.Value))
			}, out)
		}
		// Equality selects one dictionary ID, which ID never returns for
		// NULL, so NULL rows never match.
		id, ok := rs.dicts[i].ID(pp.Value)
		if !ok {
			return out, rs.base != nil, nil // no row holds the constant
		}
		indexed, err = e.filterEntries(rs, i, id, nil, out)
		return out, indexed, err
	case sqlast.ContainsPred:
		i, err := rs.resolve(pp.Col)
		if err != nil {
			return nil, false, err
		}
		return e.selectEntries(rs, i, func(v relation.Value) bool {
			s, ok := v.(string)
			return ok && relation.ContainsFold(s, pp.Needle)
		}, out)
	case sqlast.JoinPred:
		sel, err = e.selectColumns(rs, pp.Left, sqlast.OpEq, pp.Right)
	case sqlast.ColComparePred:
		sel, err = e.selectColumns(rs, pp.Left, pp.Op, pp.Right)
	default:
		return nil, false, fmt.Errorf("sqldb: unsupported predicate %T", p)
	}
	if err != nil {
		return nil, false, err
	}
	return out, false, e.gatherSelected(rs, sel, out)
}

// holds reports whether a comparison result c satisfies op.
func holds(op sqlast.CmpOp, c int) bool {
	switch op {
	case sqlast.OpEq:
		return c == 0
	case sqlast.OpNe:
		return c != 0
	case sqlast.OpLt:
		return c < 0
	case sqlast.OpLe:
		return c <= 0
	case sqlast.OpGt:
		return c > 0
	case sqlast.OpGe:
		return c >= 0
	}
	return false
}

// selectEntries keeps in out the rows of rs whose column i holds a
// dictionary entry keep accepts, judged by the entry's stored value; NullID
// is never kept. On a pristine scan, or when the dictionary is no larger
// than the rowset, keep runs once per entry (Dict.Select) and filterEntries
// selects the rows. Otherwise it runs once per row on the decoded entry, so
// a small rowset over a large column does not pay for the whole dictionary.
func (e *executor) selectEntries(rs *rowset, i int, keep func(relation.Value) bool, out *rowset) (*rowset, bool, error) {
	d := rs.dicts[i]
	if rs.base != nil || d.Len() <= rs.n {
		indexed, err := e.filterEntries(rs, i, 0, d.Select(keep), out)
		return out, indexed, err
	}
	sel := e.ensureBits((rs.n + 63) / 64)
	clear(sel)
	st := len(rs.cols)
	for ri := 0; ri < rs.n; ri++ {
		if err := e.step(); err != nil {
			return nil, false, err
		}
		if id := rs.enc[ri*st+i]; id != relation.NullID && keep(d.Value(id)) {
			sel[ri>>6] |= 1 << (uint(ri) & 63)
		}
	}
	return out, false, e.gatherSelected(rs, sel, out)
}

// selectColumns fills the selection bitset of the rows of rs where column l
// compares to column r by op; a NULL on either side never passes. Equality
// compares IDs through the remap from l's dictionary into r's, as the hash
// join does; the other operators compare the decoded entries.
func (e *executor) selectColumns(rs *rowset, lc sqlast.Col, op sqlast.CmpOp, rc sqlast.Col) ([]uint64, error) {
	l, err := rs.resolve(lc)
	if err != nil {
		return nil, err
	}
	r, err := rs.resolve(rc)
	if err != nil {
		return nil, err
	}
	sel := e.ensureBits((rs.n + 63) / 64)
	clear(sel)
	st := len(rs.cols)
	var remap []uint32
	if op == sqlast.OpEq {
		remap = rs.dicts[l].RemapCached(rs.dicts[r])
	}
	for ri := 0; ri < rs.n; ri++ {
		if err := e.step(); err != nil {
			return nil, err
		}
		a, b := rs.enc[ri*st+l], rs.enc[ri*st+r]
		var keep bool
		if remap != nil {
			keep = remap[a] == b // NullID remaps to NoID, which no cell holds
		} else {
			keep = a != relation.NullID && b != relation.NullID &&
				holds(op, relation.Compare(rs.dicts[l].Value(a), rs.dicts[r].Value(b)))
		}
		if keep {
			sel[ri>>6] |= 1 << (uint(ri) & 63)
		}
	}
	return sel, nil
}

// indexJoin reports whether a join of right on eqs reads right's value
// index instead of threading chains: one key column over a pristine scan.
func indexJoin(right *rowset, eqs []sqlast.JoinPred) bool {
	return len(eqs) == 1 && right.base != nil
}

// join combines two rowsets. With equality predicates it hash-joins over
// dictionary IDs: each probe row's key is translated into the build side's
// (right's) ID space through a remap table (one key column) or folded into
// a composite key number (several, see compositeKeys), and looked up in the
// build side's value index when indexJoin holds, or else in chains threaded
// per key over its rows. Without predicates it produces the cross product.
func (e *executor) join(left, right *rowset, eqs []sqlast.JoinPred) (out *rowset, indexed bool, err error) {
	width := len(left.cols) + len(right.cols)
	out = &rowset{cols: make([]boundCol, 0, width), dicts: make([]*relation.Dict, 0, width)}
	out.cols = append(append(out.cols, left.cols...), right.cols...)
	out.dicts = append(append(out.dicts, left.dicts...), right.dicts...)
	if len(eqs) == 0 {
		for li := 0; li < left.n; li++ {
			for ri := 0; ri < right.n; ri++ {
				if err := e.step(); err != nil {
					return nil, false, err
				}
				out.enc = append(append(out.enc, left.row(li)...), right.row(ri)...)
			}
		}
		out.n = left.n * right.n
		return out, false, nil
	}
	lidx := make([]int, len(eqs))
	ridx := make([]int, len(eqs))
	for k, jp := range eqs {
		li, err := left.resolve(jp.Left)
		if err != nil {
			return nil, false, err
		}
		ri, err := right.resolve(jp.Right)
		if err != nil {
			return nil, false, err
		}
		lidx[k], ridx[k] = li, ri
	}
	if len(eqs) == 1 {
		li, ri := lidx[0], ridx[0]
		b := build{t: right.base, col: ri}
		if indexed = indexJoin(right, eqs); !indexed {
			b = build{c: buildChains(right.enc, len(right.cols), ri, right.n, right.dicts[ri].Len())}
		}
		pk := &probeKeys{col: colView(left, li), enc: left.enc, st: len(left.cols), off: li,
			remap: left.dicts[li].RemapCached(right.dicts[ri])}
		return out, indexed, e.probe(left, right, pk, b, out)
	}
	bkeys, pkeys, space, err := e.compositeKeys(left, right, lidx, ridx)
	if err != nil {
		return nil, false, err
	}
	c := buildChains(bkeys, 1, 0, right.n, space)
	return out, false, e.probe(left, right, &probeKeys{ids: pkeys}, build{c: c}, out)
}

// compositeKeys numbers the distinct tuples of right's key columns ridx
// densely in first-seen order and returns each build row's number (bkeys),
// each probe row's number for its key columns lidx translated into right's
// ID spaces (pkeys; NoID when no build row holds that tuple), and the
// number space. The tuple folds one column at a time through a map keyed by
// (number so far, next ID), so every arity keys on uint64s. NULL never
// joins: the remap sends NullID to NoID, which no build key holds.
func (e *executor) compositeKeys(left, right *rowset, lidx, ridx []int) (bkeys, pkeys []uint32, space int, err error) {
	lst, rst := len(left.cols), len(right.cols)
	bkeys = make([]uint32, right.n)
	for rj := range bkeys {
		bkeys[rj] = right.enc[rj*rst+ridx[0]]
	}
	pkeys = make([]uint32, left.n)
	remap := left.dicts[lidx[0]].RemapCached(right.dicts[ridx[0]])
	for lj := range pkeys {
		pkeys[lj] = remap[left.enc[lj*lst+lidx[0]]]
	}
	for k := 1; k < len(ridx); k++ {
		if err := e.checkpoint(); err != nil {
			return nil, nil, 0, err
		}
		level := make(map[uint64]uint32)
		for rj, b := range bkeys {
			key := uint64(b)<<32 | uint64(right.enc[rj*rst+ridx[k]])
			id, ok := level[key]
			if !ok {
				id = uint32(len(level))
				level[key] = id
			}
			bkeys[rj] = id
		}
		remap := left.dicts[lidx[k]].RemapCached(right.dicts[ridx[k]])
		for lj, p := range pkeys {
			if p == relation.NoID {
				continue
			}
			id, ok := level[uint64(p)<<32|uint64(remap[left.enc[lj*lst+lidx[k]]])]
			if !ok {
				id = relation.NoID
			}
			pkeys[lj] = id
		}
		space = len(level)
	}
	return bkeys, pkeys, space, nil
}

// project evaluates the SELECT list, applying GROUP BY, aggregates and
// DISTINCT. Pass-through columns keep their dictionaries; every aggregate
// output gets a per-result dictionary (relation.EncodeColumn). DISTINCT over
// plain columns dedupes rs before anything is copied, and over aggregate or
// GROUP BY output dedupes the projection.
func (e *executor) project(rs *rowset, q *sqlast.Query) (*rowset, error) {
	plan, err := resolveSelect(rs, q.Select)
	if err != nil {
		return nil, err
	}
	nc := len(plan)
	out := &rowset{cols: make([]boundCol, nc), dicts: make([]*relation.Dict, nc)}
	hasAgg := false
	for k, it := range q.Select {
		out.cols[k] = boundCol{name: outputName(it)}
		hasAgg = hasAgg || plan[k].agg
	}
	st := len(rs.cols)

	if !hasAgg && len(q.GroupBy) == 0 {
		idx := make([]int, nc)
		for k, s := range plan {
			out.dicts[k] = rs.dicts[s.col]
			idx[k] = s.col
		}
		if q.Distinct {
			return out, e.distinctRows(rs, idx, out)
		}
		out.n = rs.n
		out.enc = make([]uint32, rs.n*nc)
		for ri := 0; ri < rs.n; ri++ {
			src, dst := rs.row(ri), out.enc[ri*nc:(ri+1)*nc]
			for k, c := range idx {
				dst[k] = src[c]
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
	// Bucket rows into group slots in first-seen order. Unlike joins,
	// grouping does not skip NULLs: NULL keys (NullID) form one group, apart
	// from the string "NULL".
	var (
		rowSlot []int32
		firsts  []int
		sizes   []int32
	)
	par := e.parFor(rs.n) > 1
	if par && len(gidx) >= 1 && len(gidx) <= 2 {
		rowSlot, firsts, sizes, err = e.parGroupSlots(rs, gidx)
	} else {
		rowSlot, firsts, sizes, err = e.batchGroupSlots(rs, gidx)
	}
	if err != nil {
		return nil, err
	}
	if len(gidx) == 0 && rs.n == 0 {
		firsts[0] = -1 // aggregates over an empty input still yield one row
	}

	ns := len(firsts)
	out.n = ns
	out.enc = make([]uint32, ns*nc)
	vals := make([]relation.Value, ns) // one aggregate column's results
	var lists [][]int
	for k, s := range plan {
		if !s.agg {
			out.dicts[k] = rs.dicts[s.col]
			for slot, first := range firsts {
				if first >= 0 {
					out.enc[slot*nc+k] = rs.enc[first*st+s.col]
				}
			}
			continue
		}
		if par && lists == nil && !sizeCount(rs, s) {
			lists = carveLists(rowSlot, sizes)
		}
		if err := e.fold(rs, s, rowSlot, sizes, lists, vals); err != nil {
			return nil, err
		}
		d, ids := relation.EncodeColumn(vals)
		out.dicts[k] = d
		for slot, id := range ids {
			out.enc[slot*nc+k] = id
		}
	}
	if !q.Distinct {
		return out, nil
	}
	idx := make([]int, nc)
	for k := range idx {
		idx[k] = k
	}
	res := &rowset{cols: out.cols, dicts: out.dicts}
	return res, e.distinctRows(out, idx, res)
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

// aggState folds one aggregate over the dictionary IDs of every group slot's
// rows, each slot's rows in ascending order.
type aggState struct {
	ex     sqlast.AggExpr
	dict   *relation.Dict
	count  []int64   // COUNT, and the SUM/AVG value count
	best   []uint32  // MIN/MAX: the best ID so far, NoID before the first
	sum    []float64 // SUM/AVG, folded in float64 in row order
	notInt []bool    // SUM: some summed value was not an int64
}

func newAggState(ex sqlast.AggExpr, d *relation.Dict, ns int) (*aggState, error) {
	a := &aggState{ex: ex, dict: d}
	switch ex.Func {
	case sqlast.AggCount:
		a.count = make([]int64, ns)
	case sqlast.AggMin, sqlast.AggMax:
		a.best = make([]uint32, ns)
		for i := range a.best {
			a.best[i] = relation.NoID
		}
	case sqlast.AggSum, sqlast.AggAvg:
		a.count, a.sum, a.notInt = make([]int64, ns), make([]float64, ns), make([]bool, ns)
	default:
		return nil, fmt.Errorf("sqldb: unknown aggregate %q", ex.Func)
	}
	return a, nil
}

// add folds the ID of one row of slot. NULL is skipped; under DISTINCT so is
// an ID the slot has seen (seen holds slot<<32|id). MIN and MAX decode only
// when the ID differs from the slot's best; SUM and AVG decode every row.
func (a *aggState) add(seen map[uint64]struct{}, slot int32, id uint32) error {
	if id == relation.NullID {
		return nil
	}
	if a.ex.Distinct {
		k := uint64(slot)<<32 | uint64(id)
		if _, ok := seen[k]; ok {
			return nil
		}
		seen[k] = struct{}{}
	}
	switch a.ex.Func {
	case sqlast.AggCount:
		a.count[slot]++
	case sqlast.AggMin, sqlast.AggMax:
		b := a.best[slot]
		if b == id {
			return nil
		}
		if b == relation.NoID {
			a.best[slot] = id
			return nil
		}
		c := relation.Compare(a.dict.Value(id), a.dict.Value(b))
		if (a.ex.Func == sqlast.AggMin && c < 0) || (a.ex.Func == sqlast.AggMax && c > 0) {
			a.best[slot] = id
		}
	default:
		v := a.dict.Value(id)
		f, ok := relation.AsFloat(v)
		if !ok {
			return fmt.Errorf("sqldb: %s over non-numeric value %v", a.ex.Func, v)
		}
		if _, isInt := v.(int64); !isInt {
			a.notInt[slot] = true
		}
		a.sum[slot] += f
		a.count[slot]++
	}
	return nil
}

// result returns slot's aggregate value: NULL for MIN, MAX, SUM and AVG over
// no value.
func (a *aggState) result(slot int) relation.Value {
	switch {
	case a.ex.Func == sqlast.AggCount:
		return relation.Int(a.count[slot])
	case a.best != nil:
		if a.best[slot] == relation.NoID {
			return nil
		}
		return a.dict.Value(a.best[slot])
	case a.count[slot] == 0:
		return nil
	case a.ex.Func == sqlast.AggAvg:
		return relation.Float(a.sum[slot] / float64(a.count[slot]))
	case a.notInt[slot]:
		return relation.Float(a.sum[slot])
	default:
		return relation.Int(int64(a.sum[slot]))
	}
}

// sizeCount reports whether aggregate item s is the group size: a
// non-DISTINCT COUNT over a column whose dictionary never interned NULL.
func sizeCount(rs *rowset, s selItem) bool {
	return s.ex.Func == sqlast.AggCount && !s.ex.Distinct && !rs.dicts[s.col].HasNull()
}

// fold computes aggregate item s of every group slot into vals. A sizeCount
// item reads the group sizes. Otherwise the rows are folded in ascending
// order: in one columnar pass over the slot assignment, or, when lists (the
// per-slot row lists) are given, shard-parallel over contiguous slot
// ranges, each slot on exactly one worker, so every fold — float sums
// included — associates as the single-shard fold does.
func (e *executor) fold(rs *rowset, s selItem, rowSlot []int32, sizes []int32, lists [][]int, vals []relation.Value) error {
	if sizeCount(rs, s) {
		for slot, sz := range sizes {
			vals[slot] = relation.Int(int64(sz))
		}
		return nil
	}
	a, err := newAggState(s.ex, rs.dicts[s.col], len(vals))
	if err != nil {
		return err
	}
	st := len(rs.cols)
	newSeen := func() map[uint64]struct{} {
		if s.ex.Distinct {
			return make(map[uint64]struct{})
		}
		return nil
	}
	if lists != nil {
		workers := e.parFor(rs.n)
		err = e.runParts(workers, workers, func(p int) error {
			seen := newSeen()
			for slot := p * len(vals) / workers; slot < (p+1)*len(vals)/workers; slot++ {
				if err := e.pollCtx(); err != nil {
					return err
				}
				for _, ri := range lists[slot] {
					if err := a.add(seen, int32(slot), rs.enc[ri*st+s.col]); err != nil {
						return err
					}
				}
			}
			return nil
		})
	} else {
		seen := newSeen()
		for lo := 0; lo < rs.n && err == nil; lo += relation.BlockSize {
			if err = e.stepN(relation.BlockSize); err != nil {
				break
			}
			for ri := lo; ri < min(lo+relation.BlockSize, rs.n) && err == nil; ri++ {
				err = a.add(seen, rowSlot[ri], rs.enc[ri*st+s.col])
			}
		}
	}
	if err != nil {
		return err
	}
	for slot := range vals {
		vals[slot] = a.result(slot)
	}
	return nil
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

// hashMul is the multiplier of the DISTINCT kernel's hash (2^64 divided by
// the golden ratio, as in Fibonacci hashing).
const hashMul = 0x9E3779B97F4A7C15

// distinctRows writes into out, in row order, columns cols of the first row
// of every distinct tuple of those columns in rs. One pass dedupes through a
// flat open-addressing table of row numbers, hashed on the tuple's IDs and
// compared on them (NULL is one value: NullID is an ID), and marks the kept
// rows in the selection bitset; a second copies out only their selected
// IDs. The table has the next power of two at or above twice the smaller of
// the row count and the product of the columns' dictionary sizes, so it is
// at most half full.
func (e *executor) distinctRows(rs *rowset, cols []int, out *rowset) error {
	n, st := rs.n, len(rs.cols)
	if n == 0 {
		return nil
	}
	bound := 1
	for _, c := range cols {
		if bound = min(bound*rs.dicts[c].Len(), n); bound == n {
			break
		}
	}
	shift := 64 - bits.Len(uint(2*bound-1)) // the table has 1<<(64-shift) slots
	table := make([]int32, 1<<(64-shift))
	mask := uint64(len(table) - 1)
	sel := e.ensureBits((n + 63) / 64)
	clear(sel)
	kept := 0
	for lo := 0; lo < n; lo += relation.BlockSize {
		hi := min(lo+relation.BlockSize, n)
		if err := e.stepN(hi - lo); err != nil {
			return err
		}
		for ri := lo; ri < hi; ri++ {
			row := rs.enc[ri*st : ri*st+st]
			h := uint64(0)
			for _, c := range cols {
				h = (h ^ uint64(row[c])) * hashMul
			}
		probe:
			for s := h >> shift; ; s = (s + 1) & mask {
				r := table[s]
				if r == 0 {
					table[s] = int32(ri + 1)
					sel[ri>>6] |= 1 << (uint(ri) & 63)
					kept++
					break
				}
				prev := rs.enc[int(r-1)*st:]
				for _, c := range cols {
					if prev[c] != row[c] {
						continue probe
					}
				}
				break
			}
		}
	}
	out.n = kept
	out.enc = make([]uint32, 0, kept*len(cols))
	for w, word := range sel {
		for ; word != 0; word &= word - 1 {
			row := rs.row(w*64 + bits.TrailingZeros64(word))
			for _, c := range cols {
				out.enc = append(out.enc, row[c])
			}
		}
	}
	return nil
}

// orderColumns resolves q's ORDER BY items to positions in its SELECT list,
// as sqlite3 does: a qualified column matches the item that selects that
// table's column (both resolved in rs, the rowset the SELECT list reads), an
// unqualified name matches the item with that output name (its alias or
// column name) and otherwise the item selecting the column it resolves to.
// An unqualified name two items carry is ambiguous.
func orderColumns(rs *rowset, q *sqlast.Query) ([]int, error) {
	idxs := make([]int, len(q.OrderBy))
	for k, o := range q.OrderBy {
		found := -1
		if o.Col.Table == "" {
			for j, it := range q.Select {
				if !strings.EqualFold(outputName(it), o.Col.Column) {
					continue
				}
				if found >= 0 {
					return nil, fmt.Errorf("sqldb: ambiguous ORDER BY column %s", o.Col)
				}
				found = j
			}
		}
		if found < 0 {
			if i, err := rs.resolve(o.Col); err == nil {
				for j, it := range q.Select {
					if ce, ok := it.Expr.(sqlast.ColExpr); ok {
						if ci, err := rs.resolve(ce.Col); err == nil && ci == i {
							found = j
							break
						}
					}
				}
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("sqldb: ORDER BY column %s not in result", o.Col)
		}
		idxs[k] = found
	}
	return idxs, nil
}

// orderRowset sorts rs's rows stably by output columns idxs, comparing the
// decoded entries (relation.Compare): it sorts a row permutation and then
// rewrites the IDs in that order.
func orderRowset(rs *rowset, idxs []int, items []sqlast.OrderItem) {
	perm := make([]int, rs.n)
	for i := range perm {
		perm[i] = i
	}
	st := len(rs.cols)
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := rs.row(perm[a]), rs.row(perm[b])
		for k, i := range idxs {
			if ra[i] == rb[i] {
				continue
			}
			c := relation.Compare(rs.dicts[i].Value(ra[i]), rs.dicts[i].Value(rb[i]))
			if c != 0 {
				return (c < 0) != items[k].Desc
			}
		}
		return false
	})
	enc := make([]uint32, len(rs.enc))
	for ni, oi := range perm {
		copy(enc[ni*st:(ni+1)*st], rs.row(oi))
	}
	rs.enc = enc
}
