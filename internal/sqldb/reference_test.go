package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// refExec is an independent reference evaluator used for differential
// testing: nested loops over the FROM sources in FROM order, then grouping,
// aggregation and projection — no hash joins, no join ordering, no
// dictionaries or indexes. It shares no evaluation code with the executor,
// so any divergence from ExecOpts is a bug in one of them.
//
// The WHERE clause is a conjunction, so each conjunct is applied as soon as
// the nested loops have bound every column it reads; the product is never
// materialized beyond the rows that survive the conjuncts seen so far,
// which keeps the oracle usable on multi-block tables and the dataset
// workloads. Columns resolve against the full FROM list, exactly as they
// would over the complete product.
func refExec(db *relation.Database, q *sqlast.Query) (*Result, error) {
	if len(q.From) == 0 {
		return nil, fmt.Errorf("ref: query has no FROM clause")
	}
	type col struct{ table, name string }
	var cols []col
	var sources [][]relation.Tuple
	var widths []int // widths[k]: columns bound once sources 0..k are
	for _, tr := range q.From {
		var names []string
		var data []relation.Tuple
		if tr.Subquery != nil {
			sub, err := refExec(db, tr.Subquery)
			if err != nil {
				return nil, err
			}
			names, data = sub.Columns, sub.Rows
		} else {
			t := db.Table(tr.Name)
			if t == nil {
				return nil, fmt.Errorf("ref: unknown relation %q", tr.Name)
			}
			names, data = t.Schema.AttrNames(), t.Tuples
		}
		for _, n := range names {
			cols = append(cols, col{table: tr.Alias, name: n})
		}
		sources = append(sources, data)
		widths = append(widths, len(cols))
	}

	resolve := func(c sqlast.Col) (int, error) {
		found := -1
		for i, bc := range cols {
			if !strings.EqualFold(bc.name, c.Column) {
				continue
			}
			if c.Table != "" && !strings.EqualFold(bc.table, c.Table) {
				continue
			}
			if found >= 0 {
				return -1, fmt.Errorf("ref: ambiguous %s", c)
			}
			found = i
		}
		if found < 0 {
			return -1, fmt.Errorf("ref: unknown %s", c)
		}
		return found, nil
	}

	// Attach every conjunct to the first loop level that binds all of its
	// columns, with a resolver over just those columns for the inner loop.
	type boundPred struct {
		p       sqlast.Pred
		resolve func(sqlast.Col) (int, error)
	}
	at := make([][]boundPred, len(sources))
	for _, p := range q.Where {
		pcols := refPredCols(p)
		idx := make([]int, len(pcols))
		last := 0
		for k, c := range pcols {
			i, err := resolve(c)
			if err != nil {
				return nil, err
			}
			idx[k] = i
			last = max(last, i)
		}
		k := 0
		for widths[k] <= last {
			k++
		}
		at[k] = append(at[k], boundPred{p: p, resolve: func(c sqlast.Col) (int, error) {
			for j, pc := range pcols {
				if pc == c {
					return idx[j], nil
				}
			}
			return resolve(c)
		}})
	}

	kept := []relation.Tuple{{}}
	var scratch relation.Tuple
	for k, data := range sources {
		var next []relation.Tuple
		for _, acc := range kept {
			scratch = append(scratch[:0], acc...)
			for _, r := range data {
				scratch = append(scratch[:len(acc)], r...)
				ok := true
				for _, bp := range at[k] {
					match, err := refPred(scratch, bp.p, bp.resolve)
					if err != nil {
						return nil, err
					}
					if !match {
						ok = false
						break
					}
				}
				if ok {
					next = append(next, append(relation.Tuple(nil), scratch...))
				}
			}
		}
		kept = next
	}

	// Group and project.
	res := &Result{}
	hasAgg := false
	for _, it := range q.Select {
		res.Columns = append(res.Columns, outputName(it))
		if _, ok := it.Expr.(sqlast.AggExpr); ok {
			hasAgg = true
		}
	}
	if !hasAgg && len(q.GroupBy) == 0 {
		for _, row := range kept {
			out := make(relation.Tuple, len(q.Select))
			for k, it := range q.Select {
				i, err := resolve(it.Expr.(sqlast.ColExpr).Col)
				if err != nil {
					return nil, err
				}
				out[k] = row[i]
			}
			res.Rows = append(res.Rows, out)
		}
	} else {
		groups := map[string][]relation.Tuple{}
		var order []string
		for _, row := range kept {
			var parts []string
			for _, c := range q.GroupBy {
				i, err := resolve(c)
				if err != nil {
					return nil, err
				}
				parts = append(parts, relation.Format(row[i]))
			}
			key := strings.Join(parts, "\x1f")
			if _, ok := groups[key]; !ok {
				order = append(order, key)
			}
			groups[key] = append(groups[key], row)
		}
		if len(q.GroupBy) == 0 && len(order) == 0 {
			order = append(order, "")
			groups[""] = nil
		}
		for _, key := range order {
			g := groups[key]
			out := make(relation.Tuple, len(q.Select))
			for k, it := range q.Select {
				switch ex := it.Expr.(type) {
				case sqlast.ColExpr:
					i, err := resolve(ex.Col)
					if err != nil {
						return nil, err
					}
					if len(g) > 0 {
						out[k] = g[0][i]
					}
				case sqlast.AggExpr:
					i, err := resolve(ex.Arg)
					if err != nil {
						return nil, err
					}
					v, err := refAggregate(ex, g, i)
					if err != nil {
						return nil, err
					}
					out[k] = v
				}
			}
			res.Rows = append(res.Rows, out)
		}
	}
	if q.Distinct {
		res = refDistinct(res)
	}
	if len(q.OrderBy) > 0 {
		if err := refOrderBy(res, q.OrderBy); err != nil {
			return nil, err
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// refAggregate, refDistinct and refOrderBy are the reference evaluator's own
// implementations, independent of the executor's encoded kernels.
func refAggregate(ex sqlast.AggExpr, rows []relation.Tuple, i int) (relation.Value, error) {
	var vals []relation.Value
	seen := make(map[string]bool)
	for _, row := range rows {
		v := row[i]
		if relation.Null(v) {
			continue
		}
		if ex.Distinct {
			k := relation.Format(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
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
				return nil, fmt.Errorf("ref: %s over non-numeric value %v", ex.Func, v)
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
		return nil, fmt.Errorf("ref: unknown aggregate %q", ex.Func)
	}
}

func refDistinct(res *Result) *Result {
	out := &Result{Columns: res.Columns}
	seen := make(map[string]bool)
	for _, row := range res.Rows {
		var b strings.Builder
		for _, v := range row {
			s := relation.Format(v)
			fmt.Fprintf(&b, "%d:%s|", len(s), s)
		}
		key := b.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		out.Rows = append(out.Rows, row)
	}
	return out
}

func refOrderBy(res *Result, items []sqlast.OrderItem) error {
	idxs := make([]int, len(items))
	for k, o := range items {
		found := -1
		for i, c := range res.Columns {
			if strings.EqualFold(c, o.Col.Column) || strings.EqualFold(c, o.Col.String()) {
				found = i
				break
			}
		}
		if found < 0 {
			return fmt.Errorf("ref: ORDER BY column %s not in result", o.Col)
		}
		idxs[k] = found
	}
	sort.SliceStable(res.Rows, func(a, b int) bool {
		for k, i := range idxs {
			c := relation.Compare(res.Rows[a][i], res.Rows[b][i])
			if c != 0 {
				if items[k].Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
}

func refPred(row relation.Tuple, p sqlast.Pred, resolve func(sqlast.Col) (int, error)) (bool, error) {
	switch pp := p.(type) {
	case sqlast.JoinPred:
		li, err := resolve(pp.Left)
		if err != nil {
			return false, err
		}
		ri, err := resolve(pp.Right)
		if err != nil {
			return false, err
		}
		return !relation.Null(row[li]) && relation.Equal(row[li], row[ri]), nil
	case sqlast.ColComparePred:
		li, err := resolve(pp.Left)
		if err != nil {
			return false, err
		}
		ri, err := resolve(pp.Right)
		if err != nil {
			return false, err
		}
		if relation.Null(row[li]) || relation.Null(row[ri]) {
			return false, nil
		}
		return cmpMatches(pp.Op, relation.Compare(row[li], row[ri])), nil
	case sqlast.ComparePred:
		i, err := resolve(pp.Col)
		if err != nil {
			return false, err
		}
		if relation.Null(row[i]) {
			return false, nil
		}
		return cmpMatches(pp.Op, relation.Compare(row[i], pp.Value)), nil
	case sqlast.ContainsPred:
		i, err := resolve(pp.Col)
		if err != nil {
			return false, err
		}
		s, ok := row[i].(string)
		return ok && relation.ContainsFold(s, pp.Needle), nil
	default:
		return false, fmt.Errorf("ref: unsupported predicate %T", p)
	}
}

// refPredCols lists the columns a predicate reads.
func refPredCols(p sqlast.Pred) []sqlast.Col {
	switch pp := p.(type) {
	case sqlast.JoinPred:
		return []sqlast.Col{pp.Left, pp.Right}
	case sqlast.ColComparePred:
		return []sqlast.Col{pp.Left, pp.Right}
	case sqlast.ComparePred:
		return []sqlast.Col{pp.Col}
	case sqlast.ContainsPred:
		return []sqlast.Col{pp.Col}
	default:
		return nil
	}
}

func cmpMatches(op sqlast.CmpOp, c int) bool {
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

// refFloatEps is the relative tolerance for float cells when an execution
// is compared with refExec: the reference sums float columns in its own
// nested-loop row order, and float addition is not associative. 1e-9 is
// ~1e7 ULPs of double precision — far wider than summation-order drift on
// the test data, far tighter than any real divergence. Every other cell
// must match exactly.
const refFloatEps = 1e-9

// refDiff sorts both results canonically and compares an execution's
// result with refExec's, returning "" when they agree and the first
// difference otherwise.
func refDiff(got, want *Result) string {
	got.SortRows()
	want.SortRows()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		return fmt.Sprintf("columns %v, reference %v", got.Columns, want.Columns)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Sprintf("%d rows, reference %d\nexecutor:\n%s\nreference:\n%s", len(got.Rows), len(want.Rows), got, want)
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			g, w := got.Rows[r][c], want.Rows[r][c]
			gf, gok := g.(float64)
			wf, wok := w.(float64)
			if gok && wok && math.Abs(gf-wf) <= refFloatEps*math.Max(math.Abs(gf), math.Abs(wf)) {
				continue
			}
			if !reflect.DeepEqual(g, w) {
				return fmt.Sprintf("row %d col %d: %v (%T), reference %v (%T)\nexecutor:\n%s\nreference:\n%s",
					r, c, g, g, w, w, got, want)
			}
		}
	}
	return ""
}

func canonicalRows(res *Result) []string {
	out := rowsAsStrings(res)
	sort.Strings(out)
	return out
}

// TestDifferentialAgainstReference compares the executor against the
// brute-force reference on hundreds of random queries over the university
// database, twice with the same seed: unfrozen, where every hash path keys
// on formatted values, and frozen, where the dictionary encoding routes the
// same statements through the batch kernels.
func TestDifferentialAgainstReference(t *testing.T) {
	frozen := uniDB(t)
	frozen.Freeze()
	for _, in := range []struct {
		name string
		db   *relation.Database
	}{{"unfrozen", uniDB(t)}, {"frozen", frozen}} {
		t.Run(in.name, func(t *testing.T) { diffRandomAgainstReference(t, in.db) })
	}
}

// diffRandomAgainstReference runs 500 seeded random statements through
// ExecOpts and refExec and fails on the first divergence in validity or in
// the sorted rows.
func diffRandomAgainstReference(t *testing.T, db *relation.Database) {
	t.Helper()
	r := rand.New(rand.NewSource(99))

	type tinfo struct {
		name  string
		attrs []string
	}
	var tables []tinfo
	for _, tb := range db.Tables() {
		tables = append(tables, tinfo{tb.Schema.Name, tb.Schema.AttrNames()})
	}
	intAttrs := map[string]bool{"Age": true, "Credit": true, "Price": true}

	for trial := 0; trial < 500; trial++ {
		q := &sqlast.Query{Distinct: r.Intn(4) == 0}
		n := 1 + r.Intn(3)
		type src struct {
			alias string
			info  tinfo
		}
		var srcs []src
		for i := 0; i < n; i++ {
			ti := tables[r.Intn(len(tables))]
			srcs = append(srcs, src{fmt.Sprintf("X%d", i), ti})
			q.From = append(q.From, sqlast.TableRef{Name: ti.name, Alias: fmt.Sprintf("X%d", i)})
		}
		randCol := func() sqlast.Col {
			s := srcs[r.Intn(len(srcs))]
			return sqlast.Col{Table: s.alias, Column: s.info.attrs[r.Intn(len(s.info.attrs))]}
		}
		// Predicates: a few joins and filters.
		for i := 0; i < r.Intn(3); i++ {
			switch r.Intn(3) {
			case 0:
				q.Where = append(q.Where, sqlast.JoinPred{Left: randCol(), Right: randCol()})
			case 1:
				c := randCol()
				var v relation.Value = relation.Str("a")
				if intAttrs[c.Column] {
					v = relation.Int(int64(r.Intn(30)))
				}
				ops := []sqlast.CmpOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpGe}
				q.Where = append(q.Where, sqlast.ComparePred{Col: c, Op: ops[r.Intn(len(ops))], Value: v})
			default:
				q.Where = append(q.Where, sqlast.ContainsPred{Col: randCol(), Needle: []string{"e", "Green", "a", "c1"}[r.Intn(4)]})
			}
		}
		// Select: either plain columns, or aggregates with group-by.
		if r.Intn(2) == 0 {
			for i := 0; i < 1+r.Intn(2); i++ {
				q.Select = append(q.Select, sqlast.SelectItem{Expr: sqlast.ColExpr{Col: randCol()}})
			}
		} else {
			gb := randCol()
			q.GroupBy = []sqlast.Col{gb}
			q.Select = []sqlast.SelectItem{{Expr: sqlast.ColExpr{Col: gb}}}
			aggCol := randCol()
			fn := sqlast.AggCount
			if intAttrs[aggCol.Column] {
				fns := []sqlast.AggFunc{sqlast.AggCount, sqlast.AggSum, sqlast.AggAvg, sqlast.AggMin, sqlast.AggMax}
				fn = fns[r.Intn(len(fns))]
			}
			q.Select = append(q.Select, sqlast.SelectItem{
				Expr:  sqlast.AggExpr{Func: fn, Arg: aggCol, Distinct: r.Intn(4) == 0},
				Alias: "agg",
			})
		}

		got, errGot := execQuery(db, q)
		want, errWant := refExec(db, q)
		if (errGot == nil) != (errWant == nil) {
			// Both evaluators must agree on whether the query is valid
			// (e.g. ambiguous unqualified columns).
			t.Fatalf("trial %d: error divergence: exec=%v ref=%v\n%s", trial, errGot, errWant, q)
		}
		if errGot != nil {
			continue
		}
		g, w := canonicalRows(got), canonicalRows(want)
		if len(g) != len(w) {
			t.Fatalf("trial %d: row counts differ (%d vs %d)\n%s", trial, len(g), len(w), q)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("trial %d: rows differ\nexec: %v\nref:  %v\n%s", trial, g[i], w[i], q)
			}
		}
	}
}
