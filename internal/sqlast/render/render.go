// Package render turns sqlast queries into SQL text for real database
// dialects. The in-memory engine (internal/sqldb) parses the paper-shaped
// text that sqlast.Query.String produces; external engines do not — they
// differ in identifier quoting, placeholder style, string and float literal
// syntax, NULL ordering and the CONTAINS predicate, which is not SQL at all.
//
// One renderer handles every dialect, parameterized by a Dialect value
// (rather than one printer per dialect, which drifts): each divergence point
// — quoting, literals, placeholders, CONTAINS, ORDER BY null placement — is
// a small per-dialect switch inside a single recursive walk, so a new clause
// is rendered once and a new dialect is a handful of switch arms.
//
// The renderings are semantics-preserving with respect to the in-memory
// engine: for every query the translator generates, executing the rendered
// SQL on the target engine over the same data yields the same answer set as
// internal/sqldb (gated by the differential suites in internal/backend).
// Known caveat: CONTAINS on Postgres assumes a text column (all the
// translator emits); SQLite gets an exact typeof() guard.
package render

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Dialect selects the SQL flavor the renderer emits.
type Dialect int

// Supported dialects.
const (
	// SQLDB is the in-memory engine's native text: exactly
	// sqlast.Query.String(), the paper-shaped rendering sqldb parses back.
	SQLDB Dialect = iota
	// SQLite targets SQLite 3.30+ (NULLS FIRST/LAST ordering syntax).
	SQLite
	// Postgres targets PostgreSQL.
	Postgres
)

// String names the dialect.
func (d Dialect) String() string {
	switch d {
	case SQLDB:
		return "sqldb"
	case SQLite:
		return "sqlite"
	case Postgres:
		return "postgres"
	default:
		return fmt.Sprintf("Dialect(%d)", int(d))
	}
}

// ParseDialect resolves a dialect by name.
func ParseDialect(name string) (Dialect, error) {
	switch strings.ToLower(name) {
	case "sqldb":
		return SQLDB, nil
	case "sqlite", "sqlite3":
		return SQLite, nil
	case "postgres", "postgresql", "pg":
		return Postgres, nil
	default:
		return 0, fmt.Errorf("render: unknown dialect %q", name)
	}
}

// SQL renders the query for the dialect with every literal inlined (no
// placeholders) — the form the sqlite3 shell and golden tests consume.
func SQL(q *sqlast.Query, d Dialect) (string, error) {
	if d == SQLDB {
		return q.String(), nil
	}
	r := &renderer{d: d, inline: true}
	r.query(q)
	if r.err != nil {
		return "", r.err
	}
	return r.b.String(), nil
}

// Params renders the query with constant comparison values and CONTAINS
// needles lifted into placeholders (SQLite ?, Postgres $1..$n), returning
// the argument list in placeholder order. NULL constants stay inline: a
// bound NULL and a literal NULL behave identically in both dialects, and
// inline NULL keeps the statement's shape independent of the value.
func Params(q *sqlast.Query, d Dialect) (string, []any, error) {
	if d == SQLDB {
		return q.String(), nil, nil
	}
	r := &renderer{d: d}
	r.query(q)
	if r.err != nil {
		return "", nil, r.err
	}
	return r.b.String(), r.args, nil
}

// Literal renders one value as an inline SQL literal of the dialect.
// Strings quote by doubling embedded single quotes (Postgres escapes
// control characters
// through an E'...' string); floats always carry a decimal point or
// exponent so the engine types them REAL; NaN and infinities are
// unrepresentable and error.
func Literal(v relation.Value, d Dialect) (string, error) {
	if d == SQLDB {
		return relation.Literal(v), nil
	}
	r := &renderer{d: d, inline: true}
	r.literal(v)
	if r.err != nil {
		return "", r.err
	}
	return r.b.String(), nil
}

// Ident renders one identifier quoted for the dialect.
func Ident(name string, d Dialect) (string, error) {
	if d == SQLDB {
		return name, nil
	}
	if strings.ContainsRune(name, 0) {
		return "", fmt.Errorf("render: identifier %q contains a NUL byte", name)
	}
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`, nil
}

// renderer is one rendering pass: it accumulates text, placeholder
// arguments, and the first error (rendering continues but the output is
// discarded once err is set).
type renderer struct {
	d      Dialect
	b      strings.Builder
	args   []any
	inline bool
	err    error
}

func (r *renderer) fail(format string, a ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("render: "+format, a...)
	}
}

func (r *renderer) ident(name string) {
	s, err := Ident(name, r.d)
	if err != nil {
		r.fail("%v", err)
		return
	}
	r.b.WriteString(s)
}

func (r *renderer) col(c sqlast.Col) {
	if c.Table != "" {
		r.ident(c.Table)
		r.b.WriteByte('.')
	}
	r.ident(c.Column)
}

// literal writes v inline.
func (r *renderer) literal(v relation.Value) {
	switch x := v.(type) {
	case nil:
		r.b.WriteString("NULL")
	case int64:
		r.b.WriteString(strconv.FormatInt(x, 10))
	case float64:
		r.float(x)
	case string:
		r.stringLit(x)
	default:
		r.fail("unsupported literal type %T", v)
	}
}

// float renders a float so the engine keeps it REAL-typed: the shortest
// round-tripping decimal form, forced to carry '.' or an exponent.
func (r *renderer) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		r.fail("float literal %v is not representable in SQL", f)
		return
	}
	s := strconv.FormatFloat(f, 'g', -1, 64)
	if !strings.ContainsAny(s, ".eE") {
		s += ".0"
	}
	r.b.WriteString(s)
}

// stringLit quotes s for the dialect. SQLite string literals may carry any
// byte except NUL raw, so doubling embedded quotes suffices; Postgres strings
// are the same, but control characters are routed through an E'...' escape
// string to survive every transport (psql, logs, goldens) unambiguously.
func (r *renderer) stringLit(s string) {
	if strings.ContainsRune(s, 0) {
		r.fail("string literal %q contains a NUL byte", s)
		return
	}
	if r.d == Postgres && hasControl(s) {
		r.b.WriteString("E'")
		for _, b := range []byte(s) {
			switch {
			case b == '\'':
				r.b.WriteString("''")
			case b == '\\':
				r.b.WriteString(`\\`)
			case b == '\n':
				r.b.WriteString(`\n`)
			case b == '\r':
				r.b.WriteString(`\r`)
			case b == '\t':
				r.b.WriteString(`\t`)
			case b < 0x20 || b == 0x7f:
				fmt.Fprintf(&r.b, `\x%02x`, b)
			default:
				r.b.WriteByte(b)
			}
		}
		r.b.WriteByte('\'')
		return
	}
	r.b.WriteByte('\'')
	r.b.WriteString(strings.ReplaceAll(s, "'", "''"))
	r.b.WriteByte('\'')
}

// value writes a constant: inline as a literal, or as the dialect's
// placeholder with the value appended to the argument list. NULL is always
// inline (see Params).
func (r *renderer) value(v relation.Value) {
	if r.inline || v == nil {
		r.literal(v)
		return
	}
	switch v.(type) {
	case int64, float64, string:
	default:
		r.fail("unsupported parameter type %T", v)
		return
	}
	r.args = append(r.args, v)
	switch r.d {
	case Postgres:
		r.b.WriteByte('$')
		r.b.WriteString(strconv.Itoa(len(r.args)))
	default:
		r.b.WriteByte('?')
	}
}

func (r *renderer) pred(p sqlast.Pred) {
	switch pp := p.(type) {
	case sqlast.JoinPred:
		r.col(pp.Left)
		r.b.WriteString(" = ")
		r.col(pp.Right)
	case sqlast.ColComparePred:
		r.col(pp.Left)
		r.b.WriteString(" " + string(pp.Op) + " ")
		r.col(pp.Right)
	case sqlast.ComparePred:
		r.col(pp.Col)
		r.b.WriteString(" " + string(pp.Op) + " ")
		r.value(pp.Value)
	case sqlast.ContainsPred:
		r.contains(pp)
	default:
		r.fail("unsupported predicate %T", p)
	}
}

// contains renders the paper's case-insensitive substring predicate. The
// in-memory engine matches only values whose dynamic type is string, so the
// SQLite form carries a typeof() guard reproducing that exactly; Postgres
// columns are statically typed, so the guard is unnecessary for the text
// columns the translator emits CONTAINS on (a CAST keeps non-text columns
// at least well-formed). SQLite's lower() folds ASCII only, exactly like
// relation.ContainsFold; Postgres's LOWER follows the database locale and
// may also fold non-ASCII letters (see docs/BACKENDS.md).
func (r *renderer) contains(p sqlast.ContainsPred) {
	switch r.d {
	case SQLite:
		r.b.WriteString("(typeof(")
		r.col(p.Col)
		r.b.WriteString(") = 'text' AND instr(lower(")
		r.col(p.Col)
		r.b.WriteString("), lower(")
		r.value(p.Needle)
		r.b.WriteString(")) > 0)")
	case Postgres:
		r.b.WriteString("(POSITION(LOWER(")
		r.value(p.Needle)
		r.b.WriteString(") IN LOWER(CAST(")
		r.col(p.Col)
		r.b.WriteString(" AS TEXT))) > 0)")
	default:
		r.fail("CONTAINS has no rendering for dialect %s", r.d)
	}
}

func (r *renderer) expr(e sqlast.Expr) {
	switch ex := e.(type) {
	case sqlast.ColExpr:
		r.col(ex.Col)
	case sqlast.AggExpr:
		r.b.WriteString(string(ex.Func))
		r.b.WriteByte('(')
		if ex.Distinct {
			r.b.WriteString("DISTINCT ")
		}
		r.col(ex.Arg)
		r.b.WriteByte(')')
	default:
		r.fail("unsupported select expression %T", e)
	}
}

func (r *renderer) tableRef(tr sqlast.TableRef) {
	if tr.Subquery != nil {
		if tr.Alias == "" {
			// Postgres requires one, and an unaliased derived table cannot be
			// referenced anyway — the translator always names them.
			r.fail("derived table has no alias")
			return
		}
		r.b.WriteByte('(')
		r.query(tr.Subquery)
		r.b.WriteString(") AS ")
		r.ident(tr.Alias)
		return
	}
	r.ident(tr.Name)
	if tr.Alias != "" && !strings.EqualFold(tr.Alias, tr.Name) {
		r.b.WriteString(" AS ")
		r.ident(tr.Alias)
	}
}

func (r *renderer) query(q *sqlast.Query) {
	r.b.WriteString("SELECT ")
	if q.Distinct {
		r.b.WriteString("DISTINCT ")
	}
	if len(q.Select) == 0 {
		r.fail("query has an empty SELECT list")
		return
	}
	for i, it := range q.Select {
		if i > 0 {
			r.b.WriteString(", ")
		}
		r.expr(it.Expr)
		if it.Alias != "" {
			r.b.WriteString(" AS ")
			r.ident(it.Alias)
		}
	}
	r.b.WriteString(" FROM ")
	if len(q.From) == 0 {
		r.fail("query has an empty FROM list")
		return
	}
	for i, tr := range q.From {
		if i > 0 {
			r.b.WriteString(", ")
		}
		r.tableRef(tr)
	}
	if len(q.Where) > 0 {
		r.b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				r.b.WriteString(" AND ")
			}
			r.pred(p)
		}
	}
	if len(q.GroupBy) > 0 {
		r.b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				r.b.WriteString(", ")
			}
			r.col(c)
		}
	}
	if len(q.OrderBy) > 0 {
		r.b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				r.b.WriteString(", ")
			}
			r.col(o.Col)
			// The in-memory engine's comparator puts NULL below every value
			// (first ascending, last descending); SQLite happens to agree and
			// Postgres does not, so both get it spelled out.
			if o.Desc {
				r.b.WriteString(" DESC NULLS LAST")
			} else {
				r.b.WriteString(" ASC NULLS FIRST")
			}
		}
	}
	if q.Limit > 0 {
		r.b.WriteString(" LIMIT ")
		r.b.WriteString(strconv.Itoa(q.Limit))
	}
}

// hasControl reports whether s contains a C0 control byte or DEL.
func hasControl(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return true
		}
	}
	return false
}
