// Package sqlast defines the abstract syntax tree for the SQL subset that
// both the semantic translator and the SQAK baseline emit, and that the
// in-memory engine (internal/sqldb) executes. Keeping one AST lets the
// translator build queries structurally, render them to SQL text identical
// in shape to the statements printed in the paper, and have the engine parse
// that text back into the very same tree (a round-trip that is
// property-tested).
//
// The subset covers: SELECT lists with column references, aggregate
// functions and aliases; DISTINCT; FROM lists of base tables and derived
// tables (subqueries) with aliases; conjunctive WHERE clauses of
// column-column equality joins, column-literal comparisons and the paper's
// CONTAINS predicate; GROUP BY; and ORDER BY for deterministic output.
package sqlast

import (
	"fmt"
	"strings"

	"kwagg/internal/relation"
)

// AggFunc enumerates the aggregate functions of Definition 1.
type AggFunc string

// Aggregate functions supported in keyword queries and generated SQL.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// IsAggFunc reports whether s names an aggregate function, and returns it
// in canonical form.
func IsAggFunc(s string) (AggFunc, bool) {
	switch strings.ToUpper(s) {
	case "COUNT":
		return AggCount, true
	case "SUM":
		return AggSum, true
	case "AVG":
		return AggAvg, true
	case "MIN":
		return AggMin, true
	case "MAX":
		return AggMax, true
	}
	return "", false
}

// Col is a (possibly qualified) column reference.
type Col struct {
	Table  string // alias of the table the column comes from; may be empty
	Column string
}

// String renders the reference as [table.]column.
func (c Col) String() string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

// Expr is a scalar expression in a SELECT list: a column or an aggregate.
type Expr interface {
	exprNode()
	String() string
}

// ColExpr is a plain column reference expression.
type ColExpr struct{ Col Col }

func (ColExpr) exprNode() {}

// String renders the column reference.
func (e ColExpr) String() string { return e.Col.String() }

// AggExpr is an aggregate function applied to a column, e.g. COUNT(S.Sid).
// Distinct renders as COUNT(DISTINCT ...).
type AggExpr struct {
	Func     AggFunc
	Arg      Col
	Distinct bool
}

func (AggExpr) exprNode() {}

// String renders the aggregate call.
func (e AggExpr) String() string {
	if e.Distinct {
		return fmt.Sprintf("%s(DISTINCT %s)", e.Func, e.Arg)
	}
	return fmt.Sprintf("%s(%s)", e.Func, e.Arg)
}

// SelectItem is one entry of the SELECT list with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// String renders the item with its AS alias when present.
func (it SelectItem) String() string {
	if it.Alias != "" {
		return it.Expr.String() + " AS " + it.Alias
	}
	return it.Expr.String()
}

// TableRef is an entry in the FROM list: either a base relation (Name) or a
// derived table (Subquery), in both cases with an alias the rest of the
// query refers to.
type TableRef struct {
	Name     string
	Subquery *Query
	Alias    string
}

// String renders the table reference.
func (tr TableRef) String() string {
	if tr.Subquery != nil {
		s := "(" + tr.Subquery.String() + ")"
		if tr.Alias != "" {
			s += " " + tr.Alias
		}
		return s
	}
	if tr.Alias != "" && !strings.EqualFold(tr.Alias, tr.Name) {
		return tr.Name + " " + tr.Alias
	}
	return tr.Name
}

// CmpOp is a comparison operator in a WHERE predicate.
type CmpOp string

// Comparison operators.
const (
	OpEq CmpOp = "="
	OpNe CmpOp = "<>"
	OpLt CmpOp = "<"
	OpLe CmpOp = "<="
	OpGt CmpOp = ">"
	OpGe CmpOp = ">="
)

// Pred is a conjunct of the WHERE clause.
type Pred interface {
	predNode()
	String() string
}

// JoinPred equates two columns (foreign key - key join).
type JoinPred struct {
	Left, Right Col
}

func (JoinPred) predNode() {}

// String renders the equi-join predicate.
func (p JoinPred) String() string { return p.Left.String() + "=" + p.Right.String() }

// ColComparePred compares two columns with a non-equality operator (equality
// between columns is JoinPred, which participates in join planning).
type ColComparePred struct {
	Left  Col
	Op    CmpOp
	Right Col
}

func (ColComparePred) predNode() {}

// String renders the comparison.
func (p ColComparePred) String() string {
	return fmt.Sprintf("%s %s %s", p.Left, p.Op, p.Right)
}

// ComparePred compares a column with a literal.
type ComparePred struct {
	Col   Col
	Op    CmpOp
	Value relation.Value
}

func (ComparePred) predNode() {}

// String renders the comparison with a SQL literal on the right.
func (p ComparePred) String() string {
	return fmt.Sprintf("%s %s %s", p.Col, p.Op, relation.Literal(p.Value))
}

// ContainsPred is the paper's "a contains t" predicate: a case-insensitive
// substring match. It renders as "col CONTAINS 'needle'".
type ContainsPred struct {
	Col    Col
	Needle string
}

func (ContainsPred) predNode() {}

// String renders the predicate.
func (p ContainsPred) String() string {
	return fmt.Sprintf("%s CONTAINS %s", p.Col, relation.Literal(p.Needle))
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Col  Col
	Desc bool
}

// String renders the order item.
func (o OrderItem) String() string {
	if o.Desc {
		return o.Col.String() + " DESC"
	}
	return o.Col.String()
}

// Query is a SELECT statement of the supported subset.
type Query struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	Where    []Pred // conjunction
	GroupBy  []Col
	OrderBy  []OrderItem
	// Limit truncates the result to its first *Limit rows; nil means no
	// LIMIT clause, which is not the same as LIMIT 0.
	Limit *int
}

// String renders the query as SQL text in the layout used by the paper:
// single-space separators, clauses in canonical order.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString(" FROM ")
	for i, tr := range q.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(tr.String())
	}
	if len(q.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if q.Limit != nil {
		fmt.Fprintf(&b, " LIMIT %d", *q.Limit)
	}
	return b.String()
}

// Pretty renders the query across multiple lines, one clause per line, for
// human-facing output (CLI, examples, EXPERIMENTS.md).
func (q *Query) Pretty() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.String())
	}
	b.WriteString("\nFROM ")
	for i, tr := range q.From {
		if i > 0 {
			b.WriteString(",\n     ")
		}
		b.WriteString(tr.String())
	}
	if len(q.Where) > 0 {
		b.WriteString("\nWHERE ")
		for i, p := range q.Where {
			if i > 0 {
				b.WriteString("\n  AND ")
			}
			b.WriteString(p.String())
		}
	}
	if len(q.GroupBy) > 0 {
		b.WriteString("\nGROUP BY ")
		for i, c := range q.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString("\nORDER BY ")
		for i, o := range q.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.String())
		}
	}
	if q.Limit != nil {
		fmt.Fprintf(&b, "\nLIMIT %d", *q.Limit)
	}
	return b.String()
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{Distinct: q.Distinct}
	if q.Limit != nil {
		n := *q.Limit
		c.Limit = &n
	}
	c.Select = append([]SelectItem(nil), q.Select...)
	for _, tr := range q.From {
		nt := tr
		if tr.Subquery != nil {
			nt.Subquery = tr.Subquery.Clone()
		}
		c.From = append(c.From, nt)
	}
	c.Where = append([]Pred(nil), q.Where...)
	c.GroupBy = append([]Col(nil), q.GroupBy...)
	c.OrderBy = append([]OrderItem(nil), q.OrderBy...)
	return c
}

// Walk visits q and every derived-table subquery, depth-first.
func (q *Query) Walk(fn func(*Query)) {
	fn(q)
	for _, tr := range q.From {
		if tr.Subquery != nil {
			tr.Subquery.Walk(fn)
		}
	}
}
