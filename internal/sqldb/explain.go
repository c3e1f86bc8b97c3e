package sqldb

import (
	"fmt"
	"strings"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Plan describes how the executor would evaluate a query: the sources with
// their cardinalities, the join order it picks, and which predicates are
// pushed below the joins. It exists for debugging and for the CLI's \plan
// command; building it runs the same planning code paths as ExecOpts but
// evaluates only derived tables' plans, never the data.
type Plan struct {
	Sources []PlanSource
	Steps   []PlanStep
	Post    []string // predicates applied after all joins
	Shape   string   // "aggregate", "group-by", or "projection"
}

// PlanSource is one FROM entry.
type PlanSource struct {
	Alias   string
	Name    string // base relation name, or "(subquery)"
	Rows    int
	Encoded bool     // rows carry the frozen table's dictionary encoding
	Pushed  []string // predicates evaluated while scanning this source
	Derived *Plan    // the plan of a derived table
}

// PlanStep is one join in the chosen order.
type PlanStep struct {
	Alias    string
	Strategy string // "hash join" or "cross join"
	On       []string
}

// String renders the plan as an indented tree.
func (p *Plan) String() string {
	var b strings.Builder
	p.write(&b, "")
	return b.String()
}

func (p *Plan) write(b *strings.Builder, indent string) {
	fmt.Fprintf(b, "%s%s\n", indent, p.Shape)
	for _, s := range p.Sources {
		enc := ""
		if s.Encoded {
			enc = ", dict-encoded"
		}
		fmt.Fprintf(b, "%s  scan %s as %s (%d rows%s)", indent, s.Name, s.Alias, s.Rows, enc)
		if len(s.Pushed) > 0 {
			fmt.Fprintf(b, " filter: %s", strings.Join(s.Pushed, " AND "))
		}
		b.WriteString("\n")
		if s.Derived != nil {
			s.Derived.write(b, indent+"    ")
		}
	}
	for i, st := range p.Steps {
		on := ""
		if len(st.On) > 0 {
			on = " on " + strings.Join(st.On, " AND ")
		}
		fmt.Fprintf(b, "%s  %d. %s %s%s\n", indent, i+1, st.Strategy, st.Alias, on)
	}
	if len(p.Post) > 0 {
		fmt.Fprintf(b, "%s  post-filter: %s\n", indent, strings.Join(p.Post, " AND "))
	}
}

// Explain builds the evaluation plan of q against db without executing the
// joins. Derived tables are planned recursively (their cardinality is the
// cardinality after executing the subquery, so Explain does execute
// subqueries — acceptable for a debugging facility).
func Explain(db *relation.Database, q *sqlast.Query) (*Plan, error) {
	e := &executor{db: db}
	plan := &Plan{}
	switch {
	case len(q.GroupBy) > 0:
		plan.Shape = "group-by"
	case hasAggregate(q):
		plan.Shape = "aggregate"
	default:
		plan.Shape = "projection"
	}

	sources := make([]*rowset, len(q.From))
	for i, tr := range q.From {
		rs, err := e.source(tr)
		if err != nil {
			return nil, err
		}
		sources[i] = rs
		ps := PlanSource{Alias: tr.Alias, Name: tr.Name, Rows: len(rs.rows), Encoded: rs.dicts != nil}
		if tr.Subquery != nil {
			ps.Name = "(subquery)"
			sub, err := Explain(db, tr.Subquery)
			if err != nil {
				return nil, err
			}
			ps.Derived = sub
		}
		plan.Sources = append(plan.Sources, ps)
	}

	consumed := make([]bool, len(q.Where))
	for si, rs := range sources {
		for pi, p := range q.Where {
			if consumed[pi] {
				continue
			}
			if localPred(rs, p) {
				// Report the access path the executor would take: equality
				// constants on a base-table scan hit the value index.
				access := " [scan]"
				if indexableEq(rs, p) {
					access = " [index lookup]"
				}
				plan.Sources[si].Pushed = append(plan.Sources[si].Pushed, p.String()+access)
				consumed[pi] = true
			}
		}
	}

	// Mirror the greedy join ordering of ExecOpts, using cardinalities only.
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
	accCols := append([]boundCol(nil), sources[start].cols...)
	has := func(cols []boundCol, c sqlast.Col) bool {
		n := 0
		for _, bc := range cols {
			if strings.EqualFold(bc.name, c.Column) &&
				(c.Table == "" || strings.EqualFold(bc.table, c.Table)) {
				n++
			}
		}
		return n == 1
	}
	connects := func(src *rowset) bool {
		for pi, p := range q.Where {
			if consumed[pi] {
				continue
			}
			jp, ok := p.(sqlast.JoinPred)
			if !ok {
				continue
			}
			if (has(accCols, jp.Left) && src.has(jp.Right)) || (has(accCols, jp.Right) && src.has(jp.Left)) {
				return true
			}
		}
		return false
	}
	for len(remaining) > 0 {
		pick, pickPos := -1, -1
		for pos, idx := range remaining {
			if !connects(sources[idx]) {
				continue
			}
			if pick < 0 || len(sources[idx].rows) < len(sources[pick].rows) {
				pick, pickPos = idx, pos
			}
		}
		strategy := "hash join"
		if pick < 0 {
			strategy = "cross join"
			for pos, idx := range remaining {
				if pick < 0 || len(sources[idx].rows) < len(sources[pick].rows) {
					pick, pickPos = idx, pos
				}
			}
		}
		src := sources[pick]
		remaining = append(remaining[:pickPos], remaining[pickPos+1:]...)
		step := PlanStep{Alias: q.From[pick].Alias, Strategy: strategy}
		for pi, p := range q.Where {
			if consumed[pi] {
				continue
			}
			jp, ok := p.(sqlast.JoinPred)
			if !ok {
				continue
			}
			if (has(accCols, jp.Left) && src.has(jp.Right)) || (has(accCols, jp.Right) && src.has(jp.Left)) {
				step.On = append(step.On, jp.String())
				consumed[pi] = true
			}
		}
		accCols = append(accCols, src.cols...)
		plan.Steps = append(plan.Steps, step)
	}
	for pi, p := range q.Where {
		if !consumed[pi] {
			plan.Post = append(plan.Post, p.String())
		}
	}
	return plan, nil
}

func hasAggregate(q *sqlast.Query) bool {
	for _, it := range q.Select {
		if _, ok := it.Expr.(sqlast.AggExpr); ok {
			return true
		}
	}
	return false
}

// ExplainSQL parses and plans a statement.
func ExplainSQL(db *relation.Database, sql string) (*Plan, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Explain(db, q)
}
