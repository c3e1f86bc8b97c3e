package sqldb

import (
	"fmt"
	"strings"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Plan describes how the executor evaluates a query: the sources with their
// cardinalities after local filters and semi-join pushes, the join order it
// runs, and which predicates are pushed below the joins. It exists for
// debugging and for the CLI's \plan command.
type Plan struct {
	Sources []PlanSource
	Start   string // alias of the source the join order starts from
	Steps   []PlanStep
	Post    []string // predicates applied after all joins
	Shape   string   // "aggregate", "group-by", or "projection"
}

// PlanSource is one FROM entry.
type PlanSource struct {
	Alias   string
	Name    string   // base relation name, or "(subquery)"
	Rows    int      // after local filters and semi-join pushes
	Pushed  []string // predicates evaluated while scanning this source
	Semi    []string // semi-join key sets the source was restricted to
	Derived *Plan    // the plan of a derived table
}

// PlanStep is one join in the chosen order.
type PlanStep struct {
	Alias    string
	Strategy string // "hash join" or "cross join"
	On       []string
	Access   string // "value index" when the build side is a pristine table's value index
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
		fmt.Fprintf(b, "%s  scan %s as %s (%d rows, dict-encoded)", indent, s.Name, s.Alias, s.Rows)
		if len(s.Pushed) > 0 {
			fmt.Fprintf(b, " filter: %s", strings.Join(s.Pushed, " AND "))
		}
		for _, k := range s.Semi {
			fmt.Fprintf(b, " semi-join %s", k)
		}
		b.WriteString("\n")
		if s.Derived != nil {
			s.Derived.write(b, indent+"    ")
		}
	}
	if len(p.Steps) > 0 {
		fmt.Fprintf(b, "%s  start %s\n", indent, p.Start)
	}
	for i, st := range p.Steps {
		on := ""
		if len(st.On) > 0 {
			on = " on " + strings.Join(st.On, " AND ")
		}
		access := ""
		if st.Access != "" {
			access = " [" + st.Access + "]"
		}
		fmt.Fprintf(b, "%s  %d. %s %s%s%s\n", indent, i+1, st.Strategy, st.Alias, on, access)
	}
	if len(p.Post) > 0 {
		fmt.Fprintf(b, "%s  post-filter: %s\n", indent, strings.Join(p.Post, " AND "))
	}
}

// Explain builds the evaluation plan of q against db. It evaluates the FROM
// list exactly as ExecOpts does — scans, local filters, semi-join pushes
// and every derived table, each once — and reports the join order ExecOpts
// would run over the results, without running the top-level joins.
func Explain(db *relation.Database, q *sqlast.Query) (*Plan, error) {
	e := &executor{db: db}
	plan := &Plan{}
	if _, err := e.evalFrom(q, nil, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// filterAccess is the tag Explain prints after a pushed filter or semi-join
// push: whether its rows came from the value index or a sweep.
func filterAccess(indexed bool) string {
	if indexed {
		return " [index lookup]"
	}
	return " [scan]"
}

// joinAccess is a join step's Access: whether its build side was a value
// index (see indexJoin) or chains threaded over the rows.
func joinAccess(indexed bool) string {
	if indexed {
		return "value index"
	}
	return ""
}

// record fills the plan's join order and post-join predicates from the
// evaluated FROM list, with the access path each join will take; a query
// that runs its joins overwrites that with the path each join ran.
func (p *Plan) record(q *sqlast.Query, fl *fromList) {
	p.Start = q.From[fl.start].Alias
	for _, st := range fl.steps {
		step := PlanStep{Alias: q.From[st.src].Alias, Strategy: "cross join",
			Access: joinAccess(indexJoin(fl.sources[st.src], st.eqs))}
		if len(st.eqs) > 0 {
			step.Strategy = "hash join"
		}
		for _, pi := range st.on {
			step.On = append(step.On, q.Where[pi].String())
		}
		p.Steps = append(p.Steps, step)
	}
	for pi, pr := range q.Where {
		if !fl.consumed[pi] {
			p.Post = append(p.Post, pr.String())
		}
	}
}

// queryShape names the projection q ends in.
func queryShape(q *sqlast.Query) string {
	switch {
	case len(q.GroupBy) > 0:
		return "group-by"
	case hasAggregate(q):
		return "aggregate"
	default:
		return "projection"
	}
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
