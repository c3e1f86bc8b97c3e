package sqldb

import (
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// RefExec and RefDiff expose the brute-force reference evaluator and its
// comparison to the external test package, whose dataset suites cannot live
// here (they import internal/experiments, which imports sqldb).
var (
	RefExec = refExec
	RefDiff = refDiff
)

// ExecJoinOrder executes q as ExecOpts does and returns the aliases of the
// outermost query's FROM entries in the order its join loop consumed them:
// the start source, then one per join step.
func ExecJoinOrder(db *relation.Database, q *sqlast.Query) ([]string, error) {
	e := &executor{db: db}
	if _, err := e.query(q); err != nil {
		return nil, err
	}
	order := []string{q.From[e.top.start].Alias}
	for _, st := range e.top.steps {
		order = append(order, q.From[st.src].Alias)
	}
	return order, nil
}

// ExecPlan executes q as ExecOpts does and returns the plan it recorded on
// the way: Explain's plan, except that every join step carries the access
// path the join ran instead of the one Explain predicts.
func ExecPlan(db *relation.Database, q *sqlast.Query) (*Plan, error) {
	e := &executor{db: db}
	plan := &Plan{}
	if _, err := e.queryRowset(q, true, nil, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// unindexed returns rs with its base cleared: the same rows, which no
// longer read as a pristine scan, so filters sweep them and joins thread
// chains over them instead of reading the table's value index.
func unindexed(rs *rowset) *rowset {
	c := *rs
	c.base = nil
	return &c
}
