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
