// Package backend abstracts statement execution behind a pluggable
// interface: the frozen in-memory engine (internal/sqldb) is the default
// implementation, and a database/sql-based backend renders sqlast queries to
// a real dialect (internal/sqlast/render) and runs them on an external
// engine. core.ExecuteAll routes through whichever backend Options.Backend
// names, keeping the per-statement deadline, retry and partial-answer
// semantics of the robustness layer.
//
// The external path doubles as a differential oracle: the same frozen
// relation.Database is exported into SQLite (see Script and NewSQLite), and
// the test suites execute every generated interpretation on both engines and
// assert answer-set equality — validating the generated SQL, the renderer
// and the executor against an independent implementation.
//
// Dependency hygiene: this package and its subpackages are the only
// production code allowed to import database/sql or a concrete driver; the
// kwlint depscope analyzer enforces it, so every core package stays
// stdlib-only even when a CGO-free driver module is vendored in here later.
package backend

import (
	"context"
	"errors"
	"io"
	"strings"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// Rows is a streamed query result: column names plus an iterator of tuples.
// Next returns io.EOF after the last row. Close is idempotent and must be
// called whether or not the rows were drained.
type Rows interface {
	Columns() []string
	Next() (relation.Tuple, error)
	Close() error
}

// Backend executes generated statements against one engine holding one
// (frozen) database. Implementations must be safe for concurrent Exec calls:
// the executor pool runs the top-k statements of a query in parallel.
type Backend interface {
	// Name identifies the backend in metrics and diagnostics ("sqldb",
	// "sqlite", ...). It must be constant for the backend's lifetime.
	Name() string
	// Exec runs one statement. Cancelling ctx aborts the statement; the
	// returned error is ctx.Err() (or wraps it) in that case. Errors that are
	// safe to retry (engine busy, transient driver faults) are marked so
	// IsTransient reports them; all other errors are permanent.
	Exec(ctx context.Context, q *sqlast.Query) (Rows, error)
	// Close releases the backend's resources. No Exec may be in flight.
	Close() error
}

// TransientError marks a driver or engine error the statement-retry layer is
// allowed to retry (engine busy, connection momentarily unavailable). It
// implements the Transient() contract that chaos.IsTransient — the
// executor's retry predicate — recognises.
type TransientError struct{ Err error }

// Error describes the transient fault.
func (e *TransientError) Error() string { return "backend: transient: " + e.Err.Error() }

// Unwrap exposes the underlying driver error.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient marks the error retryable for chaos.IsTransient.
func (e *TransientError) Transient() bool { return true }

// IsTransient reports whether err is marked retryable via the
// Transient() bool contract (backend.TransientError, a driver's own marker
// type, or an injected chaos fault all satisfy it).
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// sliceRows adapts a materialized result to the Rows interface.
type sliceRows struct {
	cols []string
	rows []relation.Tuple
	next int
}

// NewRows wraps a materialized column/tuple set as Rows.
func NewRows(cols []string, rows []relation.Tuple) Rows {
	return &sliceRows{cols: cols, rows: rows}
}

func (r *sliceRows) Columns() []string { return r.cols }

func (r *sliceRows) Next() (relation.Tuple, error) {
	if r.next >= len(r.rows) {
		return nil, io.EOF
	}
	t := r.rows[r.next]
	r.next++
	return t, nil
}

func (r *sliceRows) Close() error { return nil }

// Collect drains rows into a sqldb.Result (the executor's answer shape) and
// closes them. On a mid-stream error the rows are still closed and the error
// returned.
func Collect(rows Rows) (*sqldb.Result, error) {
	res := &sqldb.Result{Columns: rows.Columns()}
	for {
		t, err := rows.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rows.Close()
			return nil, err
		}
		res.Rows = append(res.Rows, t)
	}
	return res, rows.Close()
}

// SQLDB is the default backend: the frozen in-memory engine executing the
// sqlast tree directly (no rendering, no parsing). It carries the executor
// configuration core resolved (memo, shard workers).
type SQLDB struct {
	db  *relation.Database
	cfg sqldb.ExecConfig
}

// NewSQLDB wraps the in-memory engine over db as a Backend.
func NewSQLDB(db *relation.Database, cfg sqldb.ExecConfig) *SQLDB {
	return &SQLDB{db: db, cfg: cfg}
}

// Name identifies the in-memory engine.
func (s *SQLDB) Name() string { return "sqldb" }

// Exec evaluates the query on the in-memory engine.
func (s *SQLDB) Exec(ctx context.Context, q *sqlast.Query) (Rows, error) {
	res, _, err := sqldb.ExecOpts(ctx, s.db, q, s.cfg)
	if err != nil {
		return nil, err
	}
	return NewRows(res.Columns, res.Rows), nil
}

// Close is a no-op: the in-memory engine holds no external resources.
func (s *SQLDB) Close() error { return nil }

// OutputColumns derives the result column names of a query the way the
// in-memory engine names them: the alias when present, a plain column
// reference's bare column name, and the rendered expression otherwise.
// External engines name computed columns their own way (SQLite uses the
// rendered SQL text), so the database/sql backend overrides the driver's
// names with these — keeping answer shapes identical across backends.
func OutputColumns(q *sqlast.Query) []string {
	out := make([]string, len(q.Select))
	for i, it := range q.Select {
		switch {
		case it.Alias != "":
			out[i] = it.Alias
		default:
			if ce, ok := it.Expr.(sqlast.ColExpr); ok {
				out[i] = ce.Col.Column
			} else {
				out[i] = it.Expr.String()
			}
		}
	}
	return out
}

// classifyDriver maps a driver error onto the retry classification: busy /
// locked / connection-reset shapes — the faults a loaded external engine
// throws that a retry can ride out — become TransientError; everything else
// (syntax, missing relation, type errors) stays permanent. Drivers that
// already mark transience (Transient() bool) pass through untouched.
func classifyDriver(err error) error {
	if err == nil || IsTransient(err) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	msg := strings.ToLower(err.Error())
	for _, marker := range []string{
		"database is locked",
		"database table is locked",
		"database is busy",
		"(5)", // SQLITE_BUSY exit status from the CLI
		"connection reset",
		"connection refused",
		"too many connections",
		"broken pipe",
	} {
		if strings.Contains(msg, marker) {
			return &TransientError{Err: err}
		}
	}
	return err
}
