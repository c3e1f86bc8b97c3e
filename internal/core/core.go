// Package core wires the whole semantic pipeline of the paper together
// (Algorithm 2, Keyword Search): term matching, query-pattern generation and
// annotation, disambiguation, ranking, SQL translation, and — when the
// database is unnormalized — planning over the normalized view D' with
// mapping back to D and the Section 4.1 rewriting rules.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwagg/internal/backend"
	"kwagg/internal/chaos"
	"kwagg/internal/keyword"
	"kwagg/internal/match"
	"kwagg/internal/normalize"
	"kwagg/internal/obs"
	"kwagg/internal/orm"
	"kwagg/internal/pattern"
	"kwagg/internal/planck"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
	"kwagg/internal/translate"
)

// System answers keyword queries over one database.
//
// A System is safe for concurrent use after Open: the schema graph, matcher,
// inverted index and per-table value indexes are all built during Open and
// never mutated afterwards (Open freezes the database, so inserts are
// rejected from then on). The exported fields are shared state — treat them
// as read-only.
type System struct {
	Data       *relation.Database
	Graph      *orm.Graph
	View       *normalize.View // nil when the database is normalized
	Matcher    *match.Matcher
	Generator  *pattern.Generator
	Translator *translate.Translator

	// Workers bounds the worker pool executing the top-k statements in
	// Answer; 0 means min(GOMAXPROCS, 8). Set before sharing the System.
	Workers int

	// Chaos is the optional fault injector consulted at the statement and
	// worker injection points (nil disables chaos, the default). Set before
	// sharing the System.
	Chaos chaos.Injector

	// MaxRetries bounds how many times one statement is retried after an
	// injectable-transient fault (real execution errors are never retried);
	// 0 means DefaultMaxRetries, negative disables retrying. Set before
	// sharing the System.
	MaxRetries int

	// RetryBackoff is the base of the exponential jittered backoff between
	// statement retries; 0 means DefaultRetryBackoff. Set before sharing
	// the System.
	RetryBackoff time.Duration

	// Memo is the shared-subplan cache statement execution runs through: the
	// top-k interpretations of one keyword query share most of their
	// ORM-graph join fragments, so filtered scans, join accumulations and
	// derived tables computed by one statement are reused by the others (and
	// by later requests — sound because Open froze the database). nil
	// disables memoization. Built by Open from Options.MemoCells.
	Memo *sqldb.Memo

	// Plan is the plan-invariant verifier over the stored database, built by
	// Open. CheckPlans always consults it; Interpret additionally fails on
	// any finding when VerifyPlans is set.
	Plan *planck.Checker

	// VerifyPlans makes Interpret verify every translated plan with planck
	// and fail on findings — the debug-mode assertion the test suites run
	// under. Set before sharing the System.
	VerifyPlans bool

	// NoBatch is always false: the batch kernels are the only execution
	// path.
	//
	// Deprecated: nothing in this module sets or reads it; it remains only
	// because the end-to-end benchmark module (kwbench/layers.go) still
	// reads it.
	NoBatch bool

	// Shards is the shard-parallel worker target for a single statement's
	// batch kernels: 0 resolves to min(GOMAXPROCS, 8), negative pins
	// single-shard execution. Answers are row- and byte-identical either
	// way (see internal/sqldb/parallel.go). Built by Open from
	// Options.Shards.
	Shards int

	// Backend, when non-nil, executes every statement instead of the
	// embedded in-memory engine: generated SQL is rendered for the backend's
	// dialect and run on its engine, under the same per-statement deadline,
	// chaos injection and transient-retry policy as the default path. The
	// backend must hold (an export of) the same frozen data as Data. Built by
	// Open from Options.Backend.
	Backend backend.Backend
}

// Retry policy defaults: up to two retries, 1ms base backoff doubling per
// attempt with up to 50% jitter — enough to ride out an injected fault burst
// without holding a request hostage.
const (
	DefaultMaxRetries   = 2
	DefaultRetryBackoff = time.Millisecond
)

// DefaultMemoCells is the default shared-subplan memo budget, in result cells
// (rows x columns summed over cached fragments) — roughly a few tens of
// megabytes of cached intermediate rowsets at typical column counts.
const DefaultMemoCells = 1 << 20

// Options configures Open.
type Options struct {
	// NameHints names the synthesized relations of the normalized view (see
	// normalize.BuildView); unused for normalized databases.
	NameHints map[string]string
	// ForceViewPipeline runs the normalized-view pipeline even when the
	// database is already in 3NF (used in tests).
	ForceViewPipeline bool
	// Workers bounds the Answer execution pool; 0 means min(GOMAXPROCS, 8).
	Workers int
	// Chaos is the optional fault injector (nil = disabled).
	Chaos chaos.Injector
	// MaxRetries and RetryBackoff tune the transient-fault retry policy;
	// zero values select the defaults.
	MaxRetries   int
	RetryBackoff time.Duration
	// MemoCells bounds the shared-subplan memo (result cells, LRU); 0 means
	// DefaultMemoCells, negative disables memoization.
	MemoCells int64
	// VerifyPlans makes Interpret verify every translated plan against the
	// paper's invariants (internal/planck) and fail on findings.
	VerifyPlans bool
	// Shards is the per-statement shard-parallel worker target: 0 means
	// min(GOMAXPROCS, 8), 1 or negative pins single-shard execution —
	// the same zero/negative idiom as MemoCells.
	Shards int
	// Backend routes statement execution to an external engine (nil — the
	// default — executes on the embedded in-memory engine). The caller keeps
	// ownership: Close it after the System is done.
	Backend backend.Backend
}

// Open prepares a database for keyword search. It checks every relation's
// normal form (Algorithm 1/2): if all relations are in 3NF the ORM schema
// graph is built directly on the schema; otherwise the normalized view D' is
// derived, the graph is built on D', and translation maps back to the stored
// relations and rewrites the SQL.
func Open(db *relation.Database, opts *Options) (*System, error) {
	return openSystem(db, opts, nil)
}

// openSystem is Open with an optional pre-built inverted index over db (it
// must equal relation.BuildIndex(db); nil builds one). The incremental epoch
// commit passes the patched previous-epoch index so opening the next epoch
// never re-tokenizes old rows; everything else about Open is unchanged — on
// an already-frozen database (a delta-built epoch) the Freeze below is a
// per-table no-op, so the open costs only the schema-sized work (view, ORM
// graph, plan checker, fresh memo).
func openSystem(db *relation.Database, opts *Options, idx *relation.InvertedIndex) (*System, error) {
	if opts == nil {
		opts = &Options{}
	}
	if errs := relation.ValidateDatabase(db); len(errs) > 0 {
		return nil, fmt.Errorf("core: invalid schema: %w (and %d more)", errs[0], len(errs)-1)
	}
	s := &System{Data: db}
	view, err := normalize.BuildView(db, opts.NameHints)
	if err != nil {
		return nil, err
	}
	if view.Changed || opts.ForceViewPipeline {
		s.View = view
		g, err := orm.Build(view.Schemas)
		if err != nil {
			return nil, fmt.Errorf("core: building ORM graph over normalized view: %w", err)
		}
		s.Graph = g
		s.Matcher = match.NewWithIndex(db, view.Schemas, g, view.Sources, idx)
		s.Translator = &translate.Translator{Graph: g, Data: db, Sources: view.Sources, Rewrite: true}
	} else {
		g, err := orm.Build(db.Schemas())
		if err != nil {
			return nil, fmt.Errorf("core: building ORM graph: %w", err)
		}
		s.Graph = g
		s.Matcher = match.NewWithIndex(db, db.Schemas(), g, nil, idx)
		s.Translator = translate.New(g, db)
	}
	s.Generator = pattern.NewGenerator(s.Matcher)
	s.Workers = opts.Workers
	s.Chaos = opts.Chaos
	s.MaxRetries = opts.MaxRetries
	s.RetryBackoff = opts.RetryBackoff
	s.Plan = planck.New(db)
	s.VerifyPlans = opts.VerifyPlans
	s.Shards = opts.Shards
	s.Backend = opts.Backend
	// Freeze the stored data: later inserts are rejected, and every
	// per-table value index and column dictionary is built now so query
	// execution never mutates shared state (the thread-safety contract of
	// System).
	db.Freeze()
	if opts.MemoCells >= 0 {
		cells := opts.MemoCells
		if cells == 0 {
			cells = DefaultMemoCells
		}
		// Safe to share across statements and requests: the database was
		// frozen above, so every memo key's fragment is deterministic.
		s.Memo = sqldb.NewMemo(cells)
	}
	return s, nil
}

// Unnormalized reports whether the system plans over a normalized view.
func (s *System) Unnormalized() bool { return s.View != nil }

// Interpretation is one ranked reading of a keyword query: its annotated
// query pattern, the generated SQL, and a description of the intent.
type Interpretation struct {
	Pattern     *pattern.Pattern
	SQL         *sqlast.Query
	Description string
}

// Interpret parses the query, generates and ranks the annotated query
// patterns, and translates the top-k of them into SQL. k <= 0 means all.
func (s *System) Interpret(query string, k int) ([]Interpretation, error) {
	return s.InterpretContext(context.Background(), query, k)
}

// InterpretContext is Interpret with the pipeline stages instrumented: when
// the context carries an obs trace or registry, parsing, matching, pattern
// generation, ranking and SQL translation each run under a span, giving the
// per-stage cost breakdown the paper reports in its evaluation (Section 8).
func (s *System) InterpretContext(ctx context.Context, query string, k int) ([]Interpretation, error) {
	_, pspan := obs.Start(ctx, "parse")
	q, err := keyword.Parse(query)
	pspan.End()
	if err != nil {
		return nil, err
	}
	patterns, err := s.Generator.GenerateContext(ctx, q)
	if err != nil {
		return nil, err
	}
	if k > 0 && len(patterns) > k {
		patterns = patterns[:k]
	}
	_, tspan := obs.Start(ctx, "translate")
	defer tspan.End()
	out := make([]Interpretation, 0, len(patterns))
	for _, p := range patterns {
		sql, err := s.Translator.Translate(p)
		if err != nil {
			return nil, fmt.Errorf("core: translating pattern %s: %w", p, err)
		}
		if s.VerifyPlans {
			if fs := s.Plan.CheckInterpretation(p, sql); len(fs) > 0 {
				return nil, fmt.Errorf("core: plan verification failed for pattern %s: %s (%d finding(s))",
					p, fs[0], len(fs))
			}
		}
		out = append(out, Interpretation{Pattern: p, SQL: sql, Description: p.Describe()})
	}
	return out, nil
}

// CheckPlans interprets the query and runs the plan-invariant verifier over
// every translated statement, returning the findings instead of failing (so
// callers can report all of them). k <= 0 means all interpretations.
func (s *System) CheckPlans(query string, k int) ([]planck.Finding, error) {
	q, err := keyword.Parse(query)
	if err != nil {
		return nil, err
	}
	patterns, err := s.Generator.Generate(q)
	if err != nil {
		return nil, err
	}
	if k > 0 && len(patterns) > k {
		patterns = patterns[:k]
	}
	var fs []planck.Finding
	for _, p := range patterns {
		sql, err := s.Translator.Translate(p)
		if err != nil {
			return nil, fmt.Errorf("core: translating pattern %s: %w", p, err)
		}
		fs = append(fs, s.Plan.CheckInterpretation(p, sql)...)
	}
	return fs, nil
}

// Answer is one executed interpretation.
type Answer struct {
	Interpretation
	Result *sqldb.Result
}

// Answer interprets the query and executes the top-k generated SQL
// statements against the stored database. Execution runs on a bounded
// worker pool (see Workers); the returned slice preserves rank order.
func (s *System) Answer(query string, k int) ([]Answer, error) {
	return s.AnswerContext(context.Background(), query, k)
}

// AnswerContext is Answer honoring a context: cancellation is checked before
// each statement starts executing (a statement already running is not
// interrupted).
func (s *System) AnswerContext(ctx context.Context, query string, k int) ([]Answer, error) {
	ins, err := s.InterpretContext(ctx, query, k)
	if err != nil {
		return nil, err
	}
	return s.ExecuteAll(ctx, ins)
}

// AnswerParallel is kept as an alias of Answer for older callers; Answer
// itself now executes on the bounded pool.
func (s *System) AnswerParallel(query string, k int) ([]Answer, error) {
	return s.Answer(query, k)
}

// ExecWorkers resolves the execution pool size Answer uses.
func (s *System) ExecWorkers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ShardWorkers resolves the per-statement shard-parallel worker target: the
// configured Shards when positive, single-shard when negative, otherwise
// min(GOMAXPROCS, 8). The inter-statement pool (ExecWorkers) and the
// intra-statement shard workers share the process: sqldb bounds the total
// number of extra kernel goroutines with a process-wide slot pool, so
// stacking both never oversubscribes the machine.
func (s *System) ShardWorkers() int {
	if s.Shards > 0 {
		return s.Shards
	}
	if s.Shards < 0 {
		return 1
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// StatementError describes one interpretation whose statement failed to
// produce an answer after retries.
type StatementError struct {
	// Index is the interpretation's rank position in the executed slice.
	Index int
	// Pattern and SQL identify the failed interpretation.
	Pattern string
	SQL     string
	// Err is the final attempt's error.
	Err error
}

func (e *StatementError) Error() string {
	return fmt.Sprintf("core: executing %s: %v", e.SQL, e.Err)
}

func (e *StatementError) Unwrap() error { return e.Err }

// ExecReport is the degradation-aware outcome of ExecuteAllReport: the
// statements that completed (rank order preserved) and, separately, the ones
// that failed, so the serving layer can return a partial answer instead of
// failing the whole request.
type ExecReport struct {
	Answers []Answer          // completed statements, in rank order
	Failed  []*StatementError // failed statements, in rank order
	Retries int               // transient-fault retry attempts across all statements
}

// Partial reports whether some but not all statements completed.
func (r *ExecReport) Partial() bool { return len(r.Failed) > 0 && len(r.Answers) > 0 }

// Err summarizes the report as a single error for strict callers: nil when
// everything completed, otherwise the first failure — preferring a context
// error so a timed-out request keeps its deadline semantics.
func (r *ExecReport) Err() error {
	if len(r.Failed) == 0 {
		return nil
	}
	for _, f := range r.Failed {
		if errors.Is(f.Err, context.DeadlineExceeded) || errors.Is(f.Err, context.Canceled) {
			return f
		}
	}
	return r.Failed[0]
}

// ExecuteAll executes every interpretation's SQL against the stored database
// on a pool of at most ExecWorkers goroutines, returning the answers in the
// same rank order as ins. The database is frozen (read-only), so the workers
// share it without locking. The first error wins; ctx cancellation stops
// statements that have not started yet and interrupts running ones at the
// next row-batch boundary. Degradation-tolerant callers use
// ExecuteAllReport instead and keep the statements that did complete.
func (s *System) ExecuteAll(ctx context.Context, ins []Interpretation) ([]Answer, error) {
	rep := s.ExecuteAllReport(ctx, ins)
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return rep.Answers, nil
}

// ExecuteAllReport executes every interpretation's SQL on the bounded worker
// pool and reports per-statement outcomes instead of failing the whole batch
// on the first error.
//
// Robustness semantics (see docs/ROBUSTNESS.md):
//
//   - Each statement runs under a deadline derived from the request deadline
//     (a slice of the remaining budget is reserved for rendering), and
//     execution aborts mid-statement when it expires — a goroutine never
//     outlives a cancelled request by more than one row batch.
//   - Injectable-transient faults (chaos.IsTransient) are retried up to
//     MaxRetries times with exponential jittered backoff; real execution
//     errors and context errors surface immediately.
//   - Every degradation event is counted in the registry carried by ctx:
//     retries, and failures labeled by kind (transient, deadline, canceled,
//     error).
func (s *System) ExecuteAllReport(ctx context.Context, ins []Interpretation) *ExecReport {
	rep := &ExecReport{}
	if len(ins) == 0 {
		return rep
	}
	// The execute span covers the wall time of the whole pool run; each
	// statement additionally runs under a nested per-statement span, so a
	// trace shows both the stage cost and how the pool overlapped statements.
	ctx, espan := obs.Start(ctx, "execute")
	defer espan.End()
	sctx, cancel := statementContext(ctx)
	defer cancel()
	workers := s.ExecWorkers()
	if workers > len(ins) {
		workers = len(ins)
	}
	out := make([]*Answer, len(ins))
	errs := make([]error, len(ins))
	var retries atomic.Int64
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				if s.Chaos != nil {
					// Slow/stuck-worker injection: the delay honors the
					// request context, so a stuck worker unsticks the moment
					// the request is cancelled.
					if err := chaos.Sleep(ctx, s.Chaos.Delay(chaos.PointWorker)); err != nil {
						errs[i] = err
						continue
					}
				}
				res, n, err := s.execStatement(sctx, ctx, ins[i], i)
				retries.Add(int64(n))
				if err != nil {
					errs[i] = err
					continue
				}
				out[i] = &Answer{Interpretation: ins[i], Result: res}
			}
		}()
	}
	for i := range ins {
		next <- i
	}
	close(next)
	wg.Wait()
	rep.Retries = int(retries.Load())
	reg := obs.RegistryFrom(ctx)
	if reg != nil && rep.Retries > 0 {
		reg.Counter("kwagg_exec_retries_total",
			"Statement execution retries after injectable-transient faults.").
			Add(uint64(rep.Retries))
	}
	for i := range ins {
		switch {
		case errs[i] != nil:
			rep.Failed = append(rep.Failed, &StatementError{
				Index:   i,
				Pattern: ins[i].Pattern.String(),
				SQL:     ins[i].SQL.String(),
				Err:     errs[i],
			})
			if reg != nil {
				reg.Counter("kwagg_exec_statement_failures_total",
					"Statements that failed after retries, by failure kind.",
					obs.L("kind", failureKind(errs[i]))).Inc()
			}
		case out[i] != nil:
			rep.Answers = append(rep.Answers, *out[i])
		}
	}
	return rep
}

// execStatement runs one interpretation's SQL with the retry policy: sctx
// carries the per-statement deadline, rctx the plain request context used
// for backoff sleeps (so retries are abandoned when the request dies).
func (s *System) execStatement(sctx, rctx context.Context, in Interpretation, idx int) (*sqldb.Result, int, error) {
	maxRetries := s.MaxRetries
	switch {
	case maxRetries == 0:
		maxRetries = DefaultMaxRetries
	case maxRetries < 0:
		maxRetries = 0
	}
	backoff := s.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	var detail string
	if s.Chaos != nil {
		detail = in.SQL.String()
	}
	retried := 0
	for attempt := 0; ; attempt++ {
		_, sspan := obs.Start(rctx, "sql")
		if attempt == 0 {
			sspan.Detail(fmt.Sprintf("stmt %d", idx))
		} else {
			sspan.Detail(fmt.Sprintf("stmt %d retry %d", idx, attempt))
		}
		res, err := s.execAttempt(sctx, in, detail)
		sspan.End()
		if err == nil {
			res.SortRows()
			return res, retried, nil
		}
		if !chaos.IsTransient(err) || attempt >= maxRetries || rctx.Err() != nil {
			return nil, retried, err
		}
		retried++
		// Exponential backoff with up to 50% jitter, abandoned as soon as
		// the request context dies.
		d := chaos.Jitter(backoff << attempt)
		if serr := chaos.Sleep(rctx, d); serr != nil {
			return nil, retried, serr
		}
	}
}

// execAttempt is one execution attempt: chaos statement injection (latency,
// transient error, injected cancellation) followed by the cancellable
// evaluation under the per-statement deadline — on the external backend when
// one is configured, on the embedded engine otherwise.
func (s *System) execAttempt(sctx context.Context, in Interpretation, detail string) (*sqldb.Result, error) {
	if s.Chaos != nil {
		if err := chaos.Sleep(sctx, s.Chaos.Delay(chaos.PointStatement)); err != nil {
			return nil, err
		}
		if err := s.Chaos.Fault(chaos.PointStatement, detail); err != nil {
			return nil, err
		}
	}
	if s.Backend != nil {
		return s.execBackend(sctx, in)
	}
	res, st, err := sqldb.ExecOpts(sctx, s.Data, in.SQL,
		sqldb.ExecConfig{Memo: s.Memo, Shards: s.ShardWorkers()})
	if st.Hits > 0 || st.Misses > 0 || st.ShardRuns > 0 {
		if reg := obs.RegistryFrom(sctx); reg != nil {
			if st.Hits > 0 || st.Misses > 0 {
				reg.Counter("kwagg_memo_hits_total",
					"Subplan fragments served from the shared-subplan memo.").Add(uint64(st.Hits))
				reg.Counter("kwagg_memo_misses_total",
					"Subplan fragments computed on a memo miss.").Add(uint64(st.Misses))
			}
			if st.ShardRuns > 0 {
				reg.Counter("kwagg_shard_runs_total",
					"Kernel passes executed shard-parallel.").Add(uint64(st.ShardRuns))
			}
		}
	}
	return res, err
}

// execBackend runs one attempt on the configured external backend and
// counts it: kwagg_backend_statements_total broken down by backend name and
// outcome (ok / transient / error), kwagg_backend_rows_total for answer
// volume. The result rows stream through backend.Collect into the same
// sqldb.Result shape the embedded engine produces, so ranking, caching and
// response rendering never see which engine answered.
func (s *System) execBackend(sctx context.Context, in Interpretation) (*sqldb.Result, error) {
	reg := obs.RegistryFrom(sctx)
	rows, err := s.Backend.Exec(sctx, in.SQL)
	var res *sqldb.Result
	if err == nil {
		res, err = backend.Collect(rows)
	}
	if reg != nil {
		outcome := "ok"
		switch {
		case err == nil:
		case chaos.IsTransient(err):
			outcome = "transient"
		default:
			outcome = "error"
		}
		reg.Counter("kwagg_backend_statements_total",
			"Statement attempts executed on an external backend, by backend and outcome.",
			obs.L("backend", s.Backend.Name()), obs.L("outcome", outcome)).Inc()
		if err == nil {
			reg.Counter("kwagg_backend_rows_total",
				"Rows returned by external-backend statements, by backend.",
				obs.L("backend", s.Backend.Name())).Add(uint64(len(res.Rows)))
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// statementMarginCap bounds the slice of the request budget reserved for
// rendering the (possibly partial) response after statements finish.
const statementMarginCap = 100 * time.Millisecond

// statementContext derives the per-statement deadline from the request
// deadline: 10% of the remaining budget (capped at statementMarginCap) is
// held back so a request whose statements run long still has time to render
// a partial answer and count the degradation, instead of the whole response
// dying at the wire deadline. Without a request deadline the context is
// returned unchanged.
func statementContext(ctx context.Context) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return ctx, func() {}
	}
	//kwlint:ignore detclock deadline budgeting is inherently wall-clock: the margin derives from the caller's ctx deadline
	margin := time.Until(dl) / 10
	if margin > statementMarginCap {
		margin = statementMarginCap
	}
	if margin <= 0 {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, dl.Add(-margin))
}

// failureKind buckets a statement failure for the degradation counters.
func failureKind(err error) string {
	switch {
	case chaos.IsTransient(err):
		return "transient"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	default:
		return "error"
	}
}

// BestAnswer returns the first interpretation whose description satisfies
// pick (or the top-ranked one when pick is nil), executed. The experiment
// harness uses pick to select the interpretation matching the paper's query
// description, mirroring how the authors "use the generated SQL statements
// that best match the query descriptions".
func (s *System) BestAnswer(query string, k int, pick func(Interpretation) bool) (*Answer, error) {
	ins, err := s.Interpret(query, k)
	if err != nil {
		return nil, err
	}
	idx := 0
	if pick != nil {
		found := false
		for i, in := range ins {
			if pick(in) {
				idx, found = i, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: no interpretation of %q matches the selector", query)
		}
	}
	res, _, err := sqldb.ExecOpts(context.Background(), s.Data, ins[idx].SQL,
		sqldb.ExecConfig{Shards: s.ShardWorkers()})
	if err != nil {
		return nil, fmt.Errorf("core: executing %q: %w", ins[idx].SQL, err)
	}
	res.SortRows()
	return &Answer{Interpretation: ins[idx], Result: res}, nil
}

// Execute runs an arbitrary SQL statement of the supported subset against
// the stored database.
func (s *System) Execute(sql string) (*sqldb.Result, error) {
	q, err := sqldb.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, _, err := sqldb.ExecOpts(context.Background(), s.Data, q,
		sqldb.ExecConfig{Shards: s.ShardWorkers()})
	return res, err
}

// DescribeSchema summarises the planning schema: node names, types and
// relations — the ORM schema graph contents (Figures 3 and 9).
func (s *System) DescribeSchema() string {
	var b strings.Builder
	for _, n := range s.Graph.Nodes() {
		fmt.Fprintf(&b, "%s [%s] %s", n.Name, n.Type, n.Relation)
		if s.View != nil {
			src := s.View.Sources[strings.ToLower(n.Relation.Name)]
			if !strings.EqualFold(src, n.Relation.Name) {
				fmt.Fprintf(&b, " <- %s", src)
			}
		}
		for _, c := range n.Components {
			fmt.Fprintf(&b, " +component %s", c)
		}
		fmt.Fprintf(&b, " adj=%v\n", s.Graph.Neighbors(n.Name))
	}
	return b.String()
}
