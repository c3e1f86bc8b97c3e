// Package kwagg answers keyword queries involving aggregate functions and
// GROUPBY over relational databases, implementing the semantic approach of
// Zeng, Lee and Ling, "Answering Keyword Queries involving Aggregates and
// GROUPBY on Relational Databases" (EDBT 2016).
//
// A keyword query is a sequence of terms; each term matches a relation name,
// an attribute name, a tuple value, GROUPBY, or one of the aggregate
// functions MIN, MAX, AVG, SUM and COUNT:
//
//	eng, _ := kwagg.Open(db, nil)
//	answers, _ := eng.Answer(`COUNT Lecturer GROUPBY Course`, 1)
//
// The engine captures the database's Object-Relationship-Attribute (ORA)
// semantics in an ORM schema graph, interprets the query as ranked annotated
// query patterns, and translates the top-k patterns to SQL. The semantics
// let it distinguish objects sharing an attribute value (one aggregate per
// object), project away unused participants of n-ary relationships before
// joining (no duplicate counting), and — when relations violate 3NF — plan
// over a derived normalized view and rewrite the SQL back onto the stored
// relations.
//
// The package also exposes the SQAK baseline (Tata & Lohman, SIGMOD 2008)
// for side-by-side comparison, an in-memory SQL engine that executes the
// generated statements, and generators for the evaluation datasets.
package kwagg

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"kwagg/internal/backend"
	"kwagg/internal/chaos"
	"kwagg/internal/core"
	"kwagg/internal/keyword"
	"kwagg/internal/obs"
	"kwagg/internal/qcache"
	"kwagg/internal/relation"
	"kwagg/internal/sqak"
	"kwagg/internal/sqldb"
)

// Column declares one attribute of a table as "name TYPE"; TYPE is one of
// INT, FLOAT, DATE, or omitted for VARCHAR.
type Column = string

// FK declares a foreign key: Attrs in this table reference RefAttrs (the
// key) of RefTable. RefAttrs defaults to Attrs when empty.
type FK struct {
	Attrs    []string
	RefTable string
	RefAttrs []string
}

// Dep declares a functional dependency From -> To. Dependencies beyond the
// primary key drive unnormalized-schema detection and 3NF view synthesis.
type Dep struct {
	From []string
	To   []string
}

// TableSpec declares one table of a database.
type TableSpec struct {
	Name         string
	Columns      []Column
	PrimaryKey   []string
	ForeignKeys  []FK
	Dependencies []Dep
}

// DB is a mutable in-memory relational database.
type DB struct {
	db *relation.Database
}

// NewDB creates an empty database.
func NewDB(name string) *DB { return &DB{db: relation.NewDatabase(name)} }

// wrapDB adopts an internal database (used by the dataset constructors).
func wrapDB(db *relation.Database) *DB { return &DB{db: db} }

// CreateTable adds a table to the database.
func (d *DB) CreateTable(spec TableSpec) error {
	if spec.Name == "" || len(spec.Columns) == 0 {
		return fmt.Errorf("kwagg: table needs a name and columns")
	}
	s := relation.NewSchema(spec.Name, spec.Columns...)
	s.Key(spec.PrimaryKey...)
	for _, fk := range spec.ForeignKeys {
		s.Ref(fk.Attrs, fk.RefTable, fk.RefAttrs...)
	}
	for _, dep := range spec.Dependencies {
		s.Dep(dep.From, dep.To...)
	}
	d.db.AddSchema(s)
	return nil
}

// MustCreateTable is CreateTable but panics on error.
func (d *DB) MustCreateTable(spec TableSpec) {
	if err := d.CreateTable(spec); err != nil {
		panic(err)
	}
}

// Insert appends a row of string fields, coerced to the declared column
// types (empty string becomes NULL for non-VARCHAR columns).
//
// Once the database has been passed to Open, it is frozen: Insert returns an
// error from then on, which is what lets an Engine serve concurrent queries
// over immutable data and caches without locking. Build the data first, then
// Open.
func (d *DB) Insert(table string, fields ...string) error {
	t := d.db.Table(table)
	if t == nil {
		return fmt.Errorf("kwagg: unknown table %q", table)
	}
	return t.InsertRow(fields...)
}

// MustInsert is Insert but panics on error.
func (d *DB) MustInsert(table string, fields ...string) {
	if err := d.Insert(table, fields...); err != nil {
		panic(err)
	}
}

// Stats returns a one-line row-count summary.
func (d *DB) Stats() string { return d.db.Stats() }

// Save writes the database to a directory: schema.json (relations, types,
// keys, foreign keys, functional dependencies) plus one CSV per relation.
func (d *DB) Save(dir string) error { return relation.SaveDir(d.db, dir) }

// Load reads a database previously written by Save (or assembled by hand in
// the same layout) and validates its catalog.
func Load(dir string) (*DB, error) {
	db, err := relation.LoadDir(dir)
	if err != nil {
		return nil, err
	}
	return &DB{db: db}, nil
}

// Options configures Open.
type Options struct {
	// ViewNames names the relations of the normalized view synthesized for
	// an unnormalized database. Keys are key signatures: the key attributes
	// lower-cased, sorted and comma-joined (e.g. "paperid" or
	// "authorid,paperid"). Unnamed relations get generated names.
	ViewNames map[string]string
	// CacheSize bounds the interpretation cache (entries, LRU); 0 means
	// qcache.DefaultCapacity, negative disables caching.
	CacheSize int
	// Workers bounds the pool executing the top-k statements of Answer;
	// 0 means min(GOMAXPROCS, 8).
	Workers int
	// Chaos installs a fault injector at every instrumented pipeline point
	// (statement execution, worker pool, query caches); nil — the default —
	// disables chaos entirely, leaving only a nil check on the hot path.
	// See internal/chaos and docs/ROBUSTNESS.md.
	Chaos chaos.Injector
	// MemoCells bounds the shared-subplan memo that statement execution runs
	// through (result cells = rows x columns summed over cached fragments,
	// LRU): join fragments shared by the top-k interpretations of a query —
	// and by later queries, since the data is frozen — are computed once.
	// 0 means the core default, negative disables memoization.
	MemoCells int64
	// VerifyPlans makes every translated statement pass the plan-invariant
	// verifier (internal/planck) before it is returned or executed:
	// Interpret and Answer fail on any finding. The test suites and the
	// dataset workload replays run with it on; see docs/STATIC_ANALYSIS.md.
	VerifyPlans bool
	// Shards is the shard-parallel worker target for a single statement's
	// batch kernels: 0 means min(GOMAXPROCS, 8), 1 or negative pins
	// single-shard execution. Answers are row- and byte-identical either
	// way; the knob trades per-statement latency against cross-statement
	// throughput of the Workers pool.
	Shards int
	// Backend routes statement execution to an external engine
	// (internal/backend): generated SQL is rendered for the backend's
	// dialect and executed there, under the same per-statement deadlines,
	// retry policy and partial-answer semantics as the embedded engine. nil
	// (the default) executes in-memory. The engine does not take ownership —
	// Close the backend after the engine is done with it.
	Backend backend.Backend
}

// Engine answers keyword queries over one database.
//
// An Engine is safe for concurrent use: Open freezes the database (Insert is
// rejected afterwards) and builds every index up front, so all query-time
// state is immutable. Interpretations are memoized in a bounded LRU cache
// keyed by the normalized query; concurrent identical queries collapse to
// one computation (singleflight), and Interpret, Answer, Explain and
// PatternDot all share the cached slice. Executed answers are memoized the
// same way per (query, k) — sound because the frozen data cannot change —
// so repeat queries skip execution entirely.
//
// An engine opened with OpenLive additionally accepts rows through Ingest
// and folds them into a new immutable data epoch on CommitEpoch. Each query
// snapshots one epoch's state atomically (system, baseline, epoch number),
// and both caches key on the epoch, so a swap mid-request can never mix
// epochs within one answer or serve a stale cached answer as the new epoch's.
type Engine struct {
	cur     atomic.Pointer[engineState]
	live    *core.Live    // nil for engines opened with Open (frozen forever)
	cache   *qcache.Cache // nil when caching is disabled; holds []core.Interpretation
	answers *qcache.Cache // nil when caching is disabled; holds []Answer per (query, k)
	metrics *obs.Registry // per-engine observability registry (never nil)
}

// engineState is the per-epoch immutable query state, swapped as one unit:
// queries that loaded it keep planning and executing against a single epoch
// even while a commit swaps in the next one.
type engineState struct {
	sys   *core.System
	sqak  *sqak.System
	epoch uint64
}

// state returns the current epoch's engine state, folding in a freshly
// committed epoch first (CAS; the loser of a race adopts the winner's state).
func (e *Engine) state() *engineState {
	st := e.cur.Load()
	if e.live == nil {
		return st
	}
	// One Snapshot yields both the epoch check and the system to fold in; a
	// second load could observe a different epoch than the first.
	sys, epoch := e.live.Snapshot()
	if epoch == st.epoch {
		return st
	}
	next := &engineState{sys: sys, sqak: sqak.New(sys.Data), epoch: epoch}
	if e.cur.CompareAndSwap(st, next) {
		return next
	}
	return e.cur.Load()
}

// coreOptions translates the public Options into core's.
func coreOptions(opts *Options) *core.Options {
	copts := &core.Options{}
	if opts != nil {
		copts.NameHints = opts.ViewNames
		copts.Workers = opts.Workers
		copts.Chaos = opts.Chaos
		copts.MemoCells = opts.MemoCells
		copts.VerifyPlans = opts.VerifyPlans
		copts.Shards = opts.Shards
		copts.Backend = opts.Backend
	}
	return copts
}

// Open prepares the database for keyword search: it checks every relation's
// normal form, builds the ORM schema graph (over the normalized view for
// unnormalized databases), and indexes the stored values. Open freezes the
// database; see DB.Insert.
func Open(d *DB, opts *Options) (*Engine, error) {
	sys, err := core.Open(d.db, coreOptions(opts))
	if err != nil {
		return nil, err
	}
	return newEngine(sys, nil, opts), nil
}

// OpenLive is Open for a database that keeps growing: the engine answers
// queries exactly like a frozen one, but additionally accepts rows through
// Ingest and, on CommitEpoch, freezes them into the next immutable data
// epoch and atomically swaps it in. In-flight queries finish on the epoch
// they started on; completed answers are always byte-identical to some
// single epoch.
func OpenLive(d *DB, opts *Options) (*Engine, error) {
	live, err := core.OpenLive(d.db, coreOptions(opts))
	if err != nil {
		return nil, err
	}
	return newEngine(live.System(), live, opts), nil
}

func newEngine(sys *core.System, live *core.Live, opts *Options) *Engine {
	e := &Engine{live: live, metrics: obs.NewRegistry()}
	e.cur.Store(&engineState{sys: sys, sqak: sqak.New(sys.Data)})
	cacheSize := 0
	if opts != nil {
		cacheSize = opts.CacheSize
	}
	if cacheSize >= 0 {
		e.cache = qcache.New(cacheSize)
		e.answers = qcache.New(cacheSize)
		if opts != nil && opts.Chaos != nil {
			e.cache.SetInjector(opts.Chaos)
			e.answers.SetInjector(opts.Chaos)
		}
		registerCacheMetrics(e.metrics, "interpretation", e.cache.Stats)
		registerCacheMetrics(e.metrics, "answer", e.answers.Stats)
	}
	e.metrics.GaugeFunc("kwagg_exec_workers", "Size of the pool executing top-k statements.",
		func() float64 { return float64(e.state().sys.ExecWorkers()) })
	e.metrics.GaugeFunc("kwagg_shard_workers", "Shard-parallel worker target per statement.",
		func() float64 { return float64(e.state().sys.ShardWorkers()) })
	if live != nil {
		e.metrics.GaugeFunc("kwagg_epoch_pending_rows", "Rows ingested but not yet committed to an epoch.",
			func() float64 { return float64(live.Pending()) })
	}
	return e
}

// ErrNotLive is returned by the live-ingest methods of an engine opened with
// Open: its database is frozen forever. Use OpenLive to accept rows.
var ErrNotLive = errors.New("kwagg: engine is not live (opened with Open; use OpenLive to ingest)")

// Live reports whether the engine accepts live ingest (opened with OpenLive).
func (e *Engine) Live() bool { return e.live != nil }

// Epoch returns the engine's current committed data epoch: 0 for a frozen
// engine or a live one before its first CommitEpoch.
func (e *Engine) Epoch() uint64 { return e.state().epoch }

// PendingRows reports the rows ingested but not yet committed (0 for a
// frozen engine).
func (e *Engine) PendingRows() int {
	if e.live == nil {
		return 0
	}
	return e.live.Pending()
}

// Status is the engine's serving status, read from one snapshot.
type Status struct {
	// Live reports whether the engine accepts Ingest/CommitEpoch.
	Live bool
	// Epoch is the committed data epoch (0 for a frozen engine or a live
	// one before its first CommitEpoch).
	Epoch uint64
	// Workers is the size of the execution worker pool.
	Workers int
	// PendingRows counts rows ingested but not yet committed.
	PendingRows int
	// EpochBuild is the wall time the most recent CommitEpoch spent
	// building (zero before the first commit or for a frozen engine).
	EpochBuild time.Duration
}

// Status reports the serving counters from a single engine snapshot, so the
// epoch and worker count cannot mix epochs the way separate Epoch/Workers
// calls could on a live engine mid-commit.
func (e *Engine) Status() Status {
	st := e.state()
	s := Status{
		Live:    e.live != nil,
		Epoch:   st.epoch,
		Workers: st.sys.ExecWorkers(),
	}
	if e.live != nil {
		s.PendingRows = e.live.Pending()
		s.EpochBuild = e.live.BuildDuration()
	}
	return s
}

// Ingest buffers rows (one string per column, in declaration order, coerced
// to the declared types like DB.Insert) for the named table. Buffered rows
// are invisible to queries until CommitEpoch; the batch is atomic — any bad
// row rejects the whole call. Returns the total pending row count.
func (e *Engine) Ingest(table string, rows [][]string) (int, error) {
	if e.live == nil {
		return 0, ErrNotLive
	}
	return e.live.Ingest(table, rows)
}

// CommitEpoch freezes the pending ingested rows into the next immutable data
// epoch and atomically swaps it in, returning the new epoch number (or the
// current one when nothing is pending). Queries already running finish on
// the epoch they started; new queries see the new epoch, with fresh cache
// entries (both caches key on the epoch).
func (e *Engine) CommitEpoch(ctx context.Context) (uint64, error) {
	if e.live == nil {
		return 0, ErrNotLive
	}
	epoch, err := e.live.Commit(e.withObs(ctx))
	if err != nil {
		return epoch, err
	}
	e.state() // fold the swap in eagerly instead of on the next query
	return epoch, nil
}

// EpochBuildDuration returns the wall time the most recent CommitEpoch spent
// building and opening its epoch (zero for a frozen engine or before the
// first commit). Served as epoch_build_ms by /api/stats.
func (e *Engine) EpochBuildDuration() time.Duration {
	if e.live == nil {
		return 0
	}
	return e.live.BuildDuration()
}

// Metrics returns the engine's observability registry: per-stage latency
// histograms (fed by the pipeline spans), query outcome counters, cache
// counters mirrored from qcache, and the worker-pool gauge. The server layer
// encodes it at GET /metrics and adds its own HTTP counters to it.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// registerCacheMetrics mirrors a qcache's counters into the registry via the
// Stats export hook: cumulative counters (hits, misses, collapsed,
// evictions) become one labeled counter family, levels (size, capacity,
// inflight) become gauges. Values are read live at scrape time.
func registerCacheMetrics(reg *obs.Registry, cache string, stats func() qcache.Stats) {
	qcache.Stats{}.Each(func(name string, _ float64, cumulative bool) {
		read := func() float64 {
			var v float64
			stats().Each(func(n string, val float64, _ bool) {
				if n == name {
					v = val
				}
			})
			return v
		}
		if cumulative {
			reg.CounterFunc("kwagg_cache_events_total",
				"Cache lookups by cache and event (hits, misses, collapsed, evictions).",
				read, obs.L("cache", cache), obs.L("event", name))
		} else {
			reg.GaugeFunc("kwagg_cache_"+name, "Cache "+name+" by cache.",
				read, obs.L("cache", cache))
		}
	})
}

// withObs attaches the engine's metrics registry to the context (unless the
// caller already attached one), so pipeline spans observe into the per-stage
// histograms even when the caller only wants aggregate metrics, not a trace.
func (e *Engine) withObs(ctx context.Context) context.Context {
	if obs.RegistryFrom(ctx) == nil {
		ctx = obs.WithRegistry(ctx, e.metrics)
	}
	return ctx
}

// normalizeQuery canonicalizes a keyword query for cache keying: terms are
// re-tokenized so that spacing variations of the same query share one cache
// entry, while quoted phrases keep their exact text. Queries that fail to
// parse fall back to a whitespace-collapsed key (their error is computed,
// returned and never cached).
func normalizeQuery(query string) string {
	if q, err := keyword.Parse(query); err == nil {
		return q.String()
	}
	return strings.Join(strings.Fields(query), " ")
}

// isContextError reports whether err is a deadline or cancellation error.
func isContextError(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// cachedCompute wraps qcache.GetContext with the poisoned-collapse retry: a
// waiter that collapsed onto another request's in-flight computation can
// inherit that request's context error (its client hung up mid-compute) even
// though this request is perfectly healthy. When that happens — a context
// error we did not compute ourselves while our own context is fine — retry
// once, starting (or joining) a fresh flight, instead of failing a healthy
// request with someone else's cancellation.
func cachedCompute(ctx context.Context, c *qcache.Cache, key string, compute func() (any, error)) (v any, computed bool, err error) {
	for attempt := 0; ; attempt++ {
		computed = false
		v, err = c.GetContext(ctx, key, func() (any, error) {
			computed = true
			return compute()
		})
		if err != nil && !computed && attempt < 1 && isContextError(err) && ctx.Err() == nil {
			continue
		}
		return v, computed, err
	}
}

// epochKey suffixes a cache key with the state's epoch, so entries computed
// on one epoch's data are never served as another's. Old-epoch entries stop
// being referenced after a swap and age out of the LRU.
func epochKey(key string, st *engineState) string {
	return key + "\x00e=" + strconv.FormatUint(st.epoch, 10)
}

// interpretations returns the full ranked interpretation slice of the query
// on st's epoch, serving from the cache when possible. Callers must treat the
// slice as read-only (it is shared across goroutines); take sub-slices, don't
// modify. A trace on the context records whether the slice came from the
// cache.
func (e *Engine) interpretations(ctx context.Context, st *engineState, query string) ([]core.Interpretation, error) {
	ctx = e.withObs(ctx)
	if e.cache == nil {
		return st.sys.InterpretContext(ctx, query, 0)
	}
	v, computed, err := cachedCompute(ctx, e.cache, epochKey(normalizeQuery(query), st), func() (any, error) {
		ins, err := st.sys.InterpretContext(ctx, query, 0)
		if err != nil {
			return nil, err
		}
		return ins, nil
	})
	if computed {
		obs.TraceFrom(ctx).Annotate("interpretation_cache", "miss")
	} else {
		obs.TraceFrom(ctx).Annotate("interpretation_cache", "hit")
	}
	if err != nil {
		return nil, err
	}
	return v.([]core.Interpretation), nil
}

// CacheStats reports the interpretation cache counters (all zero when the
// cache is disabled).
func (e *Engine) CacheStats() qcache.Stats {
	if e.cache == nil {
		return qcache.Stats{}
	}
	return e.cache.Stats()
}

// AnswerCacheStats reports the executed-answer cache counters (all zero when
// the cache is disabled).
func (e *Engine) AnswerCacheStats() qcache.Stats {
	if e.answers == nil {
		return qcache.Stats{}
	}
	return e.answers.Stats()
}

// Unnormalized reports whether the engine plans over a derived normalized
// view because the stored schema violates 3NF.
func (e *Engine) Unnormalized() bool { return e.state().sys.Unnormalized() }

// SchemaGraph describes the ORM schema graph nodes, their types, and their
// adjacency (Figures 3 and 9 of the paper).
func (e *Engine) SchemaGraph() string { return e.state().sys.DescribeSchema() }

// Interpretation is one ranked reading of a keyword query.
type Interpretation struct {
	// Description paraphrases the interpretation.
	Description string
	// SQL is the generated statement (single-line; PrettySQL is formatted).
	SQL       string
	PrettySQL string
	// Pattern is the annotated query pattern in compact text form.
	Pattern string
}

// Result is an executed query result.
type Result struct {
	Columns []string
	Rows    [][]string
}

// Answer is one executed interpretation.
type Answer struct {
	Interpretation
	Result Result
}

// FailedStatement describes one top-k statement that did not complete, for
// the degradation detail of a partial AnswerSet.
type FailedStatement struct {
	// Index is the interpretation's rank position among the executed top-k.
	Index int `json:"index"`
	// Pattern and SQL identify the failed interpretation.
	Pattern string `json:"pattern"`
	SQL     string `json:"sql"`
	// Message is the final attempt's error text.
	Message string `json:"error"`

	err error
}

// Unwrap exposes the underlying error (errors.Is/As through FailedStatement).
func (f FailedStatement) Unwrap() error { return f.err }

// AnswerSet is the degradation-aware result of AnswerSetContext: the answers
// that completed (rank order preserved) plus, when some statements failed,
// the per-statement failure detail. A partial set is never cached, so the
// next identical query recomputes the failed statements.
type AnswerSet struct {
	Answers []Answer
	// Partial is true when some (but not all) of the top-k statements failed;
	// Failed then lists them. Completed answers in a partial set are exactly
	// the answers a fault-free run would produce for those interpretations.
	Partial bool
	Failed  []FailedStatement
	// Retries counts transient-fault retry attempts across all statements.
	Retries int
}

// Err summarizes the set for strict callers: nil when complete, otherwise
// the first failure — preferring a context error so a timed-out request
// keeps its deadline semantics.
func (s *AnswerSet) Err() error {
	if len(s.Failed) == 0 {
		return nil
	}
	for _, f := range s.Failed {
		if isContextError(f.err) {
			return fmt.Errorf("kwagg: statement %d failed: %w", f.Index, f.err)
		}
	}
	f := s.Failed[0]
	return fmt.Errorf("kwagg: statement %d failed: %w", f.Index, f.err)
}

// Interpret returns the top-k ranked interpretations of the query with their
// generated SQL (k <= 0 returns all). The full ranked slice is computed once
// per query and cached, so follow-up calls with any k (and Answer, Explain,
// PatternDot on the same query) are served from the cache.
func (e *Engine) Interpret(query string, k int) ([]Interpretation, error) {
	ins, err := e.interpretations(context.Background(), e.state(), query)
	if err != nil {
		return nil, err
	}
	if k > 0 && len(ins) > k {
		ins = ins[:k]
	}
	out := make([]Interpretation, len(ins))
	for i, in := range ins {
		out[i] = Interpretation{
			Description: in.Description,
			SQL:         in.SQL.String(),
			PrettySQL:   in.SQL.Pretty(),
			Pattern:     in.Pattern.String(),
		}
	}
	return out, nil
}

// Explain returns a structured, human-readable account of how the i-th
// ranked interpretation of the query was produced: term readings, pattern
// nodes, disambiguation and duplicate-elimination decisions, and the
// ranking signals.
func (e *Engine) Explain(query string, i int) (string, error) {
	st := e.state()
	ins, err := e.interpretations(context.Background(), st, query)
	if err != nil {
		return "", err
	}
	if i < 0 || i >= len(ins) {
		return "", fmt.Errorf("kwagg: interpretation %d out of range (have %d)", i, len(ins))
	}
	return st.sys.Explain(ins[i]).String(), nil
}

// PatternDot renders the i-th ranked interpretation's annotated query
// pattern in Graphviz DOT form (the paper's Figures 4-7 style).
func (e *Engine) PatternDot(query string, i int) (string, error) {
	ins, err := e.interpretations(context.Background(), e.state(), query)
	if err != nil {
		return "", err
	}
	if i < 0 || i >= len(ins) {
		return "", fmt.Errorf("kwagg: interpretation %d out of range (have %d)", i, len(ins))
	}
	return ins[i].Pattern.Dot(), nil
}

// SchemaDot renders the ORM schema graph in Graphviz DOT form (Figures 3
// and 9).
func (e *Engine) SchemaDot() string { return e.state().sys.Graph.Dot() }

// SchemaInfo describes the schema of one engine snapshot.
type SchemaInfo struct {
	// Unnormalized reports whether the engine plans over a derived
	// normalized view because the stored schema violates 3NF.
	Unnormalized bool
	// Text describes the ORM schema graph nodes and their adjacency.
	Text string
	// Dot is the Graphviz DOT rendering of the same graph.
	Dot string
}

// Schema returns the schema description from a single engine snapshot.
// Separate Unnormalized/SchemaGraph/SchemaDot calls each take their own
// snapshot and can mix epochs on a live engine mid-commit; the fields of one
// SchemaInfo always describe the same epoch.
func (e *Engine) Schema() SchemaInfo {
	st := e.state()
	return SchemaInfo{
		Unnormalized: st.sys.Unnormalized(),
		Text:         st.sys.DescribeSchema(),
		Dot:          st.sys.Graph.Dot(),
	}
}

// Answer interprets the query and executes the top-k generated statements.
// Interpretations come from the cache when available; the statements execute
// concurrently on a bounded worker pool, and the returned slice preserves
// rank order. The executed answers are themselves cached per (query, k) —
// the frozen data cannot change under the engine, so a repeat query is a
// cache hit that skips execution entirely. Treat the returned slice as
// read-only; it is shared with later callers of the same query.
func (e *Engine) Answer(query string, k int) ([]Answer, error) {
	return e.AnswerContext(context.Background(), query, k)
}

// AnswerContext is Answer honoring a context deadline or cancellation:
// statements that have not started executing when the context is done are
// abandoned and the context's error is returned (a statement already running
// finishes; execution is not interrupted mid-statement). Context errors are
// never cached.
//
// When the context carries an obs trace (obs.NewTrace), the per-stage spans
// and the cache hit/miss provenance of this query are recorded on it; stage
// durations always land in the engine's metrics registry either way.
func (e *Engine) AnswerContext(ctx context.Context, query string, k int) ([]Answer, error) {
	set, err := e.AnswerSetContext(ctx, query, k)
	if err != nil {
		return nil, err
	}
	if err := set.Err(); err != nil {
		return nil, err
	}
	return set.Answers, nil
}

// AnswerSetContext is AnswerContext with graceful degradation: when some of
// the top-k statements fail (an injected fault, a per-statement deadline)
// while others complete, it returns a partial AnswerSet instead of an error,
// so the serving layer can answer with what it has. The error path is
// reserved for total failures: interpretation errors, every statement
// failing, or the request context itself expiring (a dead request gets its
// context error even if some statements finished first). Partial sets are
// never cached; complete sets are cached per (query, k) like Answer.
func (e *Engine) AnswerSetContext(ctx context.Context, query string, k int) (*AnswerSet, error) {
	ctx = e.withObs(ctx)
	set, err := e.answerSetCached(ctx, query, k)
	outcome := "ok"
	switch {
	case isContextError(err):
		outcome = "canceled"
	case err != nil:
		outcome = "error"
	case set.Partial:
		outcome = "partial"
		e.metrics.Counter("kwagg_partial_answers_total",
			"Queries answered partially after statement failures.").Inc()
	}
	e.metrics.Counter("kwagg_queries_total",
		"Answered keyword queries by outcome.", obs.L("outcome", outcome)).Inc()
	return set, err
}

// partialResult carries a partial AnswerSet out of the answer cache as an
// error, so the singleflight shares it with collapsed waiters but the cache
// never stores it (errors are not cached); the next identical query retries
// the failed statements.
type partialResult struct{ set *AnswerSet }

func (p *partialResult) Error() string { return "kwagg: partial answer set" }

func (e *Engine) answerSetCached(ctx context.Context, query string, k int) (*AnswerSet, error) {
	st := e.state()
	if e.answers == nil {
		return e.answerSetUncached(ctx, st, query, k)
	}
	key := epochKey(normalizeQuery(query)+"\x00k="+strconv.Itoa(k), st)
	v, computed, err := cachedCompute(ctx, e.answers, key, func() (any, error) {
		set, err := e.answerSetUncached(ctx, st, query, k)
		if err != nil {
			return nil, err
		}
		if set.Partial {
			return nil, &partialResult{set: set}
		}
		return set, nil
	})
	if computed {
		obs.TraceFrom(ctx).Annotate("answer_cache", "miss")
	} else {
		obs.TraceFrom(ctx).Annotate("answer_cache", "hit")
	}
	var pr *partialResult
	switch {
	case err == nil:
		return v.(*AnswerSet), nil
	case errors.As(err, &pr):
		return pr.set, nil
	default:
		return nil, err
	}
}

// answerSetUncached interprets and executes on st's epoch: the whole answer
// — interpretations and every executed statement — comes from one epoch even
// when a commit swaps the engine mid-request.
func (e *Engine) answerSetUncached(ctx context.Context, st *engineState, query string, k int) (*AnswerSet, error) {
	ins, err := e.interpretations(ctx, st, query)
	if err != nil {
		return nil, err
	}
	if k > 0 && len(ins) > k {
		ins = ins[:k]
	}
	rep := st.sys.ExecuteAllReport(ctx, ins)
	if ctx.Err() != nil {
		// The request itself is dead: its client gets the timeout/cancel
		// semantics, not a partial answer it is no longer waiting for.
		return nil, ctx.Err()
	}
	if len(rep.Answers) == 0 {
		if err := rep.Err(); err != nil {
			return nil, err
		}
	}
	_, rspan := obs.Start(ctx, "render")
	defer rspan.End()
	set := &AnswerSet{Retries: rep.Retries, Partial: len(rep.Failed) > 0}
	set.Answers = make([]Answer, len(rep.Answers))
	for i, a := range rep.Answers {
		set.Answers[i] = Answer{
			Interpretation: Interpretation{
				Description: a.Description,
				SQL:         a.SQL.String(),
				PrettySQL:   a.SQL.Pretty(),
				Pattern:     a.Pattern.String(),
			},
			Result: convertResult(a.Result),
		}
	}
	for _, f := range rep.Failed {
		set.Failed = append(set.Failed, FailedStatement{
			Index:   f.Index,
			Pattern: f.Pattern,
			SQL:     f.SQL,
			Message: f.Err.Error(),
			err:     f.Err,
		})
	}
	return set, nil
}

// Workers reports the size of the pool Answer executes statements on.
func (e *Engine) Workers() int { return e.state().sys.ExecWorkers() }

// ShardWorkers reports the shard-parallel worker target of one statement's
// batch kernels.
func (e *Engine) ShardWorkers() int { return e.state().sys.ShardWorkers() }

// PlanFinding is one plan invariant violated by a generated statement, as
// reported by the plan verifier (internal/planck): Rule names the invariant
// (e.g. "distinct-projection"), Detail describes the offending fragment.
type PlanFinding struct {
	Rule   string `json:"rule"`
	Detail string `json:"detail"`
}

// PlanFindings interprets the query and runs the plan-invariant verifier
// over the top-k generated statements (k <= 0 checks all), returning every
// finding instead of failing on the first. A healthy engine returns an empty
// slice for every query; `kwlint -plans` replays the dataset workloads
// through this to gate CI.
func (e *Engine) PlanFindings(query string, k int) ([]PlanFinding, error) {
	fs, err := e.state().sys.CheckPlans(query, k)
	if err != nil {
		return nil, err
	}
	out := make([]PlanFinding, len(fs))
	for i, f := range fs {
		out[i] = PlanFinding{Rule: f.Rule, Detail: f.Detail}
	}
	return out, nil
}

// ExecuteSQL runs a SQL statement of the supported subset directly against
// the stored database.
func (e *Engine) ExecuteSQL(sql string) (Result, error) {
	res, err := sqldb.ExecSQL(e.state().sys.Data, sql)
	if err != nil {
		return Result{}, err
	}
	return convertResult(res), nil
}

// ExplainSQLPlan returns the engine's evaluation plan for a SQL statement:
// scan cardinalities, pushed-down filters, and the chosen join order.
func (e *Engine) ExplainSQLPlan(sql string) (string, error) {
	plan, err := sqldb.ExplainSQL(e.state().sys.Data, sql)
	if err != nil {
		return "", err
	}
	return plan.String(), nil
}

// SQAKTranslate generates the SQAK baseline's SQL for the query. The error
// reproduces SQAK's documented restrictions (no self joins, at most one
// aggregate expression).
func (e *Engine) SQAKTranslate(query string) (string, error) {
	sql, err := e.state().sqak.Translate(query)
	if err != nil {
		return "", err
	}
	return sql.String(), nil
}

// SQAKAnswer generates and executes the SQAK baseline's SQL.
func (e *Engine) SQAKAnswer(query string) (Result, string, error) {
	res, sql, err := e.state().sqak.Answer(query)
	if err != nil {
		return Result{}, "", err
	}
	return convertResult(res), sql.String(), nil
}

func convertResult(res *sqldb.Result) Result {
	out := Result{Columns: res.Columns}
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = relation.Format(v)
		}
		out.Rows = append(out.Rows, cells)
	}
	return out
}

// String renders the result as an aligned table.
func (r Result) String() string {
	res := &sqldb.Result{Columns: r.Columns}
	for _, row := range r.Rows {
		tu := make(relation.Tuple, len(row))
		for j, c := range row {
			tu[j] = c
		}
		res.Rows = append(res.Rows, tu)
	}
	return res.String()
}
