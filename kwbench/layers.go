package main

// The traced run times each layer by calling the layer's public functions
// from here, under the benchmark's own spans; nothing inside the program is
// instrumented for it. This file is the only place that knows which internal
// functions make up the request, setup and commit paths.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"kwagg/internal/backend"
	"kwagg/internal/core"
	"kwagg/internal/keyword"
	"kwagg/internal/normalize"
	"kwagg/internal/orm"
	"kwagg/internal/planck"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// layerCounts accumulates the per-layer work counts that spans do not carry.
type layerCounts struct {
	mu               sync.Mutex
	tagsPerTerm      samples
	patternsPerQuery samples
	rowsPerStmt      samples
	shardRunsPerStmt samples
	reusedBlocks     samples // per commit, on the trace's own epoch chain
	ingestRows       int
	retries          int
	failedStmts      int
}

func (c *layerCounts) add(s *samples, x float64) {
	c.mu.Lock()
	s.add(x)
	c.mu.Unlock()
}

// sysKey carries the System a statement runs on to the probe backend; core
// passes the context of ExecuteAllReport through to Backend.Exec.
type sysKey struct{}

// probe is a backend.Backend that runs each statement on the embedded engine
// exactly as core's default path does — sqldb.ExecOpts with the System's
// memo, kernel selection and shard target — under a sqldb.stmt span. Routing
// statements through it nests sqldb.stmt spans inside core.execute, so
// core.execute's self time is the pool, retry and chaos-injection overhead
// around the statements.
type probe struct {
	tr     *tracer
	counts *layerCounts
}

func (p *probe) Name() string { return "sqldb" }

func (p *probe) Exec(ctx context.Context, q *sqlast.Query) (backend.Rows, error) {
	sys, _ := ctx.Value(sysKey{}).(*core.System)
	if sys == nil {
		return nil, errors.New("probe: statement without a system in its context")
	}
	_, s := p.tr.start(ctx, "sqldb.stmt")
	res, st, err := sqldb.ExecOpts(ctx, sys.Data, q,
		sqldb.ExecConfig{Memo: sys.Memo, NoBatch: sys.NoBatch, Shards: sys.ShardWorkers()})
	s.end()
	if err != nil {
		return nil, err
	}
	p.counts.add(&p.counts.rowsPerStmt, float64(len(res.Rows)))
	p.counts.add(&p.counts.shardRunsPerStmt, float64(st.ShardRuns))
	return backend.NewRows(res.Columns, res.Rows), nil
}

func (p *probe) Close() error { return nil }

// tracedAnswer answers the query at k on sys as Engine.AnswerContext does
// with its caches off, calling every layer itself under a span: parse, match
// each basic term, generate patterns (GenerateContext matches the terms
// again internally), translate the top k, execute. The System must route
// statements through a probe so that sqldb.stmt spans nest in core.execute.
func tracedAnswer(ctx context.Context, tr *tracer, c *layerCounts, sys *core.System, query string, k int) ([]core.Answer, error) {
	ctx, root := tr.start(ctx, "request")
	defer root.end()
	_, s := tr.start(ctx, "keyword.parse")
	q, err := keyword.Parse(query)
	s.end()
	if err != nil {
		return nil, err
	}
	for _, ti := range q.BasicTerms() {
		_, s := tr.start(ctx, "match.term")
		tags := sys.Matcher.Match(q.Terms[ti])
		s.end()
		c.add(&c.tagsPerTerm, float64(len(tags)))
	}
	gctx, s := tr.start(ctx, "pattern.generate")
	patterns, err := sys.Generator.GenerateContext(gctx, q)
	s.end()
	if err != nil {
		return nil, err
	}
	c.add(&c.patternsPerQuery, float64(len(patterns)))
	if len(patterns) > k {
		patterns = patterns[:k]
	}
	ins := make([]core.Interpretation, 0, len(patterns))
	for _, p := range patterns {
		_, s := tr.start(ctx, "translate.stmt")
		sql, err := sys.Translator.Translate(p)
		s.end()
		if err != nil {
			return nil, fmt.Errorf("translating %s: %w", p, err)
		}
		ins = append(ins, core.Interpretation{Pattern: p, SQL: sql, Description: p.Describe()})
	}
	ectx, s := tr.start(ctx, "core.execute")
	rep := sys.ExecuteAllReport(context.WithValue(ectx, sysKey{}, sys), ins)
	s.end()
	c.mu.Lock()
	c.retries += rep.Retries
	c.failedStmts += len(rep.Failed)
	c.mu.Unlock()
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return rep.Answers, nil
}

// traceSetupLayers times the setup-path calls core.Open makes, on a freshly
// generated database: Freeze, BuildIndex, then the schema-sized epoch work.
func traceSetupLayers(ctx context.Context, tr *tracer, db *relation.Database, views map[string]string) error {
	ctx, root := tr.start(ctx, "setup")
	defer root.end()
	_, s := tr.start(ctx, "relation.freeze")
	db.Freeze()
	s.end()
	_, s = tr.start(ctx, "relation.index")
	relation.BuildIndex(db)
	s.end()
	return traceEpochLayers(ctx, tr, db, views)
}

// traceEpochLayers times the schema-sized work every opened epoch repeats:
// the normalized view, the ORM graph over it and the plan checker.
func traceEpochLayers(ctx context.Context, tr *tracer, db *relation.Database, views map[string]string) error {
	_, s := tr.start(ctx, "normalize.view")
	view, err := normalize.BuildView(db, views)
	s.end()
	if err != nil {
		return err
	}
	schemas := db.Schemas()
	if view.Changed {
		schemas = view.Schemas
	}
	_, s = tr.start(ctx, "orm.build")
	_, err = orm.Build(schemas)
	s.end()
	if err != nil {
		return err
	}
	_, s = tr.start(ctx, "planck.new")
	planck.New(db)
	s.end()
	return nil
}

// spanLayers names the per-layer metrics read from span times: the metric,
// the span it reads, and the unit its mean self time is reported in.
var spanLayers = []struct {
	metric, span, unit string
	scale              time.Duration
}{
	{"keyword.parse_us", "keyword.parse", "us", time.Microsecond},
	{"match.term_us", "match.term", "us", time.Microsecond},
	{"pattern.generate_us", "pattern.generate", "us", time.Microsecond},
	{"translate.stmt_us", "translate.stmt", "us", time.Microsecond},
	{"sqldb.stmt_us", "sqldb.stmt", "us", time.Microsecond},
	{"core.execute_ms", "core.execute", "ms", time.Millisecond},
	{"core.commit_ms", "core.commit", "ms", time.Millisecond},
	{"kwagg.epoch_fold_ms", "kwagg.fold", "ms", time.Millisecond},
	{"relation.extend_ms", "relation.extend", "ms", time.Millisecond},
	{"normalize.view_ms", "normalize.view", "ms", time.Millisecond},
	{"orm.build_ms", "orm.build", "ms", time.Millisecond},
	{"planck.new_ms", "planck.new", "ms", time.Millisecond},
	{"relation.freeze_ms", "relation.freeze", "ms", time.Millisecond},
	{"relation.index_ms", "relation.index", "ms", time.Millisecond},
	{"kwagg.hit_us", "kwagg.hit", "us", time.Microsecond},
	{"kwagg.miss_ms", "kwagg.miss", "ms", time.Millisecond},
	{"server.handler_us", "server.handler", "us", time.Microsecond},
	{"server.roundtrip_us", "server.roundtrip", "us", time.Microsecond},
}

// setLayerMetrics reports every per-layer metric the spans and counts of a
// traced run give. Layers the workload does not exercise read 0 with n=0.
func setLayerMetrics(m *metrics, tr *tracer, c *layerCounts) {
	sums := summarize(tr.records())
	for _, l := range spanLayers {
		var self samples
		if s := sums[l.span]; s != nil {
			self = s.self
		}
		// Span summaries are in microseconds.
		scaled := samples{}
		for _, x := range self.xs {
			scaled.add(x * float64(time.Microsecond) / float64(l.scale))
		}
		m.setMean(l.metric, &scaled, l.unit)
	}
	var stmt, exec float64
	if s := sums["sqldb.stmt"]; s != nil {
		stmt = s.total.sum()
	}
	if s := sums["core.execute"]; s != nil {
		exec = s.total.sum()
	}
	m.setRatio("core.parallelism", ratio{stmt, exec})
	c.mu.Lock()
	defer c.mu.Unlock()
	m.set("core.retries", float64(c.retries), "count", "")
	m.set("core.failed_stmts", float64(c.failedStmts), "count", "")
	m.setMean("match.tags_per_term", &c.tagsPerTerm, "count")
	m.setMean("pattern.patterns_per_query", &c.patternsPerQuery, "count")
	m.setMean("sqldb.rows_per_stmt", &c.rowsPerStmt, "count")
	m.setMean("sqldb.shard_runs_per_stmt", &c.shardRunsPerStmt, "count")
	m.setMean("relation.reused_blocks_per_commit", &c.reusedBlocks, "count")
	var ingest float64
	if s := sums["core.ingest"]; s != nil {
		ingest = s.total.sum()
	}
	m.set("core.ingest_us_per_row", ratio{ingest, float64(c.ingestRows)}.value(), "us",
		fmt.Sprintf("rows=%d", c.ingestRows))
}
