package sqldb

import (
	"container/list"
	"context"
	"sync"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Memo caches intermediate executor rowsets across statements and requests,
// keyed by a canonical subplan string: "scan|<table>|<alias>" grown with
// "|f:<pred>" per pushed filter, "join(<left>)+(<right>)|on:<eqs>" per join
// step, and "sub|<sql>" for derived tables evaluated whole (a derived table
// reduced by a semi-join push is never cached, nor is anything built on
// it). The top-k interpretations of one
// keyword query share most of their ORM-graph join fragments, so executing
// them against the same frozen database repeats near-identical subplans; the
// memo lets the first execution pay for a fragment and every later
// interpretation — in the same request or a later one — reuse the finished
// rowset.
//
// Correctness rests on two properties: the database is frozen before a memo
// is attached (a key's result is deterministic), and cached rowsets are
// immutable by convention — every executor operator builds a fresh rowset and
// only reads its inputs, and whole-statement projections are never cached
// (callers may reorder Result rows in place). Entries are evicted LRU by
// their cell count (rows × columns) against a fixed budget.
//
// Concurrent requests for the same missing key collapse into one computation:
// the first caller claims the entry and computes it, later callers block on
// the claim; if the computation fails, the entry is dropped and the waiters
// compute for themselves without caching.
type Memo struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[string]*memoEntry
	lru     *list.List // ready entries, most recently used first
}

type memoEntry struct {
	key    string
	ready  chan struct{} // closed once rs/failed is final
	rs     *rowset
	failed bool
	cost   int64
	elem   *list.Element // non-nil while the entry is cached in the LRU
}

// NewMemo creates a memo bounded to budgetCells result cells (rows times
// columns, summed over cached fragments). A non-positive budget returns nil,
// which disables memoization wherever the memo is passed.
func NewMemo(budgetCells int64) *Memo {
	if budgetCells <= 0 {
		return nil
	}
	return &Memo{
		budget:  budgetCells,
		entries: make(map[string]*memoEntry),
		lru:     list.New(),
	}
}

// Len reports the number of cached (ready) fragments.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

// UsedCells reports the cell cost currently held by cached fragments.
func (m *Memo) UsedCells() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// memoClaim is the right (and obligation) to finish a missing entry: the
// holder computes the rowset and must call publish or fail exactly once.
type memoClaim struct {
	m   *Memo
	ent *memoEntry
}

// acquire returns a cached rowset (hit), or a claim to compute the missing
// key (nil rowset, non-nil claim), or neither when another goroutine's
// computation of the key failed — the caller should then compute without
// caching. It blocks while another goroutine holds the key's claim.
func (m *Memo) acquire(ctx context.Context, key string) (*rowset, *memoClaim, error) {
	m.mu.Lock()
	ent, ok := m.entries[key]
	if !ok {
		ent = &memoEntry{key: key, ready: make(chan struct{})}
		m.entries[key] = ent
		m.mu.Unlock()
		return nil, &memoClaim{m: m, ent: ent}, nil
	}
	m.mu.Unlock()
	if ctx != nil {
		select {
		case <-ent.ready:
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	} else {
		<-ent.ready
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ent.failed {
		return nil, nil, nil
	}
	if ent.elem != nil {
		m.lru.MoveToFront(ent.elem)
	}
	return ent.rs, nil, nil
}

// publish finishes the claim with a computed rowset, caching it within the
// budget and waking every waiter.
func (c *memoClaim) publish(rs *rowset) {
	m, ent := c.m, c.ent
	cost := int64(rs.n)*int64(len(rs.cols)) + 1
	m.mu.Lock()
	ent.rs = rs
	ent.cost = cost
	if cost <= m.budget {
		ent.elem = m.lru.PushFront(ent)
		m.used += cost
		for m.used > m.budget {
			back := m.lru.Back()
			old := back.Value.(*memoEntry)
			m.lru.Remove(back)
			old.elem = nil
			delete(m.entries, old.key)
			m.used -= old.cost
		}
	} else {
		// Larger than the whole budget: hand the rowset to the current
		// waiters but do not cache it.
		delete(m.entries, ent.key)
	}
	close(ent.ready)
	m.mu.Unlock()
}

// fail finishes the claim without a result: the entry is dropped so waiters
// (and later requests) recompute.
func (c *memoClaim) fail() {
	m, ent := c.m, c.ent
	m.mu.Lock()
	ent.failed = true
	delete(m.entries, ent.key)
	close(ent.ready)
	m.mu.Unlock()
}

// memoized returns the rowset for the canonical subplan key, computing it
// with compute on a miss. With no memo attached (or an uncacheable fragment,
// key == "") it simply computes.
func (e *executor) memoized(key string, compute func() (*rowset, error)) (*rowset, error) {
	if e.memo == nil || key == "" {
		return compute()
	}
	rs, claim, err := e.memo.acquire(e.ctx, key)
	if err != nil {
		return nil, err
	}
	if rs != nil {
		e.memoHits++
		return rs, nil
	}
	e.memoMisses++
	out, err := compute()
	if claim != nil {
		if err != nil || out == nil {
			claim.fail()
		} else {
			out.key = key
			claim.publish(out)
		}
	}
	return out, err
}

// ExecStats reports how one statement's execution used the optional
// machinery: the shared-subplan memo and the shard-parallel kernel drivers.
type ExecStats struct {
	Hits      int // subplan fragments served from the memo
	Misses    int // fragments computed (and, when cacheable, published)
	ShardRuns int // kernel passes that actually ran shard-parallel
}

// ExecConfig bundles the optional execution machinery one statement runs
// with: the shared-subplan memo and the shard-parallel worker target.
type ExecConfig struct {
	// Memo is the shared-subplan cache; nil disables memoization.
	Memo *Memo
	// NoBatch is ignored: the batch kernels are the only execution path.
	//
	// Deprecated: nothing reads it; it remains only because the end-to-end
	// benchmark module (kwbench/layers.go) still sets it.
	NoBatch bool
	// Shards is the shard-parallel worker target for the batch kernels
	// (see parallel.go): <=1 runs single-shard, n > 1 lets filter,
	// join-probe and GROUP BY passes use up to n workers (capped by the
	// shard count and GOMAXPROCS at execution time). Answers are row- and
	// byte-identical either way.
	Shards int
	// ShardRows overrides the rows-per-shard morsel size (0 uses
	// relation.ShardRows; rounded up to whole ColData blocks). A test hook:
	// shrinking it forces multi-shard execution on small inputs.
	ShardRows int
}

// ExecOpts evaluates the query against db — the one way a statement runs.
// Every table the statement reads must be frozen (relation.Database.Freeze,
// which core.Open calls); otherwise ExecOpts returns an error naming the
// table. Operators read and write the tables' dictionary IDs only: equality
// predicates on base-table scans are answered from the per-table value
// index, joins, GROUP BY, DISTINCT and filters run the batch kernels over
// IDs, derived tables are restricted to their join partners' keys before
// they are materialized (see semijoin.go), and values are decoded once, into
// the Result. A cell therefore decodes to its column dictionary's first-seen
// value for its rendering: a column holding typed inserts of int64(5) beside
// "5" shares one ID and answers with whichever came first, the engine's one
// notion of value identity.
//
// Evaluation honors cancellation: it checks ctx between operator phases and
// once per block (or every rowCheckInterval rows) inside scan, filter and
// join loops, returning the context's error mid-statement instead of running
// a doomed query to completion. A context that cannot be cancelled
// (Background) costs nothing: the checks are compiled out by a nil test.
// Memoization and shard parallelism come from cfg; the returned ExecStats
// report how the statement used them.
func ExecOpts(ctx context.Context, db *relation.Database, q *sqlast.Query, cfg ExecConfig) (*Result, ExecStats, error) {
	e := &executor{db: db, memo: cfg.Memo, par: cfg.Shards, shardRows: cfg.ShardRows}
	if ctx != nil && ctx.Done() != nil {
		e.ctx = ctx
	}
	res, err := e.query(q)
	return res, ExecStats{Hits: e.memoHits, Misses: e.memoMisses, ShardRuns: e.shardRuns}, err
}
