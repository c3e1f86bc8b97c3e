// Epoch-based live ingest. The engine's execution substrate is built on
// frozen, immutable databases (dictionaries, column blocks, value indexes and
// both caches all assume the data never changes), so mutation is modeled as a
// sequence of immutable epochs: rows accumulate in a mutable write buffer on
// the side, and Commit builds the next frozen database — the previous
// epoch's rows followed by the buffered ones, assembled incrementally from
// the previous epoch's frozen state (see relation.ExtendFrozenDatabase) —
// opens a fresh System over it
// and atomically swaps it in. Queries that started on epoch N keep running on
// epoch N's System to completion (the old database is immutable and
// garbage-collected when the last reader drops it), so every completed answer
// is byte-identical to some single epoch — never a torn mix of two.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwagg/internal/obs"
	"kwagg/internal/relation"
)

// liveState is one immutable epoch: a fully-opened System and its sequence
// number. Swapped atomically as a unit so readers never observe a System from
// one epoch paired with another epoch's number.
type liveState struct {
	sys   *System
	epoch uint64
}

// Live wraps a System with epoch-based live ingest. Snapshot/System/Epoch are
// safe for unsynchronized concurrent use (a single atomic pointer load);
// Ingest and Commit may be called concurrently with queries and with each
// other — the write buffer is mutex-guarded and Commit serializes on the same
// mutex.
type Live struct {
	opts *Options

	cur atomic.Pointer[liveState]

	mu      sync.Mutex                  // guards buf/pending; serializes Commit
	buf     map[string][]relation.Tuple // lower-cased table name -> buffered rows
	pending int

	lastBuild atomic.Int64 // wall time of the most recent Commit build, in nanoseconds
}

// OpenLive opens db for keyword search (freezing it — see Open) and wraps the
// resulting System as epoch 0 of a live engine. opts is retained and reused
// to open every later epoch, so per-epoch Systems share the configuration
// (workers, chaos, kernels, shards) but never the built state — each epoch
// gets its own memo and plan checker, keyed to its own frozen data.
func OpenLive(db *relation.Database, opts *Options) (*Live, error) {
	sys, err := Open(db, opts)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	l := &Live{opts: opts, buf: make(map[string][]relation.Tuple)}
	l.cur.Store(&liveState{sys: sys, epoch: 0})
	return l, nil
}

// Snapshot returns the current epoch's System and its epoch number as one
// consistent pair. Callers answering a query should take one snapshot and use
// its System throughout, so the whole answer comes from a single epoch even
// if a Commit lands mid-query.
func (l *Live) Snapshot() (*System, uint64) {
	st := l.cur.Load()
	return st.sys, st.epoch
}

// System returns the current epoch's System.
func (l *Live) System() *System { return l.cur.Load().sys }

// Epoch returns the current epoch number (0 until the first Commit).
func (l *Live) Epoch() uint64 { return l.cur.Load().epoch }

// Pending reports the number of ingested rows buffered but not yet committed.
func (l *Live) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Ingest coerces rows (one string per attribute, in declaration order; empty
// strings become NULL for non-string types — see relation.Coerce) against the
// named table's schema and appends them to the write buffer. The batch is
// atomic: any unknown table, arity mismatch or coercion failure rejects the
// whole call. Buffered rows are invisible to queries until Commit. Returns
// the total number of pending rows after the append.
func (l *Live) Ingest(table string, rows [][]string) (int, error) {
	t := l.System().Data.Table(table)
	if t == nil {
		return 0, fmt.Errorf("core: ingest into unknown table %q", table)
	}
	schema := t.Schema
	tuples := make([]relation.Tuple, len(rows))
	for i, r := range rows {
		if len(r) != len(schema.Attributes) {
			return 0, fmt.Errorf("core: ingest into %s: row %d has %d fields, want %d",
				schema.Name, i, len(r), len(schema.Attributes))
		}
		tu := make(relation.Tuple, len(r))
		for j, field := range r {
			v, err := relation.Coerce(field, schema.Attributes[j].Type)
			if err != nil {
				return 0, fmt.Errorf("core: ingest into %s: row %d attribute %s: %w",
					schema.Name, i, schema.Attributes[j].Name, err)
			}
			tu[j] = v
		}
		tuples[i] = tu
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := strings.ToLower(schema.Name)
	l.buf[key] = append(l.buf[key], tuples...)
	l.pending += len(tuples)
	return l.pending, nil
}

// IngestTuples is Ingest for rows that already carry their declared types —
// the tuple-level twin of the string-coercing path (string coercion cannot
// express a NULL string value, which the differential suites need). Arity is
// checked per tuple and the batch is atomic; the tuples are retained by
// reference and must not be mutated afterwards. Returns the total number of
// pending rows after the append.
func (l *Live) IngestTuples(table string, tuples []relation.Tuple) (int, error) {
	t := l.System().Data.Table(table)
	if t == nil {
		return 0, fmt.Errorf("core: ingest into unknown table %q", table)
	}
	schema := t.Schema
	for i, tu := range tuples {
		if len(tu) != len(schema.Attributes) {
			return 0, fmt.Errorf("core: ingest into %s: row %d has %d values, want %d",
				schema.Name, i, len(tu), len(schema.Attributes))
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	key := strings.ToLower(schema.Name)
	l.buf[key] = append(l.buf[key], tuples...)
	l.pending += len(tuples)
	return l.pending, nil
}

// BuildDuration returns the wall time the most recent Commit spent building
// and opening its epoch (zero before the first commit). Served as
// epoch_build_ms by /api/stats.
func (l *Live) BuildDuration() time.Duration {
	return time.Duration(l.lastBuild.Load())
}

// Commit freezes the write buffer into the next epoch: the current epoch's
// frozen tables are extended with the buffered rows (in ingest order) via
// the incremental delta builder — dictionaries grow private tails for unseen
// values only, full 1024-row column blocks and untouched posting lists carry
// over by reference, and the inverted keyword index is patched with only the
// new tuples' tokens — then a fresh System is opened over the result and
// atomically swapped in, returning the new epoch number. The build is
// O(new rows + touched index entries + per-epoch slice headers) instead of
// an O(total rows) full re-freeze, and the epoch is byte-identical to a
// from-scratch Open of the same rows, which the incremental differential
// suites gate. With nothing pending Commit returns the current epoch
// unchanged. On a build error the buffer and current epoch are kept, so the
// caller can repair and retry.
//
// Dictionary-ID prefix stability makes the delta sound: a full freeze
// interns values in row order, so the previous epoch's dictionaries, encoded
// rows and cached remap tables are exactly the prefix of the next epoch's.
// New rows land in the trailing rows — the tail shards — of each table,
// keeping shard-parallel answers byte-identical across epochs for data the
// epochs share. In-flight queries keep the old System (immutable) to
// completion; the caches attached to it age out with it.
func (l *Live) Commit(ctx context.Context) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.cur.Load()
	if l.pending == 0 {
		return st.epoch, nil
	}
	elapsed := obs.Stopwatch()
	_, span := obs.Start(ctx, "epoch_build")
	defer span.End()
	sys, stats, err := l.buildDelta(st.sys)
	if err != nil {
		return st.epoch, fmt.Errorf("core: building epoch %d: %w", st.epoch+1, err)
	}
	swapped := &liveState{sys: sys, epoch: st.epoch + 1}
	committed := l.pending
	l.cur.Store(swapped)
	l.buf = make(map[string][]relation.Tuple)
	l.pending = 0
	d := elapsed()
	l.lastBuild.Store(int64(d))
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("kwagg_epoch_swaps_total",
			"Epoch commits that swapped in a rebuilt database.").Inc()
		reg.Counter("kwagg_epoch_rows_committed_total",
			"Ingested rows frozen into an epoch by Commit.").Add(uint64(committed))
		reg.Gauge("kwagg_epoch_current",
			"Current live-ingest epoch number.").Set(float64(swapped.epoch))
		reg.Histogram("kwagg_epoch_build_seconds",
			"Wall time Commit spent building and opening an epoch.", nil).Observe(d.Seconds())
		reg.Counter("kwagg_epoch_reused_blocks_total",
			"Column blocks carried into a new epoch by reference instead of rebuilt.").
			Add(uint64(stats.ReusedBlocks))
	}
	return swapped.epoch, nil
}

// buildDelta opens the next epoch over the incrementally extended database:
// the frozen tables grow in place and the keyword index is patched with only
// the new rows (relation.ExtendFrozenDatabase), and Open redoes just the
// schema-sized work. l.mu must be held.
func (l *Live) buildDelta(old *System) (*System, relation.DeltaStats, error) {
	next, stats, err := relation.ExtendFrozenDatabase(old.Data, l.buf)
	if err != nil {
		return nil, stats, err
	}
	sys, err := Open(next, l.opts)
	return sys, stats, err
}
