package core

import (
	"context"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/obs"
	"kwagg/internal/relation"
)

// liveQueries are the answer-bearing queries the incremental commit must
// keep byte-identical to the full-refreeze and directly-built baselines.
var liveQueries = []string{
	"Green SUM Credit",
	"Green",
	"COUNT Student GROUPBY Sname",
}

// commitBatch is one epoch's worth of tuple-level ingest, keyed by table.
// The second batch carries a NULL string (Sname) — expressible only through
// IngestTuples, since string coercion keeps "" as the empty string.
var commitBatches = []map[string][]relation.Tuple{
	{
		"Student": {{"s9", "Green", int64(23)}},
		"Enrol":   {{"s9", "c2", "A"}},
	},
	{
		"Student": {{"s10", nil, int64(20)}, {"s11", "Green", int64(25)}},
		"Enrol":   {{"s11", "c1", "B"}},
	},
	{
		"Course": {{"c9", "Databases II", 6.0}},
		"Enrol":  {{"s9", "c9", "A"}, {"s11", "c9", "C"}},
	},
}

// applyBatch ingests one commitBatch into a live engine.
func applyBatch(t *testing.T, live *Live, batch map[string][]relation.Tuple) {
	t.Helper()
	for _, table := range []string{"Student", "Course", "Enrol"} {
		rows := batch[table]
		if len(rows) == 0 {
			continue
		}
		if _, err := live.IngestTuples(table, rows); err != nil {
			t.Fatalf("IngestTuples(%s): %v", table, err)
		}
	}
}

// directDatabase builds the ground-truth database for the first k batches
// applied on top of the university seed, inserting rows before Freeze.
func directDatabase(t *testing.T, k int) *relation.Database {
	t.Helper()
	db := university.New()
	for _, batch := range commitBatches[:k] {
		for _, table := range []string{"Student", "Course", "Enrol"} {
			tb := db.Table(table)
			for _, tu := range batch[table] {
				if err := tb.Insert(tu.Clone()); err != nil {
					t.Fatalf("Insert into %s: %v", table, err)
				}
			}
		}
	}
	return db
}

// TestLiveCommitIncrementalMatchesFull drives K consecutive incremental
// commits and checks, after every one, that answers are byte-identical to a
// full from-scratch core.Open of the directly-built database.
func TestLiveCommitIncrementalMatchesFull(t *testing.T) {
	inc, err := OpenLive(university.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for k, batch := range commitBatches {
		applyBatch(t, inc, batch)
		if ep, err := inc.Commit(ctx); err != nil || ep != uint64(k+1) {
			t.Fatalf("incremental Commit %d = %d, %v", k, ep, err)
		}
		truth, err := Open(directDatabase(t, k+1), nil)
		if err != nil {
			t.Fatalf("Open(direct %d): %v", k+1, err)
		}
		for _, q := range liveQueries {
			want := answerBytes(t, truth, q)
			if got := answerBytes(t, inc.System(), q); got != want {
				t.Fatalf("epoch %d query %q: incremental diverged from direct build:\nwant:\n%s\ngot:\n%s",
					k+1, q, want, got)
			}
		}
	}
}

// TestLiveCommitBuildMetrics pins the new commit observability: the build
// histogram records every commit, reused blocks accumulate, and
// BuildDuration reports the last build's wall time.
func TestLiveCommitBuildMetrics(t *testing.T) {
	live, err := OpenLive(university.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if live.BuildDuration() != 0 {
		t.Fatalf("BuildDuration before any commit = %v, want 0", live.BuildDuration())
	}
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	applyBatch(t, live, commitBatches[0])
	if _, err := live.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	applyBatch(t, live, commitBatches[1])
	if _, err := live.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	h := reg.Histogram("kwagg_epoch_build_seconds", "", nil).Snapshot()
	if h.Count != 2 {
		t.Fatalf("kwagg_epoch_build_seconds count = %d, want 2", h.Count)
	}
	if reg.Counter("kwagg_epoch_reused_blocks_total", "").Value() == 0 {
		t.Fatal("kwagg_epoch_reused_blocks_total stayed 0 across incremental commits")
	}
	if live.BuildDuration() <= 0 {
		t.Fatalf("BuildDuration = %v, want > 0", live.BuildDuration())
	}
}

// TestLiveIngestTuplesValidation mirrors the string-path batch atomicity.
func TestLiveIngestTuplesValidation(t *testing.T) {
	live, err := OpenLive(university.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := live.IngestTuples("NoSuch", []relation.Tuple{{"x"}}); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if _, err := live.IngestTuples("Student", []relation.Tuple{{"s9", "Green", int64(23)}, {"s10"}}); err == nil {
		t.Fatal("expected arity error")
	}
	if live.Pending() != 0 {
		t.Fatalf("failed batches buffered %d rows", live.Pending())
	}
	if n, err := live.IngestTuples("Student", []relation.Tuple{{"s9", "Green", int64(23)}}); err != nil || n != 1 {
		t.Fatalf("IngestTuples = %d, %v", n, err)
	}
}
