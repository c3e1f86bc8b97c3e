package kwagg_test

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kwagg"
	"kwagg/internal/chaos"
	"kwagg/internal/core"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/dataset/university"
	"kwagg/internal/leakcheck"
	"kwagg/internal/relation"
	"kwagg/internal/sqak"
)

// incrementalCommits is how many consecutive Commit epochs the differential
// drives on top of the prefix; every dataset's rows are split into a prefix
// plus this many chunks.
const incrementalCommits = 3

// incrementalDataset builds the named bundled dataset directly at the small
// scale, returning the database and the view-name hints core.Open needs for
// the denormalized variants — the same switch datasetDB performs behind the
// public OpenDataset.
func incrementalDataset(t *testing.T, name string) (*relation.Database, map[string]string) {
	t.Helper()
	switch name {
	case "university":
		return university.New(), nil
	case "tpch":
		return tpch.New(tpch.Small()), nil
	case "tpch-denorm":
		return tpch.Denormalize(tpch.New(tpch.Small())), tpch.NameHints()
	case "acmdl":
		return acmdl.New(acmdl.Small()), nil
	case "acmdl-denorm":
		return acmdl.Denormalize(acmdl.New(acmdl.Small())), acmdl.NameHints()
	default:
		t.Fatalf("unknown dataset %q", name)
		return nil, nil
	}
}

// cutAt returns how many of n rows belong to the database state after k of
// incrementalCommits commits (k = 0 is the prefix): evenly spaced fractions
// ending at the full table, preserving row order throughout.
func cutAt(n, k int) int {
	return n * (k + 2) / (incrementalCommits + 2)
}

// prefixDatabase rebuilds db with only the first cutAt(·, k) rows of every
// table, in registration order — the ground truth the k-th incremental epoch
// must match byte for byte.
func prefixDatabase(t *testing.T, db *relation.Database, k int) *relation.Database {
	t.Helper()
	out := relation.NewDatabase(db.Name)
	for _, tb := range db.Tables() {
		nt := relation.NewTable(tb.Schema.Clone())
		if err := nt.AppendShared(tb.Tuples[:cutAt(len(tb.Tuples), k)]); err != nil {
			t.Fatal(err)
		}
		out.Add(nt)
	}
	return out
}

// systemAnswer renders the top-3 answers of query — SQL plus result rows —
// as one string, the unit of byte-identity (mirrors the core test helper).
// A deterministic failure (a query term absent from an early row prefix) is
// part of the observable behavior, so it renders as an error string and must
// match byte for byte too.
func systemAnswer(t *testing.T, s *core.System, query string) string {
	t.Helper()
	as, err := s.Answer(query, 3)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	for _, a := range as {
		b.WriteString(a.SQL.String())
		b.WriteString("\n")
		b.WriteString(a.Result.String())
		b.WriteString("\n")
	}
	return b.String()
}

// sqakAnswer renders the SQAK baseline's answer to query — its SQL, then
// the result rows — as one string; a refusal or failure renders as its
// error text, which must match byte for byte too.
func sqakAnswer(s *sqak.System, query string) string {
	res, sql, err := s.Answer(query)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	return sql.String() + "\n" + res.String() + "\n"
}

// ingestChunk feeds every table's k-th row chunk into the live engine at
// tuple fidelity (typed values and NULLs survive verbatim).
func ingestChunk(t *testing.T, live *core.Live, db *relation.Database, k int) {
	t.Helper()
	for _, tb := range db.Tables() {
		lo, hi := cutAt(len(tb.Tuples), k-1), cutAt(len(tb.Tuples), k)
		if lo == hi {
			continue
		}
		if _, err := live.IngestTuples(tb.Schema.Name, tb.Tuples[lo:hi]); err != nil {
			t.Fatalf("IngestTuples(%s): %v", tb.Schema.Name, err)
		}
	}
}

// TestIncrementalCommitMatchesFullOpen is the top-level differential of the
// incremental epoch builder: for every bundled dataset, an engine grown from
// a row prefix through incrementalCommits consecutive Commit epochs must
// answer every DatasetWorkloads query byte-identically to a from-scratch
// core.Open of the same rows — after every single commit, not just the last.
// The SQAK baseline over each epoch's data, which matches value terms
// through the index the commit patched, must likewise equal SQAK over the
// from-scratch database.
func TestIncrementalCommitMatchesFullOpen(t *testing.T) {
	for name, queries := range kwagg.DatasetWorkloads() {
		t.Run(name, func(t *testing.T) {
			db, hints := incrementalDataset(t, name)
			opts := &core.Options{NameHints: hints}
			live, err := core.OpenLive(prefixDatabase(t, db, 0), opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for k := 1; k <= incrementalCommits; k++ {
				ingestChunk(t, live, db, k)
				if ep, err := live.Commit(ctx); err != nil || ep != uint64(k) {
					t.Fatalf("Commit %d = %d, %v", k, ep, err)
				}
				truth, err := core.Open(prefixDatabase(t, db, k), opts)
				if err != nil {
					t.Fatal(err)
				}
				liveSQAK, truthSQAK := sqak.New(live.System().Data), sqak.New(truth.Data)
				for _, q := range queries {
					want := systemAnswer(t, truth, q)
					if got := systemAnswer(t, live.System(), q); got != want {
						t.Fatalf("commit %d query %q: incremental epoch diverged from full open:\nwant:\n%s\ngot:\n%s",
							k, q, want, got)
					}
					want = sqakAnswer(truthSQAK, q)
					if got := sqakAnswer(liveSQAK, q); got != want {
						t.Fatalf("commit %d query %q: SQAK over the incremental epoch diverged from full open:\nwant:\n%s\ngot:\n%s",
							k, q, want, got)
					}
				}
			}
		})
	}
}

// TestIncrementalCommitChaosMidQuerySwap stretches queries across three
// consecutive incremental epoch swaps under injected faults and latency:
// every completed answer must be byte-identical to one of the four
// independently-built epoch baselines — never a torn mix — and the commit
// path must not leak goroutines.
func TestIncrementalCommitChaosMidQuerySwap(t *testing.T) {
	defer leakcheck.Check(t)()
	const query = "Green SUM Credit"
	db, _ := incrementalDataset(t, "university")

	baselines := make([]string, incrementalCommits+1)
	for k := 0; k <= incrementalCommits; k++ {
		truth, err := core.Open(prefixDatabase(t, db, k), nil)
		if err != nil {
			t.Fatal(err)
		}
		baselines[k] = systemAnswer(t, truth, query)
	}

	inj := chaos.New(chaos.Config{
		Rate:    0.3,
		Seed:    17,
		Latency: 2 * time.Millisecond,
		Points:  []chaos.Point{chaos.PointStatement, chaos.PointWorker},
	})
	live, err := core.OpenLive(prefixDatabase(t, db, 0), &core.Options{Chaos: inj})
	if err != nil {
		t.Fatal(err)
	}

	const queriers = 4
	answers := make([][]string, queriers)
	var wg sync.WaitGroup
	var committed atomic.Bool
	defer committed.Store(true) // releases the queriers if a commit fails
	start := make(chan struct{})
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Query until every commit has landed, then eight times more:
			// the early prefixes lack the query's terms, and their
			// term-not-found errors return at once, so a fixed number of
			// queries could all finish before the first swap.
			for after := 0; after < 8; {
				if committed.Load() {
					after++
				}
				sys, _ := live.Snapshot()
				as, err := sys.Answer(query, 3)
				if err != nil {
					continue // injected faults may exhaust the retry budget
				}
				var b strings.Builder
				for _, a := range as {
					b.WriteString(a.SQL.String())
					b.WriteString("\n")
					b.WriteString(a.Result.String())
					b.WriteString("\n")
				}
				answers[w] = append(answers[w], b.String())
			}
		}(w)
	}
	close(start)
	ctx := context.Background()
	for k := 1; k <= incrementalCommits; k++ {
		ingestChunk(t, live, db, k)
		if ep, err := live.Commit(ctx); err != nil || ep != uint64(k) {
			t.Fatalf("Commit %d = %d, %v", k, ep, err)
		}
	}
	committed.Store(true)
	wg.Wait()

	completed := 0
	for w := range answers {
		for i, got := range answers[w] {
			completed++
			ok := false
			for _, want := range baselines {
				if got == want {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("querier %d answer %d matches no epoch baseline (torn epoch?):\n%s", w, i, got)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no query completed; the chaos rate starved the test")
	}
	// The injector is still live at rate 0.3 here, so a single attempt can
	// exhaust the retry budget; faults are transient, so retry the final
	// read — only a non-error mismatch is a torn epoch.
	final := systemAnswer(t, live.System(), query)
	for attempt := 0; strings.HasPrefix(final, "error: ") && attempt < 8; attempt++ {
		final = systemAnswer(t, live.System(), query)
	}
	if final != baselines[incrementalCommits] {
		t.Fatalf("post-swap answer is not the final epoch's:\n%s", final)
	}
}
