package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kwagg"
	"kwagg/internal/core"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/relation"
	"kwagg/internal/sqak"
)

// The ingest-live commit schedule: one batch every commitEvery, each of
// batchOrders new orders with up to itemsPerOrder line items. The interval
// leaves room for a commit and a T1-T8 pass, so every epoch sees the
// reader's queries in the same order. A 25-second run gathered over 1300
// reads, 1000 being the fewest that support p99, even on a host running at
// a third of its usual speed; runs are 30 seconds long.
const (
	commitEvery   = 125 * time.Millisecond
	batchOrders   = 12
	itemsPerOrder = 4
	// plantedShare is the share of new line items that reference a part
	// with one of the planted names T3-T5 and T8 ask about.
	plantedShare = 0.25
	// probeCommits is the size of the commit probe of the workloads
	// without a writer.
	probeCommits = 120
)

// batch is one commit's new rows, as ingest fields.
type batch struct {
	orders, items [][]string
}

func (b batch) rows() int { return len(b.orders) + len(b.items) }

// makeBatches derives n batches of new orders and line items from the
// generated database and the seed. New orders take fresh keys after the
// generated ones; their amount is the sum of quantity times retail price, as
// the generator computes it.
func makeBatches(db *relation.Database, seed uint64, n int) []batch {
	rng := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909))
	parts, orders := db.Table("Part"), db.Table("Order")
	nSupp, nCust := db.Table("Supplier").Len(), db.Table("Customer").Len()
	var planted []int // row indexes of the planted parts
	for i, tu := range parts.Tuples {
		switch tu[1] {
		case tpch.RoyalOlive, tpch.YellowTomato, tpch.IndianBlackChoc, tpch.PinkRose, tpch.WhiteRose:
			planted = append(planted, i)
		}
	}
	nextKey := int64(orders.Len())
	out := make([]batch, n)
	for b := range out {
		for o := 0; o < batchOrders; o++ {
			nextKey++
			used := make(map[int]bool)
			amount := 0.0
			for it := 0; it < itemsPerOrder; it++ {
				p := rng.IntN(parts.Len())
				if rng.Float64() < plantedShare {
					p = planted[rng.IntN(len(planted))]
				}
				if used[p] {
					continue
				}
				used[p] = true
				qty := int64(1 + rng.IntN(50))
				amount += float64(qty) * parts.Tuples[p][4].(float64)
				out[b].items = append(out[b].items, []string{
					relation.Format(parts.Tuples[p][0]), fmt.Sprint(1 + rng.IntN(nSupp)),
					fmt.Sprint(nextKey), fmt.Sprint(qty)})
			}
			date := fmt.Sprintf("199%d-%02d-%02d", 2+rng.IntN(7), 1+rng.IntN(12), 1+rng.IntN(28))
			out[b].orders = append(out[b].orders, []string{fmt.Sprint(nextKey), fmt.Sprint(1 + rng.IntN(nCust)),
				relation.Format(amount), date, priorities[rng.IntN(len(priorities))]})
		}
	}
	return out
}

var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

// ingester is the part of the live engine APIs a commit uses.
type ingester interface {
	Ingest(table string, rows [][]string) (int, error)
}

func ingestBatch(e ingester, b batch) error {
	if _, err := e.Ingest("Order", b.orders); err != nil {
		return err
	}
	_, err := e.Ingest("Lineitem", b.items)
	return err
}

// commitSchedule runs commit(k) for k = 0..n-1, commit k due at
// start + k*commitEvery (late commits run at once), and returns each
// commit's wall time in milliseconds and its lateness.
func commitSchedule(n int, commit func(k int) error) (lat, late samples, errs []error) {
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * commitEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		late.addDur(t0.Sub(due), time.Millisecond)
		if err := commit(k); err != nil {
			errs = append(errs, fmt.Errorf("commit %d: %w", k, err))
		}
		lat.addDur(time.Since(t0), time.Millisecond)
	}
	return lat, late, errs
}

// ingestLive runs one writer committing seeded batches on a fixed schedule
// into a live TPCH engine with default options, beside one reader answering
// T1-T8 in a closed loop.
func ingestLive(cfg runConfig, o *outcome) error {
	var (
		eng     *kwagg.Engine
		batches []batch
	)
	commits := int(cfg.seconds / commitEvery)
	if cfg.trace {
		commits /= 2
	}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	setupTimes, err := timeSetup(reps, func() { eng, batches = nil, nil }, func() error {
		base := tpch.New(tpchConfig(cfg.seed))
		pub, err := publicDB(base)
		if err != nil {
			return err
		}
		if eng, err = kwagg.OpenLive(pub, &kwagg.Options{Chaos: cfg.chaos}); err != nil {
			return err
		}
		batches = makeBatches(base, cfg.seed, commits)
		return nil
	})
	if err != nil {
		return err
	}
	queries := experiments.QueriesTPCH()
	ctx := context.Background()
	for _, q := range queries { // warm-up
		if _, err := eng.AnswerContext(ctx, q.Keywords, answerK); err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
	}
	before := readCounters(eng)
	commitLat, commitLate, reads, elapsed := liveRun(o, commits, queries, eng.Epoch,
		func(k int) error {
			if err := ingestBatch(eng, batches[k]); err != nil {
				return err
			}
			_, err := eng.CommitEpoch(ctx)
			return err
		},
		func(q experiments.Query) error {
			_, err := eng.AnswerContext(ctx, q.Keywords, answerK)
			return err
		})
	o.facts["requests"], o.facts["commits"] = reads.n(), commitLat.n()
	if cfg.trace {
		setCacheMetrics(&o.m, before, readCounters(eng))
		setLateness(&o.m, &commitLate)
	} else {
		setSetup(&o.m, &setupTimes)
		if err := setLatency(&o.m, &reads); err != nil {
			return err
		}
		if err := setCommitLatency(&o.m, &commitLat); err != nil {
			return err
		}
		o.m.set("qps", float64(reads.n())/elapsed.Seconds(), "1/s", fmt.Sprintf("%d reads in %.3f s", reads.n(), elapsed.Seconds()))
	}
	if err := checkLiveAnswers(o, cfg.seed, batches, eng); err != nil {
		return err
	}
	if !cfg.trace {
		// Measured after the check has answered T1-T8 on the last epoch, so
		// that epoch's memo holds the same fragments in every run, and
		// without the benchmark's batches, so that it counts the engine alone.
		batches = nil
		o.m.set("heap_mb", heapMB(), "MB", "after GC, live engine after the last commit and one T1-T8 pass")
		runtime.KeepAlive(eng)
		return nil
	}
	return ingestLiveTraced(cfg, o, batches, queries, &reads)
}

// liveRun runs the commit schedule on one goroutine and the T1-T8 reader on
// this one until the last commit. Commits count as requests.
//
// The reader cycles through T1-T8 and asks a query again only once a commit
// has moved the engine to a new epoch; it waits for the commit otherwise.
// Every read therefore answers on an epoch its query has not been answered
// on — the cost users pay after the data changed — instead of mixing
// microsecond answer-cache hits with full answers in proportions that
// depend on how the two goroutines interleave.
func liveRun(o *outcome, commits int, queries []experiments.Query, epoch func() uint64, commit func(k int) error,
	read func(q experiments.Query) error) (commitLat, commitLate, reads samples, elapsed time.Duration) {
	var (
		wg         sync.WaitGroup
		writerDone atomic.Bool
		commitErrs []error
	)
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		commitLat, commitLate, commitErrs = commitSchedule(commits, commit)
	}()
	asked := make([]uint64, len(queries))
	for i := range asked {
		asked[i] = epoch()
	}
	for i := 0; ; i++ {
		qi := i % len(queries)
		for asked[qi] == epoch() && !writerDone.Load() {
			time.Sleep(200 * time.Microsecond)
		}
		if writerDone.Load() {
			break
		}
		asked[qi] = epoch()
		q := queries[qi]
		t0 := time.Now()
		err := read(q)
		reads.addDur(time.Since(t0), time.Millisecond)
		o.attempted++
		if err != nil {
			o.fail("read %s: %v", q.ID, err)
		}
	}
	wg.Wait()
	elapsed = time.Since(start)
	o.attempted += int64(commitLat.n())
	for _, err := range commitErrs {
		o.fail("%v", err)
	}
	return commitLat, commitLate, reads, elapsed
}

// setCommitLatency reports the median and p90 commit wall times.
func setCommitLatency(m *metrics, lat *samples) error {
	if err := m.setQuantile("commit_p50_ms", lat, 0.5, "ms"); err != nil {
		return err
	}
	return m.setQuantile("commit_p90_ms", lat, 0.9, "ms")
}

// checkLiveAnswers compares the live engine's T1-T8 answers after the last
// commit with those of a fresh kwagg.Open over the same rows.
func checkLiveAnswers(o *outcome, seed uint64, batches []batch, live *kwagg.Engine) error {
	pub, err := publicDB(tpch.New(tpchConfig(seed)))
	if err != nil {
		return err
	}
	for _, b := range batches {
		for _, r := range b.orders {
			if err := pub.Insert("Order", r...); err != nil {
				return err
			}
		}
		for _, r := range b.items {
			if err := pub.Insert("Lineitem", r...); err != nil {
				return err
			}
		}
	}
	fresh, err := kwagg.Open(pub, nil)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, q := range experiments.QueriesTPCH() {
		got, gerr := live.AnswerContext(ctx, q.Keywords, answerK)
		want, werr := fresh.AnswerContext(ctx, q.Keywords, answerK)
		switch {
		case gerr != nil || werr != nil:
			o.fail("final %s: live error %v, fresh error %v", q.ID, gerr, werr)
		case digestPublic(got) != digestPublic(want):
			o.fail("final %s: live answer differs from a fresh Open over the same rows", q.ID)
		}
	}
	return nil
}

// commitProbe gives the workloads without a writer their commit_p50_ms and
// commit_p90_ms: the first probeCommits batches of ingest-live committed one
// after another, with no reader, into a live engine over the same TPCH
// instance. It runs last, once the workload's engines are garbage: run first
// in the fresh process, its p90 varied by up to 40% between runs of the same
// code, and by half that at the end.
func commitProbe(cfg runConfig, o *outcome) error {
	db := tpch.New(tpchConfig(cfg.seed))
	pub, err := publicDB(db)
	if err != nil {
		return err
	}
	eng, err := kwagg.OpenLive(pub, &kwagg.Options{Chaos: cfg.chaos})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var lat samples
	for k, b := range makeBatches(db, cfg.seed, probeCommits) {
		// A commit allocates its epoch's index and dictionaries; starting
		// each one after a collection keeps its time from depending on
		// whether a GC cycle started by earlier garbage overlaps it.
		runtime.GC()
		t0 := time.Now()
		err := ingestBatch(eng, b)
		if err == nil {
			_, err = eng.CommitEpoch(ctx)
		}
		lat.addDur(time.Since(t0), time.Millisecond)
		o.attempted++
		if err != nil {
			o.fail("probe commit %d: %v", k, err)
		}
	}
	o.facts["probe_commits"] = lat.n()
	return setCommitLatency(&o.m, &lat)
}

// ingestLiveTraced is the traced half of a --trace 1 run: the same schedule
// and reader on a core.Live opened over a fresh copy of the data. The writer
// times Ingest and Commit, then the rest of Engine.CommitEpoch's epoch fold,
// then the new epoch's schema-sized layers, then
// relation.ExtendFrozenDatabase on the trace's own epoch chain fed the same
// batch. The reader answers through tracedAnswer on the current snapshot.
func ingestLiveTraced(cfg runConfig, o *outcome, batches []batch, queries []experiments.Query, untraced *samples) error {
	ctx := context.Background()
	db := tpch.New(tpchConfig(cfg.seed))
	if err := traceSetupLayers(ctx, o.tr, db, nil); err != nil {
		return err
	}
	live, err := core.OpenLive(db, &core.Options{Chaos: cfg.chaos, Backend: &probe{tr: o.tr, counts: &o.counts}})
	if err != nil {
		return err
	}
	chain := tpch.New(tpchConfig(cfg.seed))
	chain.Freeze()
	_, _, reads, _ := liveRun(o, len(batches), queries, live.Epoch,
		func(k int) error {
			cctx, root := o.tr.start(ctx, "commit")
			defer root.end()
			_, s := o.tr.start(cctx, "core.ingest")
			err := ingestBatch(live, batches[k])
			s.end()
			if err != nil {
				return err
			}
			o.counts.mu.Lock()
			o.counts.ingestRows += batches[k].rows()
			o.counts.mu.Unlock()
			_, s = o.tr.start(cctx, "core.commit")
			_, err = live.Commit(cctx)
			s.end()
			if err != nil {
				return err
			}
			sys, _ := live.Snapshot()
			// Engine.CommitEpoch folds each new epoch in with the SQAK
			// baseline's system over the new data.
			_, s = o.tr.start(cctx, "kwagg.fold")
			sqak.New(sys.Data)
			s.end()
			if err := traceEpochLayers(cctx, o.tr, sys.Data, nil); err != nil {
				return err
			}
			add, err := batchTuples(chain, batches[k])
			if err != nil {
				return err
			}
			_, s = o.tr.start(cctx, "relation.extend")
			next, st, err := relation.ExtendFrozenDatabase(chain, add)
			s.end()
			if err != nil {
				return err
			}
			chain = next
			o.counts.add(&o.counts.reusedBlocks, float64(st.ReusedBlocks))
			return nil
		},
		func(q experiments.Query) error {
			sys, _ := live.Snapshot()
			_, err := tracedAnswer(ctx, o.tr, &o.counts, sys, q.Keywords, answerK)
			return err
		})
	o.facts["traced_requests"] = reads.n()
	setLayerMetrics(&o.m, o.tr, &o.counts)
	setOverhead(&o.m, untraced, &reads)
	return nil
}

// batchTuples coerces a batch's fields to the typed tuples
// relation.ExtendFrozenDatabase takes, keyed by lower-cased table name.
func batchTuples(db *relation.Database, b batch) (map[string][]relation.Tuple, error) {
	out := make(map[string][]relation.Tuple)
	for _, part := range []struct {
		table string
		rows  [][]string
	}{{"Order", b.orders}, {"Lineitem", b.items}} {
		schema := db.Table(part.table).Schema
		for _, r := range part.rows {
			tu := make(relation.Tuple, len(r))
			for j, f := range r {
				v, err := relation.Coerce(f, schema.Attributes[j].Type)
				if err != nil {
					return nil, err
				}
				tu[j] = v
			}
			key := strings.ToLower(part.table)
			out[key] = append(out[key], tu)
		}
	}
	return out, nil
}
