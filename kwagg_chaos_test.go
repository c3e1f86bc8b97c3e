package kwagg_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kwagg"
	"kwagg/internal/chaos"
)

// baselineAnswers runs the workload fault-free and returns the canonical
// rendering of every statement's result, keyed by its SQL.
func baselineAnswers(t *testing.T, name string, queries []string, k int) map[string]string {
	t.Helper()
	eng, err := kwagg.OpenDatasetOpts(name, true, &kwagg.Options{VerifyPlans: true})
	if err != nil {
		t.Fatalf("OpenDataset(%q): %v", name, err)
	}
	base := make(map[string]string)
	for _, q := range queries {
		set, err := eng.AnswerSetContext(context.Background(), q, k)
		if err != nil {
			t.Fatalf("%s: fault-free Answer(%q): %v", name, q, err)
		}
		if set.Partial {
			t.Fatalf("%s: fault-free Answer(%q) reported partial", name, q)
		}
		for _, a := range set.Answers {
			base[a.SQL] = renderResult(a.Result)
		}
	}
	return base
}

func renderResult(r kwagg.Result) string {
	return fmt.Sprintf("%v|%v", r.Columns, r.Rows)
}

// TestChaosReplayNeverSilentlyWrong is the headline acceptance property:
// every dataset workload (kwagg.DatasetWorkloads, the denormalized setups
// included) is replayed fault-free and then under a 10% injector (transient
// faults, injected cancellations, artificial latency on every point). Each
// query either fails loudly, degrades to a partial answer with
// per-statement error detail, or completes — and every completed
// statement's result is byte-identical to the fault-free run's.
func TestChaosReplayNeverSilentlyWrong(t *testing.T) {
	const k = 3
	for name, queries := range kwagg.DatasetWorkloads() {
		t.Run(name, func(t *testing.T) {
			base := baselineAnswers(t, name, queries, k)
			inj := chaos.New(chaos.Config{
				Rate:    0.1,
				Seed:    7,
				Cancel:  0.25,
				Latency: 200 * time.Microsecond,
			})
			eng, err := kwagg.OpenDatasetOpts(name, true, &kwagg.Options{Chaos: inj, VerifyPlans: true})
			if err != nil {
				t.Fatalf("OpenDatasetOpts(%q): %v", name, err)
			}
			completed, degraded := 0, 0
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					set, err := eng.AnswerSetContext(context.Background(), q, k)
					if err != nil {
						// Every statement failed: a loud, total degradation.
						degraded++
						continue
					}
					for _, a := range set.Answers {
						want, ok := base[a.SQL]
						if !ok {
							t.Fatalf("%q under chaos produced a statement the "+
								"fault-free run never ran:\n%s", q, a.SQL)
						}
						if got := renderResult(a.Result); got != want {
							t.Fatalf("%q: silently wrong answer under chaos\nSQL: %s\ngot:  %s\nwant: %s",
								q, a.SQL, got, want)
						}
						completed++
					}
					if set.Partial {
						degraded++
						if len(set.Failed) == 0 {
							t.Fatalf("%q: partial set with no failure detail", q)
						}
						for _, f := range set.Failed {
							if f.Message == "" || f.Pattern == "" || f.SQL == "" {
								t.Fatalf("%q: failure detail incomplete: %+v", q, f)
							}
						}
					} else if len(set.Failed) != 0 || set.Err() != nil {
						t.Fatalf("%q: complete set carries failures: %+v", q, set.Failed)
					}
				}
			}
			if completed == 0 {
				t.Fatal("chaos run completed no statements; the property was vacuous")
			}
			total := uint64(0)
			for _, n := range inj.Injected() {
				total += n
			}
			if total == 0 {
				t.Fatal("injector fired no faults; the chaos run was fault-free")
			}
			t.Logf("%s: %d statements completed identical, %d queries degraded, %d faults injected",
				name, completed, degraded, total)
		})
	}
}

// TestChaosCachePointsStillCorrect drives the cache injection points at rate
// 1 — every lookup forced to miss, every insert dropped — and demands fully
// correct, complete answers throughout: cache chaos may only cost time.
func TestChaosCachePointsStillCorrect(t *testing.T) {
	queries := kwagg.DatasetWorkloads()["university"]
	base := baselineAnswers(t, "university", queries, 2)
	inj := chaos.New(chaos.Config{
		Rate:   1,
		Seed:   3,
		Points: []chaos.Point{chaos.PointCacheLookup, chaos.PointCacheStore},
	})
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: inj, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			set, err := eng.AnswerSetContext(context.Background(), q, 2)
			if err != nil {
				t.Fatalf("Answer(%q): %v", q, err)
			}
			if set.Partial {
				t.Fatalf("Answer(%q): cache faults must never degrade the answer", q)
			}
			for _, a := range set.Answers {
				if got := renderResult(a.Result); got != base[a.SQL] {
					t.Fatalf("%q: wrong answer under cache chaos\nSQL: %s", q, a.SQL)
				}
			}
		}
	}
	cs, as := eng.CacheStats(), eng.AnswerCacheStats()
	if cs.ForcedMisses == 0 && as.ForcedMisses == 0 {
		t.Fatalf("no forced misses recorded: interp=%+v answer=%+v", cs, as)
	}
	if cs.DroppedInserts == 0 && as.DroppedInserts == 0 {
		t.Fatalf("no dropped inserts recorded: interp=%+v answer=%+v", cs, as)
	}
	if cs.Hits+as.Hits != 0 {
		t.Fatalf("rate-1 cache-lookup faults must force every lookup to miss: interp=%+v answer=%+v", cs, as)
	}
}

// targetInjector is a deterministic chaos.Injector for semantics tests: it
// injects transient faults for the first transientLeft statement attempts,
// and a permanent fault for every statement whose SQL equals failSQL.
type targetInjector struct {
	mu            sync.Mutex
	transientLeft int
	failSQL       string
	statements    int
}

func (ti *targetInjector) Fault(p chaos.Point, detail string) error {
	if p != chaos.PointStatement {
		return nil
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	ti.statements++
	if ti.transientLeft > 0 {
		ti.transientLeft--
		return &chaos.Transient{Point: p, Detail: detail}
	}
	if ti.failSQL != "" && detail == ti.failSQL {
		return errors.New("chaos test: permanent statement fault")
	}
	return nil
}

func (ti *targetInjector) Delay(chaos.Point) time.Duration { return 0 }

// TestChaosTransientFaultsAreRetried pins the retry semantics: a statement
// that fails transiently up to MaxRetries times still completes, the retries
// are accounted in the AnswerSet, and the answer is not partial.
func TestChaosTransientFaultsAreRetried(t *testing.T) {
	ti := &targetInjector{transientLeft: 2} // == core.DefaultMaxRetries
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: ti, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	set, err := eng.AnswerSetContext(context.Background(), "Green SUM Credit", 1)
	if err != nil {
		t.Fatalf("transient faults within the retry budget must not fail the query: %v", err)
	}
	if set.Partial || len(set.Answers) != 1 {
		t.Fatalf("want 1 complete answer, got %d (partial=%v)", len(set.Answers), set.Partial)
	}
	if set.Retries != 2 {
		t.Fatalf("AnswerSet.Retries = %d, want 2", set.Retries)
	}
}

// TestChaosTransientBudgetExhaustion: one more transient fault than the
// retry budget and the statement fails — loudly, as a partial or an error,
// with the transient fault in the detail.
func TestChaosTransientBudgetExhaustion(t *testing.T) {
	ti := &targetInjector{transientLeft: 3} // > DefaultMaxRetries
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: ti, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	set, err := eng.AnswerSetContext(context.Background(), "Green SUM Credit", 1)
	if err != nil {
		if !chaos.IsTransient(err) {
			t.Fatalf("exhausted retries should surface the transient fault, got %v", err)
		}
		return
	}
	if !set.Partial || len(set.Failed) == 0 {
		t.Fatalf("statement past its retry budget must degrade the set: %+v", set)
	}
}

// TestChaosPartialSetSemantics fails exactly one of two interpretations with
// a permanent (non-retryable) fault and checks the whole degradation
// contract: the other answer completes and is correct, the failed one is
// reported with its pattern and SQL at the right index, the strict
// AnswerContext rejects the partial set, and partial sets are never cached.
func TestChaosPartialSetSemantics(t *testing.T) {
	const query = "Green SUM Credit"
	clean, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := clean.Interpret(query, 2)
	if err != nil || len(ins) < 2 {
		t.Fatalf("need 2 interpretations of %q, got %d (%v)", query, len(ins), err)
	}
	target := ins[0].SQL
	ti := &targetInjector{failSQL: target}
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: ti, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}

	set, err := eng.AnswerSetContext(context.Background(), query, 2)
	if err != nil {
		t.Fatalf("one failed statement of two must degrade, not fail: %v", err)
	}
	if !set.Partial || len(set.Answers) != 1 || len(set.Failed) != 1 {
		t.Fatalf("want 1 answer + 1 failure, got %d + %d (partial=%v)",
			len(set.Answers), len(set.Failed), set.Partial)
	}
	f := set.Failed[0]
	if f.SQL != target || f.Index != 0 {
		t.Fatalf("failure detail names the wrong statement: %+v", f)
	}
	if f.Pattern != ins[0].Pattern {
		t.Fatalf("failure pattern = %q, want %q", f.Pattern, ins[0].Pattern)
	}
	if !strings.Contains(f.Message, "permanent statement fault") {
		t.Fatalf("failure message lost the cause: %q", f.Message)
	}
	if set.Err() == nil {
		t.Fatal("a partial set must expose a non-nil Err()")
	}
	if set.Answers[0].SQL != ins[1].SQL {
		t.Fatalf("the surviving answer is not the other interpretation:\n%s", set.Answers[0].SQL)
	}

	// The strict API refuses the degraded set outright.
	if _, err := eng.AnswerContext(context.Background(), query, 2); err == nil {
		t.Fatal("strict AnswerContext must reject a partial set")
	}

	// Partial sets are never cached: lift the fault and the same query must
	// recompute and come back complete.
	ti.mu.Lock()
	ti.failSQL = ""
	ti.mu.Unlock()
	set, err = eng.AnswerSetContext(context.Background(), query, 2)
	if err != nil || set.Partial || len(set.Answers) != 2 {
		t.Fatalf("after lifting the fault the set must be complete: %+v (%v)", set, err)
	}
}

// TestChaosCanceledFaultsNotRetried: injected cancellations are context
// errors, not transients — the executor must fail them without burning the
// retry budget.
func TestChaosCanceledFaultsNotRetried(t *testing.T) {
	inj := chaos.New(chaos.Config{Rate: 1, Cancel: 1, Seed: 5,
		Points: []chaos.Point{chaos.PointStatement}})
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: inj, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	set, err := eng.AnswerSetContext(context.Background(), "Green SUM Credit", 2)
	if err == nil {
		t.Fatalf("every statement canceled, yet the query succeeded: %+v", set)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want a context cancellation, got %v", err)
	}
	if set != nil {
		t.Fatalf("canceled query must not return a set, got %+v", set)
	}
}

// TestChaosDisabledIsIdentical: an engine with a nil injector and one with a
// zero-rate injector answer identically to each other — the injection points
// are inert when disabled.
func TestChaosDisabledIsIdentical(t *testing.T) {
	queries := kwagg.DatasetWorkloads()["university"]
	base := baselineAnswers(t, "university", queries, 2)
	inj := chaos.New(chaos.Config{Rate: 0, Seed: 1})
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: inj, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		set, err := eng.AnswerSetContext(context.Background(), q, 2)
		if err != nil || set.Partial {
			t.Fatalf("zero-rate injector degraded %q: %v", q, err)
		}
		for _, a := range set.Answers {
			if renderResult(a.Result) != base[a.SQL] {
				t.Fatalf("zero-rate injector changed the answer to %q", q)
			}
		}
	}
	if n := inj.Injected(); len(n) != 0 {
		t.Fatalf("zero-rate injector fired: %v", n)
	}
}

// TestChaosReplayBatchVsEncoded crosses kernel configurations with fault
// injection: the fault-free baseline is computed with the batch kernels in
// their plainest configuration — single-shard (Shards 1), no shared-subplan
// memo, no query caches — then every workload is replayed under a 10%
// injector with the default sharded, memoized, cached configuration. Every
// statement the chaos run completes must render byte-identical to the plain
// fault-free answer: shard parallelism and memoization change neither
// results nor the partial-answer degradation contract, even when faults land
// mid-way through a block-at-a-time operator. The name is historical: the
// baseline used to be the integer-at-a-time ("encoded") path, which is gone.
func TestChaosReplayBatchVsEncoded(t *testing.T) {
	const k = 3
	for name, queries := range kwagg.DatasetWorkloads() {
		t.Run(name, func(t *testing.T) {
			// Plain-configuration fault-free baseline.
			plain, err := kwagg.OpenDatasetOpts(name, true, &kwagg.Options{
				Shards: 1, MemoCells: -1, CacheSize: -1, VerifyPlans: true})
			if err != nil {
				t.Fatalf("OpenDatasetOpts(%q): %v", name, err)
			}
			base := make(map[string]string)
			for _, q := range queries {
				set, err := plain.AnswerSetContext(context.Background(), q, k)
				if err != nil {
					t.Fatalf("%s: plain fault-free Answer(%q): %v", name, q, err)
				}
				if set.Partial {
					t.Fatalf("%s: plain fault-free Answer(%q) reported partial", name, q)
				}
				for _, a := range set.Answers {
					base[a.SQL] = renderResult(a.Result)
				}
			}

			// Default configuration under chaos.
			inj := chaos.New(chaos.Config{
				Rate:    0.1,
				Seed:    13,
				Cancel:  0.25,
				Latency: 100 * time.Microsecond,
			})
			eng, err := kwagg.OpenDatasetOpts(name, true, &kwagg.Options{
				Chaos: inj, VerifyPlans: true})
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					set, err := eng.AnswerSetContext(context.Background(), q, k)
					if err != nil {
						continue // loud, total degradation — acceptable
					}
					for _, a := range set.Answers {
						want, ok := base[a.SQL]
						if !ok {
							t.Fatalf("%q under chaos produced a statement the "+
								"plain run never ran:\n%s", q, a.SQL)
						}
						if got := renderResult(a.Result); got != want {
							t.Fatalf("%q: default configuration under chaos diverged from the plain baseline\nSQL: %s\ngot:  %s\nwant: %s",
								q, a.SQL, got, want)
						}
						completed++
					}
					// The degradation contract is configuration-independent: a
					// partial set still carries complete failure detail.
					if set.Partial && len(set.Failed) == 0 {
						t.Fatalf("%q: partial set with no failure detail", q)
					}
				}
			}
			if completed == 0 {
				t.Fatal("chaos run completed no statements; the property was vacuous")
			}
			t.Logf("%s: %d statements completed identical to the plain baseline", name, completed)
		})
	}
}

// TestChaosConcurrentReplay hammers one chaos engine from many goroutines
// (exercising the singleflight collapse, cache injection and the worker pool
// under -race) and checks every completed answer against the baseline.
func TestChaosConcurrentReplay(t *testing.T) {
	queries := kwagg.DatasetWorkloads()["university"]
	base := baselineAnswers(t, "university", queries, 2)
	inj := chaos.New(chaos.Config{Rate: 0.1, Seed: 11, Cancel: 0.25,
		Latency: 100 * time.Microsecond})
	eng, err := kwagg.OpenDatasetOpts("university", true, &kwagg.Options{Chaos: inj, VerifyPlans: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				q := queries[(g+i)%len(queries)]
				set, err := eng.AnswerSetContext(context.Background(), q, 2)
				if err != nil {
					continue // loud failure: acceptable degradation
				}
				for _, a := range set.Answers {
					if !reflect.DeepEqual(renderResult(a.Result), base[a.SQL]) {
						errc <- fmt.Errorf("goroutine %d: wrong answer to %q under chaos", g, q)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
