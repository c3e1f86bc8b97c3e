package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"kwagg"
	"kwagg/internal/core"
	"kwagg/internal/experiments"
)

// paperPair is one (setup, query) request of paper-cold.
type paperPair struct {
	setup int
	query experiments.Query
}

// paperCold answers T1-T8 and A1-A8 on TPCH, TPCH', ACMDL and ACMDL' with
// both caches and the memo off, one closed-loop client, over a seeded
// shuffle of the 32 (setup, query) pairs: every request pays the whole
// pipeline.
func paperCold(cfg runConfig, o *outcome) error {
	var (
		setups  []*paperSetup
		engines []*kwagg.Engine
	)
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	setupTimes, err := timeSetup(reps, func() { setups, engines = nil, nil }, func() error {
		setups = paperSetups(cfg.seed)
		for _, p := range setups {
			if cfg.trace {
				if err := traceSetupLayers(context.Background(), o.tr, p.db, p.views); err != nil {
					return err
				}
			}
			pub, err := publicDB(p.db)
			if err != nil {
				return err
			}
			eng, err := kwagg.Open(pub, &kwagg.Options{ViewNames: p.views, CacheSize: -1, MemoCells: -1, Chaos: cfg.chaos})
			if err != nil {
				return fmt.Errorf("%s: %w", p.label, err)
			}
			engines = append(engines, eng)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var pairs []paperPair
	for si, p := range setups {
		for _, q := range p.queries {
			pairs = append(pairs, paperPair{si, q})
		}
	}
	// The untimed pass warms the process up and records each pair's
	// reference answer digest.
	ctx := context.Background()
	ref := make([]answerDigest, len(pairs))
	for i, pr := range pairs {
		ans, err := engines[pr.setup].AnswerContext(ctx, pr.query.Keywords, answerK)
		if err != nil {
			return fmt.Errorf("%s %s: %w", setups[pr.setup].label, pr.query.ID, err)
		}
		ref[i] = digestPublic(ans)
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))
	answer := func(i int) {
		pr := pairs[i]
		ans, err := engines[pr.setup].AnswerContext(ctx, pr.query.Keywords, answerK)
		switch {
		case err != nil:
			o.fail("%s %s: %v", setups[pr.setup].label, pr.query.ID, err)
		case digestPublic(ans) != ref[i]:
			o.fail("%s %s: answer differs from the untimed pass", setups[pr.setup].label, pr.query.ID)
		}
	}
	if cfg.trace {
		lat, _ := closedLoop(rng, len(pairs), cfg.seconds/2, o, answer)
		o.facts["requests"] = lat.n()
		if err := paperColdTraced(cfg, o, setups, pairs, ref, rng, &lat); err != nil {
			return err
		}
		return checkShapes(o, setups)
	}
	lat, elapsed := closedLoop(rng, len(pairs), cfg.seconds, o, answer)
	o.facts["requests"] = lat.n()
	setSetup(&o.m, &setupTimes)
	if err := setLatency(&o.m, &lat); err != nil {
		return err
	}
	o.m.set("qps", float64(lat.n())/elapsed.Seconds(), "1/s", fmt.Sprintf("%d requests in %.3f s", lat.n(), elapsed.Seconds()))
	if err := checkShapes(o, setups); err != nil {
		return err
	}
	// heap_mb counts the engines alone: the benchmark's own copies of the
	// generated relations are dropped first.
	setups = nil
	o.m.set("heap_mb", heapMB(), "MB", "after GC, engines live")
	runtime.KeepAlive(engines)
	return commitProbe(cfg, o)
}

// closedLoop issues requests back to back from one client over seeded
// shuffles of the n pairs until the window ends, returning the latencies in
// milliseconds and the loop's wall time.
func closedLoop(rng *rand.Rand, n int, window time.Duration, o *outcome, do func(i int)) (samples, time.Duration) {
	var lat samples
	start := time.Now()
	deadline := start.Add(window)
	for time.Now().Before(deadline) {
		for _, i := range rng.Perm(n) {
			t0 := time.Now()
			do(i)
			lat.addDur(time.Since(t0), time.Millisecond)
			o.attempted++
			if !time.Now().Before(deadline) {
				break
			}
		}
	}
	return lat, time.Since(start)
}

// paperColdTraced is the traced half of a --trace 1 run: the same closed
// loop, answered by calling each layer under a span on Systems opened over
// the setups' generated relations with the same options as the engines.
func paperColdTraced(cfg runConfig, o *outcome, setups []*paperSetup, pairs []paperPair, ref []answerDigest,
	rng *rand.Rand, untraced *samples) error {
	p := &probe{tr: o.tr, counts: &o.counts}
	systems := make([]*core.System, len(setups))
	for i, s := range setups {
		sys, err := core.Open(s.db, &core.Options{NameHints: s.views, MemoCells: -1, Chaos: cfg.chaos, Backend: p})
		if err != nil {
			return fmt.Errorf("%s: %w", s.label, err)
		}
		systems[i] = sys
	}
	ctx := context.Background()
	lat, _ := closedLoop(rng, len(pairs), cfg.seconds/2, o, func(i int) {
		pr := pairs[i]
		ans, err := tracedAnswer(ctx, o.tr, &o.counts, systems[pr.setup], pr.query.Keywords, answerK)
		switch {
		case err != nil:
			o.fail("traced %s %s: %v", setups[pr.setup].label, pr.query.ID, err)
		case digestCore(ans) != ref[i]:
			o.fail("traced %s %s: answer differs from the engine's", setups[pr.setup].label, pr.query.ID)
		}
	})
	o.facts["traced_requests"] = lat.n()
	setLayerMetrics(&o.m, o.tr, &o.counts)
	setCacheMetrics(&o.m, cacheCounters{}, cacheCounters{})
	o.m.set("loadgen.late_p99_ms", 0, "ms", "closed loop: nothing is scheduled")
	setOverhead(&o.m, untraced, &lat)
	return nil
}

// checkShapes runs the paper-shape check of internal/experiments on every
// (setup, query) pair: the semantic approach's answer must relate to the
// SQAK baseline's as the paper's Tables 5, 6, 8 and 9 report.
func checkShapes(o *outcome, setups []*paperSetup) error {
	for _, p := range setups {
		es, err := p.shapeSetup()
		if err != nil {
			return err
		}
		for _, q := range p.queries {
			row, err := es.Run(q)
			switch {
			case err != nil:
				o.fail("shape %s %s: %v", p.label, q.ID, err)
			case !row.ShapeOK:
				o.fail("shape %s %s: want %s: %s", p.label, q.ID, row.ShapeWanted, row.ShapeNote)
			}
		}
	}
	return nil
}
