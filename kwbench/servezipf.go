package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"kwagg"
	"kwagg/internal/dataset/synth"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/keyword"
	"kwagg/internal/obs"
	"kwagg/internal/server"
)

const (
	// zipfRate is serve-zipf's offered rate in requests per second, half
	// the capacity: the highest rate that keeps p99 within 10 ms (see
	// README.md).
	zipfRate = 100
	// zipfConns bounds the client's goroutines and keep-alive connections.
	zipfConns = 2
	// zipfS is the skew of the query draw.
	zipfS = 1.1
	// zipfWarm is how many draws warm the caches up before timing.
	zipfWarm = 2000
)

// The serve-zipf grammar's terms: relations that can be counted, numeric
// attributes, aggregates, GROUPBY targets and values stored in the data.
// Groupings and values that join parts to customers (customer, supplier,
// mktsegment, priority, type) are left out: their misses cost up to 60 ms,
// and the few of them a run draws would set p99 alone. The GROUPBY nation
// and region queries that remain put p99 among misses rather than among
// requests that met a GC cycle.
var (
	zipfRels    = []string{"order", "supplier", "part", "customer"}
	zipfAttrs   = []string{"amount", "acctbal", "retailprice", "size", "quantity"}
	zipfAggs    = []string{"SUM", "AVG", "MIN", "MAX"}
	zipfGroupBy = []string{"nation", "region"}
)

// zipfValues returns the grammar's values, each with its kind: a planted
// part name, a nation or a region.
func zipfValues() (vals, kinds []string) {
	add := func(kind string, vs ...string) {
		for _, v := range vs {
			if strings.ContainsAny(v, " -") {
				v = `"` + v + `"`
			}
			vals, kinds = append(vals, v), append(kinds, kind)
		}
	}
	add("part", tpch.RoyalOlive, tpch.YellowTomato, tpch.IndianBlackChoc, tpch.PinkRose, tpch.WhiteRose)
	add("nation", synth.Nations...)
	add("region", synth.Regions...)
	return vals, kinds
}

// grammarQuery is one query of the serve-zipf grammar and its stratum: the
// counted relation or aggregated attribute with the kind of its value or
// its GROUPBY target, which together set the joins and the answer size.
type grammarQuery struct{ text, stratum string }

// grammar expands every query the serve-zipf grammar produces, in a fixed
// order.
func grammar() []grammarQuery {
	var out []grammarQuery
	vals, kinds := zipfValues()
	for _, rel := range zipfRels {
		for i, v := range vals {
			out = append(out, grammarQuery{fmt.Sprintf("COUNT %s %s", rel, v), rel + " " + kinds[i]})
		}
		for _, g := range zipfGroupBy {
			out = append(out, grammarQuery{fmt.Sprintf("COUNT %s GROUPBY %s", rel, g), rel + " GROUPBY " + g})
		}
	}
	for _, agg := range zipfAggs {
		for _, a := range zipfAttrs {
			for i, v := range vals {
				out = append(out, grammarQuery{fmt.Sprintf("%s %s %s", agg, a, v), a + " " + kinds[i]})
			}
			for _, g := range zipfGroupBy {
				out = append(out, grammarQuery{fmt.Sprintf("%s %s GROUPBY %s", agg, a, g), a + " GROUPBY " + g})
			}
		}
	}
	return out
}

// population is every grammar query in a seeded, stratified order; a
// query's position is its popularity rank. Its 888 distinct queries are
// nearly seven times the 128-entry default capacity of both engine caches,
// so entries are evicted.
//
// The j-th of a stratum's m queries, in a seeded order, takes position
// (j+0.5)/m, and equal positions are ordered by a seeded draw. Every
// stratum is thus spread evenly over the ranks, and every seed's popular
// head and rare tail mix the strata in the same proportions. With a plain
// shuffle, a seed that happened to rank a costly stratum high read p50
// about 10% and p99 about 50% above the other seeds' on repeated runs.
func population(seed uint64) []string {
	rng := rand.New(rand.NewPCG(seed, 0xbb67ae8584caa73b))
	var strata []string
	members := make(map[string][]string)
	for _, q := range grammar() {
		if members[q.stratum] == nil {
			strata = append(strata, q.stratum)
		}
		members[q.stratum] = append(members[q.stratum], q.text)
	}
	type placed struct {
		text     string
		pos, tie float64
	}
	var all []placed
	for _, s := range strata {
		qs := members[s]
		rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		for j, q := range qs {
			all = append(all, placed{q, (float64(j) + 0.5) / float64(len(qs)), rng.Float64()})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].pos != all[j].pos {
			return all[i].pos < all[j].pos
		}
		return all[i].tie < all[j].tie
	})
	out := make([]string, len(all))
	for i, p := range all {
		out[i] = p.text
	}
	return out
}

// zipfStream draws n ranks of a population of size pop, Zipf-skewed with
// exponent zipfS.
func zipfStream(seed uint64, n, pop int) []int {
	z := rand.NewZipf(rand.New(rand.NewPCG(seed, 0x3c6ef372fe94f82b)), zipfS, 1, uint64(pop-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// answerJSON mirrors one answer of POST /api/query.
type answerJSON struct {
	Description string     `json:"description"`
	SQL         string     `json:"sql"`
	Columns     []string   `json:"columns"`
	Rows        [][]string `json:"rows"`
}

// spanHeader carries the client's roundtrip span ("req/id") to the server.
const spanHeader = "X-Kwbench-Span"

// spanHandler times Server.ServeHTTP under a server.handler span, a child of
// the client span named in the request header.
type spanHandler struct {
	tr   *tracer
	next http.Handler
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req, id int64
	if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &req, &id); err != nil {
		h.next.ServeHTTP(w, r)
		return
	}
	_, s := h.tr.start(remoteParent(r.Context(), id, req), "server.handler")
	h.next.ServeHTTP(w, r)
	s.end()
}

// zipfRun is one serve-zipf run's state.
type zipfRun struct {
	o      *outcome
	tr     *tracer // nil until the traced phase
	eng    *kwagg.Engine
	url    string
	client *http.Client
	pop    []string
	stream []int
	// got[i] is the digest of the answers to request i of the stream.
	got  []answerDigest
	sent []bool
}

// post sends stream request i through the loopback HTTP client. With a
// trace, the request runs under a server.roundtrip span.
func (z *zipfRun) post(ctx context.Context, i int) error {
	ctx, s := z.tr.start(ctx, "server.roundtrip")
	defer s.end()
	body, err := json.Marshal(map[string]any{"q": z.pop[z.stream[i]], "k": answerK})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, z.url+"/api/query", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if s != nil {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", s.rec.Req, s.rec.ID))
	}
	resp, err := z.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%q: status %d: %s", z.pop[z.stream[i]], resp.StatusCode, bytes.TrimSpace(b))
	}
	// A partial answer arrives as an object, not an array, and fails here.
	var answers []answerJSON
	if err := json.Unmarshal(b, &answers); err != nil {
		return fmt.Errorf("%q: decoding answers: %w", z.pop[z.stream[i]], err)
	}
	out := make([]digestAnswer, len(answers))
	for j, a := range answers {
		out[j] = digestAnswer{desc: a.Description, sql: a.SQL, cols: a.Columns, rows: a.Rows}
	}
	z.got[i], z.sent[i] = digestAnswers(out), true
	return nil
}

// direct answers stream request i in-process, as the server's handler
// would: keyword.Parse (which every request pays for its cache key), then
// Engine.AnswerSetContext under a span named by the answer-cache outcome.
func (z *zipfRun) direct(ctx context.Context, i int) error {
	q := z.pop[z.stream[i]]
	ctx, root := z.tr.start(ctx, "request")
	defer root.end()
	_, s := z.tr.start(ctx, "keyword.parse")
	_, perr := keyword.Parse(q)
	s.end()
	if perr != nil {
		return perr
	}
	tctx, otr := obs.NewTrace(ctx)
	actx, s := z.tr.start(tctx, "kwagg.answer")
	set, err := z.eng.AnswerSetContext(actx, q, answerK)
	s.rename("kwagg.miss")
	for _, a := range otr.Annotations() {
		if a.Key == "answer_cache" && a.Value == "hit" {
			s.rename("kwagg.hit")
		}
	}
	s.end()
	if err != nil {
		return fmt.Errorf("%q: %w", q, err)
	}
	if set.Partial {
		return fmt.Errorf("%q: partial answer", q)
	}
	z.got[i], z.sent[i] = digestPublic(set.Answers), true
	return nil
}

// serveZipf serves Zipf-skewed keyword queries through server.Server behind
// httptest.NewServer at a fixed offered rate over at most two keep-alive
// connections, on the paper-cold TPCH instance with default engine options.
func serveZipf(cfg runConfig, o *outcome) error {
	o.facts["offered_rate"] = zipfRate
	z := &zipfRun{o: o}
	var ts *httptest.Server
	release := func() {
		if ts != nil {
			ts.Close()
		}
		ts, z.eng = nil, nil
	}
	defer release()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	setupTimes, err := timeSetup(reps, release, func() error {
		db := tpch.New(tpchConfig(cfg.seed))
		if cfg.trace {
			if err := traceSetupLayers(context.Background(), o.tr, db, nil); err != nil {
				return err
			}
		}
		pub, err := publicDB(db)
		if err != nil {
			return err
		}
		if z.eng, err = kwagg.Open(pub, &kwagg.Options{Chaos: cfg.chaos}); err != nil {
			return err
		}
		var h http.Handler = server.New(z.eng)
		if cfg.trace {
			h = spanHandler{tr: o.tr, next: h}
		}
		ts = httptest.NewServer(h)
		z.url, z.pop = ts.URL, population(cfg.seed)
		return nil
	})
	if err != nil {
		return err
	}
	client, dials, err := loopbackClient(zipfConns)
	if err != nil {
		return err
	}
	defer client.CloseIdleConnections()
	z.client = client

	window, phases := cfg.seconds, 1
	if cfg.trace {
		window, phases = window/2, 2
	}
	n := int(zipfRate * window.Seconds())
	z.stream = zipfStream(cfg.seed, zipfWarm+phases*n, len(z.pop))
	z.got, z.sent = make([]answerDigest, len(z.stream)), make([]bool, len(z.stream))
	ctx := context.Background()
	post := func(i int) error { return z.post(ctx, i) }
	// The first zipfWarm draws, sent back to back, fill the caches with
	// their steady-state working set before timing starts.
	if _, _, _, err := z.send(0, zipfWarm, math.Inf(1), "warm-up", post); err != nil {
		return err
	}
	before := readCounters(z.eng)
	lat, late, elapsed, err := z.send(zipfWarm, n, zipfRate, "timed", post)
	if err != nil {
		return err
	}
	after := readCounters(z.eng)
	o.facts["requests"] = lat.n()
	var tlat samples
	if cfg.trace {
		z.tr = o.tr
		// Even requests take the HTTP leg, odd ones the in-process leg.
		if tlat, _, _, err = z.send(zipfWarm+n, n, zipfRate, "traced", func(i int) error {
			if i%2 == 0 {
				return z.post(ctx, i)
			}
			return z.direct(ctx, i)
		}); err != nil {
			return err
		}
		o.facts["traced_requests"] = tlat.n()
	}
	o.facts["connections"] = dials.Load()
	if dials.Load() > zipfConns {
		return fmt.Errorf("client opened %d connections, more than %d", dials.Load(), zipfConns)
	}
	if cfg.trace {
		setCacheMetrics(&o.m, before, after)
		setLateness(&o.m, &late)
		setLayerMetrics(&o.m, o.tr, &o.counts)
		setOverhead(&o.m, &lat, &tlat)
		release()
		return z.check(cfg.seed)
	}
	setSetup(&o.m, &setupTimes)
	if err := setLatency(&o.m, &lat); err != nil {
		return err
	}
	o.m.set("qps", float64(lat.n())/elapsed.Seconds(), "1/s",
		fmt.Sprintf("%d completed in %.3f s at %d/s offered", lat.n(), elapsed.Seconds(), zipfRate))
	if err := z.check(cfg.seed); err != nil {
		return err
	}
	// heap_mb counts the engine and the server alone: the benchmark's stream
	// and answer digests are dropped first, and the settling queries leave
	// the same entries in the caches and the memo on every run.
	z.stream, z.got, z.sent = nil, nil, nil
	z.settle(ctx)
	o.m.set("heap_mb", heapMB(), "MB", fmt.Sprintf("after GC and the %d settling queries, engine and server live", settleQueries))
	release()
	return commitProbe(cfg, o)
}

// settleQueries is how many grammar queries, in grammar order, end an
// untimed run before heap_mb is read: twice the cache capacity, so both
// caches and the memo hold the same queries' entries in every run.
const settleQueries = 256

// settle answers the first settleQueries grammar queries in order.
func (z *zipfRun) settle(ctx context.Context) {
	for _, gq := range grammar()[:settleQueries] {
		q := gq.text
		z.o.attempted++
		if _, err := z.eng.AnswerContext(ctx, q, answerK); err != nil {
			z.o.fail("settling %q: %v", q, err)
		}
	}
}

// send runs stream requests from..from+n-1 through openLoop at rate and
// counts them, labelling failures.
func (z *zipfRun) send(from, n int, rate float64, label string, req func(i int) error) (lat, late samples, elapsed time.Duration, err error) {
	lat, late, elapsed, fails, err := openLoop(zipfConns, n, rate, func(i int) error { return req(from + i) })
	z.o.attempted += int64(lat.n())
	for _, e := range fails {
		z.o.fail("%s %v", label, e)
	}
	return lat, late, elapsed, err
}

// check compares every answered request with the answer of an engine
// without the interpretation and answer caches over the same data,
// generated again from the seed.
func (z *zipfRun) check(seed uint64) error {
	pub, err := publicDB(tpch.New(tpchConfig(seed)))
	if err != nil {
		return err
	}
	ref, err := kwagg.Open(pub, &kwagg.Options{CacheSize: -1})
	if err != nil {
		return err
	}
	want := make(map[int]answerDigest)
	for i, ok := range z.sent {
		if !ok {
			continue
		}
		q := z.stream[i]
		d, seen := want[q]
		if !seen {
			ans, err := ref.AnswerContext(context.Background(), z.pop[q], answerK)
			if err != nil {
				z.o.fail("reference %q: %v", z.pop[q], err)
				continue
			}
			d = digestPublic(ans)
			want[q] = d
		}
		if z.got[i] != d {
			z.o.fail("%q: served answer differs from the caches-off engine's", z.pop[q])
		}
	}
	z.o.facts["distinct_queries"] = len(want)
	return nil
}
