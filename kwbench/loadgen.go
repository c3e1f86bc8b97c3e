package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kwagg"
	"kwagg/internal/qcache"
)

// checkLoad enforces the load generator's budget: never more goroutines or
// connections issuing load than the machine has processors.
func checkLoad(what string, n int) error {
	if n > runtime.NumCPU() {
		return fmt.Errorf("load generator would use %d %s, more than nproc=%d", n, what, runtime.NumCPU())
	}
	return nil
}

// heapMB is the live heap after a full collection, in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// timeSetup runs build reps times and returns the per-run seconds. Before
// each run, untimed, release drops what the previous run built and a
// collection frees it, so every run starts from the same heap.
func timeSetup(reps int, release func(), build func() error) (samples, error) {
	var s samples
	for r := 0; r < reps; r++ {
		release()
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return s, err
		}
		s.addDur(time.Since(start), time.Second)
	}
	return s, nil
}

// setSetup reports the median setup time with its repetition count.
func setSetup(m *metrics, s *samples) {
	v, _, _ := s.quantile(0.5)
	m.set("setup_s", v, "s", fmt.Sprintf("median of %d setups", s.n()))
}

// setLatency reports p50 and p99 of request latencies in milliseconds. A run
// with too few requests for p99 fails.
func setLatency(m *metrics, lat *samples) error {
	if err := m.setQuantile("p50_ms", lat, 0.50, "ms"); err != nil {
		return err
	}
	return m.setQuantile("p99_ms", lat, 0.99, "ms")
}

// openLoop sends n requests on a fixed schedule — request i is due at
// start + i/rate — from `workers` goroutines. A request's latency runs from
// its due time, so a stall also charges the requests queued behind it;
// lateness is how far after its due time each request was sent. elapsed runs
// from the first due time to the last completion.
func openLoop(workers, n int, rate float64, send func(i int) error) (lat, late samples, elapsed time.Duration, failures []error, err error) {
	if err := checkLoad("goroutines", workers); err != nil {
		return lat, late, 0, nil, err
	}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now().Add(10 * time.Millisecond)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				serr := send(i)
				done := time.Now()
				mu.Lock()
				lat.addDur(done.Sub(due), time.Millisecond)
				late.addDur(sent.Sub(due), time.Millisecond)
				if serr != nil {
					failures = append(failures, serr)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return lat, late, time.Since(start), failures, nil
}

// loopbackClient is an HTTP client limited to `conns` keep-alive
// connections; dials counts the connections it opened.
func loopbackClient(conns int) (*http.Client, *atomic.Int64, error) {
	if err := checkLoad("connections", conns); err != nil {
		return nil, nil, err
	}
	dials := new(atomic.Int64)
	d := &net.Dialer{}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
	}
	return &http.Client{Transport: tr}, dials, nil
}

// cacheCounters is a snapshot of an engine's cache and memo counters.
type cacheCounters struct {
	interp, answer       qcache.Stats
	memoHits, memoMisses uint64
}

func readCounters(e *kwagg.Engine) cacheCounters {
	reg := e.Metrics()
	return cacheCounters{
		interp:     e.CacheStats(),
		answer:     e.AnswerCacheStats(),
		memoHits:   reg.Counter("kwagg_memo_hits_total", "").Value(),
		memoMisses: reg.Counter("kwagg_memo_misses_total", "").Value(),
	}
}

// setCacheMetrics reports the cache and memo counters' growth between two
// snapshots. A lookup is a hit, a miss or a collapse onto a concurrent
// computation; the hit ratios are hits over lookups.
func setCacheMetrics(m *metrics, before, after cacheCounters) {
	hitRatio := func(b, a qcache.Stats) ratio {
		hits := float64(a.Hits - b.Hits)
		return ratio{hits, hits + float64(a.Misses-b.Misses) + float64(a.Collapsed-b.Collapsed)}
	}
	m.setRatio("qcache.interp_hit_ratio", hitRatio(before.interp, after.interp))
	m.setRatio("qcache.answer_hit_ratio", hitRatio(before.answer, after.answer))
	ie, ae := after.interp.Evictions-before.interp.Evictions, after.answer.Evictions-before.answer.Evictions
	m.set("qcache.evictions", float64(ie+ae), "count", fmt.Sprintf("interpretation=%d answer=%d", ie, ae))
	ic, ac := after.interp.Collapsed-before.interp.Collapsed, after.answer.Collapsed-before.answer.Collapsed
	m.set("qcache.collapsed", float64(ic+ac), "count", fmt.Sprintf("interpretation=%d answer=%d", ic, ac))
	hits := float64(after.memoHits - before.memoHits)
	m.setRatio("sqldb.memo_hit_ratio", ratio{hits, hits + float64(after.memoMisses-before.memoMisses)})
}

// setOverhead reports the traced run's p50 over the untraced run's.
func setOverhead(m *metrics, untraced, traced *samples) {
	u, _, _ := untraced.quantile(0.5)
	t, _, _ := traced.quantile(0.5)
	m.set("trace.overhead_ratio", ratio{t, u}.value(), "ratio",
		fmt.Sprintf("traced p50 %.4g ms (n=%d) / untraced p50 %.4g ms (n=%d)", t, traced.n(), u, untraced.n()))
}

// setLateness reports how late the load generator sent, at p99 or, for a
// short schedule, at the highest percentile with ten samples beyond it.
func setLateness(m *metrics, late *samples) {
	q, v, ok := late.highestSupported(0.99, 0.9, 0.5)
	base := fmt.Sprintf("p%g of n=%d", q*100, late.n())
	if !ok {
		v, _, _ = late.quantile(0.99)
		base = fmt.Sprintf("n=%d, too few for a supported tail", late.n())
	}
	m.set("loadgen.late_p99_ms", v, "ms", base)
}
