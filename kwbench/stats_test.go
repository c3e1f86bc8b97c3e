package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) *samples {
	s := &samples{}
	for i := n; i >= 1; i-- { // unsorted on purpose
		s.add(float64(i))
	}
	return s
}

func TestQuantileIsNearestRankWithTailCount(t *testing.T) {
	s := seq(100)
	for _, c := range []struct {
		q      float64
		v      float64
		beyond int
		ok     bool
	}{
		{0.5, 50, 50, true},
		{0.9, 90, 10, true},
		{0.91, 91, 9, false},
		{0.99, 99, 1, false},
		{1, 100, 0, false},
		{0, 1, 99, true},
	} {
		v, beyond, ok := s.quantile(c.q)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("quantile(%g) = %g, %d beyond, ok=%v; want %g, %d, %v", c.q, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	if _, _, ok := (&samples{}).quantile(0.5); ok {
		t.Error("quantile of no samples is supported")
	}
}

// A percentile is printed only with at least ten samples beyond it: p99
// needs 1000 samples, so a run with 999 requests fails instead of printing
// an unsupported p99.
func TestP99NeedsTenSamplesBeyond(t *testing.T) {
	var m metrics
	if err := m.setQuantile("p99_ms", seq(999), 0.99, "ms"); err == nil {
		t.Fatal("p99 of 999 samples was accepted")
	}
	if _, ok := m.get("p99_ms"); ok {
		t.Fatal("unsupported p99 was recorded")
	}
	if err := m.setQuantile("p99_ms", seq(1000), 0.99, "ms"); err != nil {
		t.Fatal(err)
	}
	x, _ := m.get("p99_ms")
	if x.value != 990 || x.unit != "ms" || x.base != "n=1000, 10 beyond" {
		t.Errorf("p99 of 1..1000 = %+v", x)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	q, v, ok := seq(200).highestSupported(0.5, 0.99, 0.9)
	if !ok || q != 0.9 || v != 180 {
		t.Errorf("highestSupported over 200 samples = p%g %g %v, want p90 180", q*100, v, ok)
	}
	if _, _, ok := seq(15).highestSupported(0.9, 0.99); ok {
		t.Error("15 samples support p90")
	}
}

func TestRatiosCarryTheirBase(t *testing.T) {
	var m metrics
	m.setRatio("qcache.answer_hit_ratio", ratio{3, 4})
	m.setRatio("sqldb.memo_hit_ratio", ratio{0, 0})
	if x, _ := m.get("qcache.answer_hit_ratio"); x.value != 0.75 || x.unit != "ratio" || x.base != "3/4" {
		t.Errorf("3 of 4 = %+v", x)
	}
	if x, _ := m.get("sqldb.memo_hit_ratio"); x.value != 0 || x.base != "0/0" {
		t.Errorf("nothing attempted = %+v", x)
	}
	var s samples
	s.add(2)
	s.add(4)
	m.setMean("match.tags_per_term", &s, "count")
	if x, _ := m.get("match.tags_per_term"); x.value != 3 || x.base != "n=2" {
		t.Errorf("mean of 2 and 4 = %+v", x)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []spanRecord{
		{ID: 1, Req: 1, Name: "core.execute", Start: 0, End: 10 * ms},
		// Two overlapping children cover [1ms, 6ms); one runs past the
		// parent's end and counts only up to it.
		{ID: 2, Parent: 1, Req: 1, Name: "sqldb.stmt", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Req: 1, Name: "sqldb.stmt", Start: 2 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Req: 1, Name: "sqldb.stmt", Start: 9 * ms, End: 12 * ms},
	}
	sum := summarize(spans)
	if got := sum["core.execute"].self.xs[0]; got != 4000 {
		t.Errorf("core.execute self = %gus, want 4000us", got)
	}
	if got := sum["sqldb.stmt"].self.sum(); got != 10000 {
		t.Errorf("sqldb.stmt self total = %gus, want 10000us", got)
	}
}

func TestTracerNestsSpansByContext(t *testing.T) {
	tr := newTracer()
	ctx, root := tr.start(context.Background(), "request")
	_, child := tr.start(ctx, "keyword.parse")
	child.end()
	root.end()
	_, other := tr.start(context.Background(), "request")
	other.end()
	recs := tr.records()
	if len(recs) != 3 {
		t.Fatalf("%d spans recorded", len(recs))
	}
	byID := map[int64]spanRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	c := byID[child.rec.ID]
	if c.Parent != root.rec.ID || c.Req != root.rec.Req || other.rec.Req == root.rec.Req {
		t.Errorf("child %+v of root %+v; other request %+v", c, root.rec, other.rec)
	}
	var none *tracer
	if _, s := none.start(context.Background(), "x"); s != nil || s.end() != 0 {
		t.Error("nil tracer recorded a span")
	}
}

// BENCHMARK.json and the metric lists the program reports must agree.
func TestBenchmarkJSONListsReportedMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program reports %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, e := range spec.EndToEnd {
		if e.Name != endToEnd[i].name || e.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s %s, program reports %s %s", i, e.Name, e.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s bound %g outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program reports %d", len(spec.PerLayer), len(perLayer))
	}
	for i, l := range spec.PerLayer {
		if l.Name != perLayer[i] {
			t.Errorf("per_layer[%d] = %s, program reports %s", i, l.Name, perLayer[i])
		}
		if !strings.Contains(l.Name+"_", "_"+l.Unit+"_") && l.Unit != "ratio" && l.Unit != "count" {
			t.Errorf("%s has unit %s", l.Name, l.Unit)
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}
