package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"kwagg/internal/chaos"
)

// fixedDelay is a chaos.Injector that adds the same latency before every
// statement execution attempt and injects no faults: a deliberately slowed
// stage between core's worker pool and the statement executor.
type fixedDelay time.Duration

func (fixedDelay) Fault(chaos.Point, string) error { return nil }

func (d fixedDelay) Delay(p chaos.Point) time.Duration {
	if p == chaos.PointStatement {
		return time.Duration(d)
	}
	return 0
}

func e2eBound(t *testing.T, name string) float64 {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string
			Bound float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, e := range spec.EndToEnd {
		if e.Name == name {
			return e.Bound
		}
	}
	t.Fatalf("BENCHMARK.json has no %s", name)
	return 0
}

// A slowed stage is caught and attributed: a fixed 3ms delay before every
// statement pushes paper-cold's p50_ms past its bound, and the traced run
// puts the added time in core.execute's self time, not in sqldb.stmt_us.
// The thresholds leave room for the host's own run-to-run drift: the delay
// would add 3000us to every statement span if it were misattributed.
func TestSensitivityStatementDelayIsCaughtAndAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs paper-cold four times")
	}
	const delay = 3 * time.Millisecond
	paper := func(inj chaos.Injector, traced bool, seconds time.Duration) metrics {
		t.Helper()
		o, err := run("paper-cold", runConfig{seed: 3, seconds: seconds, trace: traced, traceDir: t.TempDir(), chaos: inj})
		if err != nil {
			t.Fatal(err)
		}
		if !o.correct() {
			t.Fatalf("paper-cold failed its checks: %v", o.checks)
		}
		return o.m
	}
	value := func(m metrics, name string) float64 {
		x, ok := m.get(name)
		if !ok {
			t.Fatalf("no %s", name)
		}
		return x.value
	}

	base, slow := paper(nil, false, 30*time.Second), paper(fixedDelay(delay), false, 30*time.Second)
	bound := e2eBound(t, "p50_ms")
	b, s := value(base, "p50_ms"), value(slow, "p50_ms")
	t.Logf("p50_ms %.3f -> %.3f with a %v statement delay (bound %g)", b, s, delay, bound)
	if s <= b*(1+bound) {
		t.Errorf("p50_ms %.3f -> %.3f stays within the %g bound", b, s, bound)
	}

	tBase, tSlow := paper(nil, true, 8*time.Second), paper(fixedDelay(delay), true, 8*time.Second)
	execGain := value(tSlow, "core.execute_ms") - value(tBase, "core.execute_ms")
	stmtGain := value(tSlow, "sqldb.stmt_us") - value(tBase, "sqldb.stmt_us")
	t.Logf("core.execute self +%.3f ms, sqldb.stmt +%.1f us", execGain, stmtGain)
	if execGain < delay.Seconds()*1e3/2 {
		t.Errorf("core.execute self time grew %.3f ms, want at least half the %v delay", execGain, delay)
	}
	if stmtGain > float64(delay/time.Microsecond)/2 {
		t.Errorf("sqldb.stmt_us grew %.1f us: the delay leaked into the statement spans", stmtGain)
	}
}
