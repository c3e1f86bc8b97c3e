// Command kwbench is the kwagg benchmark: three workloads that each measure
// the system end to end, check every answer, and, in a separate traced run,
// split the time by layer. See README.md for the workloads, the metrics and
// how to read a traced run.
//
//	kwbench --workload paper-cold --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"kwagg/internal/chaos"
)

// endToEnd lists the metrics an untraced run reports, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"qps", "1/s"},
	{"heap_mb", "MB"},
	{"commit_p50_ms", "ms"},
	{"commit_p90_ms", "ms"},
}

// perLayer lists the metrics a traced run reports.
var perLayer = []string{
	"keyword.parse_us",
	"match.term_us", "match.tags_per_term",
	"pattern.generate_us", "pattern.patterns_per_query",
	"translate.stmt_us",
	"sqldb.stmt_us", "sqldb.rows_per_stmt", "sqldb.shard_runs_per_stmt", "sqldb.memo_hit_ratio",
	"core.execute_ms", "core.parallelism", "core.retries", "core.failed_stmts",
	"core.ingest_us_per_row", "core.commit_ms", "kwagg.epoch_fold_ms",
	"relation.extend_ms", "relation.reused_blocks_per_commit",
	"normalize.view_ms", "orm.build_ms", "planck.new_ms",
	"relation.freeze_ms", "relation.index_ms",
	"qcache.interp_hit_ratio", "qcache.answer_hit_ratio", "qcache.evictions", "qcache.collapsed",
	"kwagg.hit_us", "kwagg.miss_ms",
	"server.handler_us", "server.roundtrip_us",
	"loadgen.late_p99_ms", "trace.overhead_ratio",
}

// setupReps is how many times an untraced run sets its workload up from the
// seed; setup_s is the median, and the last setup serves the timed phase.
const setupReps = 5

// answerK is the number of interpretations every request executes.
const answerK = 3

type runConfig struct {
	seed     uint64
	seconds  time.Duration
	trace    bool
	traceDir string
	// chaos is installed on every engine the run opens; only the
	// sensitivity self-test sets it.
	chaos chaos.Injector
}

// outcome is what one run produced.
type outcome struct {
	attempted, failed int64
	checks            []string // correctness failures, first few
	m                 metrics
	facts             map[string]any
	tr                *tracer
	counts            layerCounts
}

// fail counts one failed operation and keeps its message.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.checks) < 10 {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) correct() bool { return o.failed == 0 }

var workloads = map[string]func(runConfig, *outcome) error{
	"paper-cold":  paperCold,
	"serve-zipf":  serveZipf,
	"ingest-live": ingestLive,
}

func main() {
	var (
		workload string
		seed     uint64
		seconds  int
		traced   int
		cfg      runConfig
	)
	flag.StringVar(&workload, "workload", "", "workload to run: paper-cold, serve-zipf or ingest-live")
	flag.Uint64Var(&seed, "seed", 42, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 30, "seconds the run measures")
	flag.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()
	cfg.seed, cfg.seconds, cfg.trace = seed, time.Duration(seconds)*time.Second, traced == 1
	o, err := run(workload, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kwbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "kwbench:", err)
		os.Exit(1)
	}
	if !o.correct() {
		os.Exit(1)
	}
}

// run executes one workload and checks that it reported every metric the
// mode requires.
func run(workload string, cfg runConfig) (*outcome, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if cfg.seconds < 2*time.Second {
		return nil, errors.New("--seconds must be at least 2")
	}
	o := &outcome{facts: hostFacts()}
	o.facts["workload"], o.facts["seed"], o.facts["seconds"], o.facts["trace"] =
		workload, cfg.seed, cfg.seconds.Seconds(), cfg.trace
	if cfg.trace {
		o.tr = newTracer()
	}
	if err := fn(cfg, o); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	if cfg.trace {
		path, err := o.tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, cfg.seed))
		if err != nil {
			return nil, err
		}
		o.facts["trace_file"] = path
	}
	for _, name := range expected(cfg.trace) {
		if _, ok := o.m.get(name); !ok {
			return nil, fmt.Errorf("%s: metric %s was not reported", workload, name)
		}
	}
	return o, nil
}

func expected(trace bool) []string {
	if trace {
		return perLayer
	}
	names := make([]string, len(endToEnd))
	for i, e := range endToEnd {
		names[i] = e.name
	}
	return names
}

// hostFacts records the machine and toolchain the figures were measured on.
func hostFacts() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name from /proc/cpuinfo (Linux only).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// report prints the readable account of the run — facts, every metric with
// its base, the fail ratio and any correctness failures — and then the
// result object as the last line.
func report(w io.Writer, cfg runConfig, o *outcome) error {
	facts, err := json.Marshal(o.facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "facts %s\n", facts)
	for _, x := range o.m.list {
		fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", x.name, x.value, x.unit, x.base)
	}
	fmt.Fprintf(w, "%-36s %14.6g %-6s %s\n", "fail_ratio",
		ratio{float64(o.failed), float64(o.attempted)}.value(), "ratio", fmt.Sprintf("%d/%d", o.failed, o.attempted))
	for _, c := range o.checks {
		fmt.Fprintf(w, "FAILED %s\n", c)
	}
	res := jsonResult{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]jsonMetric{}}
	names := expected(cfg.trace)
	sort.Strings(names)
	for _, name := range names {
		x, _ := o.m.get(name)
		res.Metrics[name] = jsonMetric{Value: x.value, Unit: x.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
