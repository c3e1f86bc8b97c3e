// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark runs can be committed (see
// BENCH_PR4.json, BENCH_PR7.json) and archived as CI artifacts without
// scraping ad-hoc text.
//
//	go test -run '^$' -bench . -benchmem ./internal/sqldb/ | go run ./cmd/benchjson
//
// With -compare, the parsed run is additionally checked against a committed
// baseline document: every baseline benchmark carrying a rows/s metric must
// appear in the fresh run and must not fall more than -tolerance (default
// 0.25, i.e. 25%) below its baseline throughput, or benchjson exits 1 after
// printing the per-benchmark comparison to stderr. The JSON still goes to
// stdout either way, so one invocation both gates and produces the artifact:
//
//	go test -run '^$' -bench Kernel -benchmem -cpu 1,4 ./internal/sqldb/ | \
//	    go run ./cmd/benchjson -compare BENCH_PR7.json > BENCH_CURRENT.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark's name without the trailing -GOMAXPROCS suffix,
	// e.g. "HashJoin3Way/encoded".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS the run used (the -N suffix; 1 when absent).
	Procs      int     `json:"procs"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only with -benchmem.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other (value, unit) pair on the line — custom
	// b.ReportMetric units such as "rows/s", which the testing package
	// prints between ns/op and the -benchmem columns.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level document.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// parseBench parses one `BenchmarkX-N  iters  v unit  v unit ...` result
// line generically: after the iteration count, the line is (value, unit)
// pairs in whatever order and number the run produced. Well-known units land
// in their dedicated fields; everything else goes to Metrics.
func parseBench(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Benchmark{}, false
	}
	b := Benchmark{Name: strings.TrimPrefix(f[0], "Benchmark"), Procs: 1}
	if i := strings.LastIndex(b.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = iters
	sawNs := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp, sawNs = v, true
		case "B/op":
			n := int64(v)
			b.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			b.AllocsPerOp = &n
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = v
		}
	}
	return b, sawNs
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, converts the benchmark text on
// stdin to JSON on stdout, runs the -compare gate, and returns the exit
// status (0 ok or -h, 1 no results, unreadable input or a failed gate, 2
// bad flags).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	compare := fs.String("compare", "",
		"baseline benchjson document; exit 1 when any of its rows/s benchmarks regresses or disappears")
	tolerance := fs.Float64("tolerance", 0.25,
		"allowed fractional rows/s drop below the -compare baseline before failing")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	rep := Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		}
		if b, ok := parseBench(line); ok {
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "benchjson: reading stdin:", err)
		return 1
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(stderr, "benchjson: no benchmark result lines on stdin")
		return 1
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 1
	}
	if *compare == "" {
		return 0
	}
	base, err := loadReport(*compare)
	if err != nil {
		fmt.Fprintln(stderr, "benchjson: loading baseline:", err)
		return 1
	}
	lines, failures := compareReports(base, rep, *tolerance)
	fmt.Fprintf(stderr, "benchjson: comparing %d rows/s benchmarks against %s (tolerance %.0f%%)\n",
		len(lines), *compare, 100**tolerance)
	for _, l := range lines {
		fmt.Fprintln(stderr, "  "+l)
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "benchjson: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(stderr, "  "+f)
		}
		return 1
	}
	fmt.Fprintln(stderr, "benchjson: no regressions")
	return 0
}
