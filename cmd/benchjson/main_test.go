package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func bench(name string, procs int, rows float64) Benchmark {
	b := Benchmark{Name: name, Procs: procs, NsPerOp: 1}
	if rows > 0 {
		b.Metrics = map[string]float64{rowsPerSec: rows}
	}
	return b
}

func TestParseBenchRowsMetric(t *testing.T) {
	line := "BenchmarkKernelFilter/sharded-4   1318   905143 ns/op   291227050 rows/s   76 B/op    2 allocs/op"
	b, ok := parseBench(line)
	if !ok {
		t.Fatalf("parseBench rejected %q", line)
	}
	if b.Name != "KernelFilter/sharded" || b.Procs != 4 {
		t.Fatalf("parsed %q procs=%d", b.Name, b.Procs)
	}
	if b.NsPerOp != 905143 || b.Metrics[rowsPerSec] != 291227050 {
		t.Fatalf("parsed ns=%v metrics=%v", b.NsPerOp, b.Metrics)
	}
	if b.AllocsPerOp == nil || *b.AllocsPerOp != 2 {
		t.Fatalf("parsed allocs=%v", b.AllocsPerOp)
	}
}

func TestCompareReports(t *testing.T) {
	base := Report{Benchmarks: []Benchmark{
		bench("KernelFilter/batch", 1, 100e6),
		bench("KernelFilter/sharded", 4, 300e6),
		bench("KernelJoinProbe/batch", 1, 50e6),
		bench("Parse", 1, 0), // no rows/s: not part of the gate
	}}

	t.Run("within tolerance passes", func(t *testing.T) {
		fresh := Report{Benchmarks: []Benchmark{
			bench("KernelFilter/batch", 1, 80e6),    // -20%
			bench("KernelFilter/sharded", 4, 320e6), // improved
			bench("KernelJoinProbe/batch", 1, 50e6),
			bench("KernelNew/batch", 1, 1e6), // fresh-only: ignored
		}}
		lines, failures := compareReports(base, fresh, 0.25)
		if len(failures) != 0 {
			t.Fatalf("unexpected failures: %v", failures)
		}
		if len(lines) != 3 {
			t.Fatalf("compared %d benchmarks, want 3: %v", len(lines), lines)
		}
	})

	t.Run("regression beyond tolerance fails", func(t *testing.T) {
		fresh := Report{Benchmarks: []Benchmark{
			bench("KernelFilter/batch", 1, 70e6), // -30%
			bench("KernelFilter/sharded", 4, 300e6),
			bench("KernelJoinProbe/batch", 1, 50e6),
		}}
		_, failures := compareReports(base, fresh, 0.25)
		if len(failures) != 1 || !strings.Contains(failures[0], "KernelFilter/batch") {
			t.Fatalf("failures = %v", failures)
		}
	})

	t.Run("missing benchmark fails", func(t *testing.T) {
		fresh := Report{Benchmarks: []Benchmark{
			bench("KernelFilter/batch", 1, 100e6),
			bench("KernelFilter/sharded", 4, 300e6),
		}}
		_, failures := compareReports(base, fresh, 0.25)
		if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
			t.Fatalf("failures = %v", failures)
		}
	})

	t.Run("same name different procs are distinct", func(t *testing.T) {
		fresh := Report{Benchmarks: []Benchmark{
			bench("KernelFilter/batch", 1, 100e6),
			bench("KernelFilter/sharded", 1, 100e6), // procs=1, not the baseline's 4
			bench("KernelJoinProbe/batch", 1, 50e6),
		}}
		_, failures := compareReports(base, fresh, 0.25)
		if len(failures) != 1 || !strings.Contains(failures[0], "procs=4") {
			t.Fatalf("failures = %v", failures)
		}
	})
}

// benchRun is the text `go test -bench -benchmem` prints for two kernel
// benchmarks, with the header lines run copies into the report.
const benchRun = `goos: linux
goarch: amd64
pkg: kwagg/internal/sqldb
cpu: Test CPU @ 2.00GHz
BenchmarkKernelFilter/batch         1000   1000000 ns/op   100000000 rows/s   64 B/op   1 allocs/op
BenchmarkKernelFilter/sharded-4     1000    300000 ns/op   300000000 rows/s   96 B/op   2 allocs/op
PASS
ok  	kwagg/internal/sqldb	2.345s
`

// runBench runs the command on stdin with args and returns its exit status,
// stdout and stderr.
func runBench(t *testing.T, stdin string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr strings.Builder
	code := run(args, strings.NewReader(stdin), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// writeBaseline writes rep as a baseline document into a temporary directory.
func writeBaseline(t *testing.T, rep Report) string {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunWritesReport pins the parse → JSON path: header lines fill the
// report's hardware fields, every result line becomes one entry tagged with
// its package, and the rest of the output is ignored.
func TestRunWritesReport(t *testing.T) {
	code, out, errOut := runBench(t, benchRun)
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("stdout is not a report: %v\n%s", err, out)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Test CPU @ 2.00GHz" {
		t.Fatalf("header fields: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[1]
	if b.Name != "KernelFilter/sharded" || b.Procs != 4 || b.Package != "kwagg/internal/sqldb" ||
		b.Metrics[rowsPerSec] != 300e6 || b.BytesPerOp == nil || *b.BytesPerOp != 96 {
		t.Fatalf("second benchmark: %+v", b)
	}
}

// TestRunExitStatus pins every exit of the command: the -compare gate's
// pass, regression and missing-entry verdicts, a baseline that cannot be
// read, input without results, unreadable input and bad flags. The JSON
// document reaches stdout whenever the input parsed, gate verdict aside.
func TestRunExitStatus(t *testing.T) {
	baseline := writeBaseline(t, Report{Benchmarks: []Benchmark{
		bench("KernelFilter/batch", 1, 100e6),
		bench("KernelFilter/sharded", 4, 300e6),
	}})
	slow := writeBaseline(t, Report{Benchmarks: []Benchmark{
		bench("KernelFilter/batch", 1, 200e6), // the run reads 50% below
		bench("KernelFilter/sharded", 4, 300e6),
	}})
	missing := writeBaseline(t, Report{Benchmarks: []Benchmark{
		bench("KernelFilter/batch", 1, 100e6),
		bench("KernelJoinProbe/batch", 1, 50e6), // not in the run
	}})
	garbled := filepath.Join(t.TempDir(), "garbled.json")
	if err := os.WriteFile(garbled, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, stdin string
		args        []string
		code        int
		json        bool
		stderr      string
	}{
		{"compare passes", benchRun, []string{"-compare", baseline}, 0, true, "no regressions"},
		{"loose tolerance passes", benchRun, []string{"-compare", slow, "-tolerance", "0.6"}, 0, true, "no regressions"},
		{"regression fails", benchRun, []string{"-compare", slow}, 1, true, "1 regression(s)"},
		{"missing entry fails", benchRun, []string{"-compare", missing}, 1, true, "missing from this run"},
		{"absent baseline", benchRun, []string{"-compare", filepath.Join(t.TempDir(), "none.json")}, 1, true, "loading baseline"},
		{"garbled baseline", benchRun, []string{"-compare", garbled}, 1, true, "loading baseline"},
		{"no results", "PASS\nok  \tkwagg\t0.1s\n", nil, 1, false, "no benchmark result lines"},
		{"overlong line", strings.Repeat("x", 2<<20), nil, 1, false, "reading stdin"},
		{"bad flag", benchRun, []string{"-tolerance", "lots"}, 2, false, "invalid value"},
		{"help", benchRun, []string{"-h"}, 0, false, "Usage of benchjson"},
	} {
		t.Run(c.name, func(t *testing.T) {
			code, out, errOut := runBench(t, c.stdin, c.args...)
			if code != c.code || !strings.Contains(errOut, c.stderr) {
				t.Fatalf("exit %d, stderr %q; want exit %d with %q", code, errOut, c.code, c.stderr)
			}
			if got := json.Valid([]byte(out)) && out != ""; got != c.json {
				t.Fatalf("stdout holds a report = %v, want %v:\n%s", got, c.json, out)
			}
		})
	}
}
