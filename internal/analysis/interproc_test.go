package analysis

import (
	"os"
	"path/filepath"
	"testing"
)

// checkFixture type-checks one testdata file under the given import path and
// runs the analyzers over it, exactly like check() does for inline sources.
func checkFixture(t *testing.T, importPath, file string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatalf("fixture %s: %v", file, err)
	}
	return check(t, importPath, string(src), analyzers...)
}

func TestSnapshotFixtures(t *testing.T) {
	diags := checkFixture(t, "kwagg/internal/server", "snapshot_violating.go", Snapshot())
	wantDiag(t, diags, "snapshot", "server.(*engine).handle acquires the kwagg/internal/server.engine.cur snapshot 2 times")
	wantDiag(t, diags, "snapshot", "server.(*engine).handleVia acquires")
	wantDiag(t, diags, "snapshot", "server.(*engine).handleLoop acquires")
	if len(diags) != 3 {
		t.Fatalf("want exactly 3 snapshot findings, got %v", diags)
	}
	wantNone(t, checkFixture(t, "kwagg/internal/server", "snapshot_allowed.go", Snapshot()))
}

func TestSnapshotUncheckedPackageIsExempt(t *testing.T) {
	// The same double read outside the checked package set only contributes
	// call-graph summaries; it is not reported.
	src, err := os.ReadFile(filepath.Join("testdata", "snapshot_violating.go"))
	if err != nil {
		t.Fatal(err)
	}
	wantNone(t, check(t, "kwagg/internal/qcache", string(src), Snapshot()))
}

func TestCowSafetyFixtures(t *testing.T) {
	diags := checkFixture(t, "kwagg/internal/sqldb", "cowsafety_violating.go", CowSafety())
	wantDiag(t, diags, "cowsafety", "element write on storage reachable from frozen relation state in sqldb.clobberKey")
	wantDiag(t, diags, "cowsafety", "append into on storage reachable from frozen relation state in sqldb.growKey")
	wantDiag(t, diags, "cowsafety", "passing to sqldb.stamp (which writes through parameter 0)")
	wantNone(t, checkFixture(t, "kwagg/internal/sqldb", "cowsafety_allowed.go", CowSafety()))
}

func TestCowSafetyDeltaSeamIsExempt(t *testing.T) {
	// The identical writes inside the relation package itself are the delta
	// seam the rule protects, not a violation of it.
	src, err := os.ReadFile(filepath.Join("testdata", "cowsafety_violating.go"))
	if err != nil {
		t.Fatal(err)
	}
	wantNone(t, check(t, "kwagg/internal/relation", string(src), CowSafety()))
}

func TestLockLastFixtures(t *testing.T) {
	diags := checkFixture(t, "kwagg/internal/core", "locklast_violating.go", LockLast())
	wantDiag(t, diags, "locklast", "inconsistent lock order")
	wantDiag(t, diags, "locklast", "channel receive while holding kwagg/internal/core.pair.a")
	wantNone(t, checkFixture(t, "kwagg/internal/core", "locklast_allowed.go", LockLast()))
}

func TestLockLastSelfDeadlock(t *testing.T) {
	src := `package core

import "sync"

type box struct{ mu sync.Mutex }

func (b *box) get() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return 1
}

func (b *box) double() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.get()
}
`
	wantDiag(t, check(t, "kwagg/internal/core", src, LockLast()),
		"locklast", "self-deadlock")
}

func TestSQLTaintFixtures(t *testing.T) {
	diags := checkFixture(t, "kwagg/internal/sqlast/render", "sqltaint_violating.go", SQLTaint())
	wantDiag(t, diags, "sqltaint", "raw (unsanitized) string reaches SQL text builder write in render.badIdent")
	wantDiag(t, diags, "sqltaint", "render.badSprintf")
	wantDiag(t, diags, "sqltaint", "render.badString")
	wantDiag(t, diags, "sqltaint", "a sink inside render.writeRaw (parameter 1)")
	wantNone(t, checkFixture(t, "kwagg/internal/sqlast/render", "sqltaint_allowed.go", SQLTaint()))
}

func TestSQLTaintOutOfScopePackage(t *testing.T) {
	// Packages that never hold rendered SQL are out of scope even when they
	// write sqlast fields into builders (e.g. debug output in the planner).
	src, err := os.ReadFile(filepath.Join("testdata", "sqltaint_violating.go"))
	if err != nil {
		t.Fatal(err)
	}
	wantNone(t, check(t, "kwagg/internal/planck", string(src), SQLTaint()))
}

func TestSwitchCoverFixtures(t *testing.T) {
	diags := checkFixture(t, "kwagg/internal/sqldb", "switchcover_violating.go", SwitchCover())
	wantDiag(t, diags, "switchcover", "type switch over sqlast.Expr misses")
	wantDiag(t, diags, "switchcover", "switch over sqlast.CmpOp misses OpGe, OpGt, OpLe, OpLt and has no default clause")
	wantNone(t, checkFixture(t, "kwagg/internal/sqldb", "switchcover_allowed.go", SwitchCover()))
}

func TestStaleSuppressionReported(t *testing.T) {
	src := `package pattern

func keys(m map[string]int) int {
	//kwlint:ignore maporder nothing here appends map keys anymore
	return len(m)
}
`
	diags := check(t, "kwagg/internal/pattern", src, MapOrder())
	wantDiag(t, diags, "kwlint", "stale suppression: no maporder finding is reported here anymore")
}

func TestStaleSuppressionOnlyForRunAnalyzers(t *testing.T) {
	// A detclock directive cannot be judged stale by a maporder-only run:
	// the finding it suppresses was never computed.
	src := `package pattern

import "time"

func now() int64 {
	//kwlint:ignore detclock epoch stamping is the caller's contract
	return time.Now().Unix()
}
`
	wantNone(t, check(t, "kwagg/internal/pattern", src, MapOrder()))
}

func TestStaleAllSuppressionAlwaysChecked(t *testing.T) {
	src := `package pattern

func size(m map[string]int) int {
	//kwlint:ignore all this line was rewritten and triggers nothing
	return len(m)
}
`
	diags := check(t, "kwagg/internal/pattern", src, MapOrder())
	wantDiag(t, diags, "kwlint", "stale suppression: no all finding is reported here anymore")
}

func TestSuppressionUnknownAnalyzerRejected(t *testing.T) {
	src := `package pattern

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//kwlint:ignore mapordr typo in the analyzer name
		out = append(out, k)
	}
	return out
}
`
	diags := check(t, "kwagg/internal/pattern", src, MapOrder())
	wantDiag(t, diags, "kwlint", `names unknown analyzer "mapordr"`)
	wantDiag(t, diags, "maporder", "appends to slice out")
}

func TestSuppressionMultipleAnalyzersOneLine(t *testing.T) {
	src := `package pattern

import "time"

func stamp(m map[string]int64) []int64 {
	var out []int64
	for range m {
		//kwlint:ignore maporder,detclock order and time are both the caller's problem here
		out = append(out, time.Now().Unix())
	}
	return out
}
`
	wantNone(t, check(t, "kwagg/internal/pattern", src, MapOrder(), DetClock()))
}

func TestMetricNameEmptyHelpIsLookup(t *testing.T) {
	src := `package obs2

import "kwagg/internal/obs"

func register(r *obs.Registry) {
	r.Counter("kwagg_widgets_total", "Widgets made.").Inc()
}

func read(r *obs.Registry) uint64 {
	return r.Counter("kwagg_widgets_total", "").Value()
}
`
	wantNone(t, check(t, "kwagg/internal/obs2", src, MetricName()))
}

// TestHotAllocBoxedValueFixtures pins hotalloc's boxed-value rule: the one
// Result decode allocates outside its loop and passes; per-row make, append
// and composite literals of relation.Value or relation.Tuple are reported.
func TestHotAllocBoxedValueFixtures(t *testing.T) {
	diags := checkFixture(t, "kwagg/internal/sqldb", "hotalloc_violating.go", HotAlloc())
	wantDiag(t, diags, "hotalloc", "make/append of relation.Value/Tuple")
	wantDiag(t, diags, "hotalloc", "composite literal of relation.Value/Tuple")
	// decodeRows: the make and the append of rows; pairs: the literal;
	// column: the append.
	if len(diags) != 4 {
		t.Fatalf("want 4 boxed-value findings, got %v", diags)
	}
	wantNone(t, checkFixture(t, "kwagg/internal/sqldb", "hotalloc_allowed.go", HotAlloc()))
}
