package analysis

import (
	"strings"
	"sync"
	"testing"
)

// sharedLoader builds one Loader for the whole test binary: NewLoader runs
// `go list -export -deps` once, which dominates the suite's runtime.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// check type-checks one in-memory source file under the given import path and
// runs the analyzers over it (suppressions applied, like kwlint does).
func check(t *testing.T, importPath, src string, analyzers ...*Analyzer) []Diagnostic {
	t.Helper()
	pkg, err := testLoader(t).CheckSource(importPath, src)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	return Run([]*Pkg{pkg}, analyzers)
}

func wantDiag(t *testing.T, diags []Diagnostic, analyzer, fragment string) {
	t.Helper()
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, fragment) {
			if d.Pos.Line == 0 {
				t.Errorf("diagnostic has no position: %s", d)
			}
			return
		}
	}
	t.Fatalf("expected a %s diagnostic mentioning %q, got %v", analyzer, fragment, diags)
}

func wantNone(t *testing.T, diags []Diagnostic) {
	t.Helper()
	if len(diags) != 0 {
		t.Fatalf("expected no diagnostics, got %v", diags)
	}
}

func TestMapOrderFlagsUnsortedAppend(t *testing.T) {
	src := `package pattern
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	wantDiag(t, check(t, "kwagg/internal/pattern", src, MapOrder()),
		"maporder", "appends to slice out")
}

func TestMapOrderAllowsCollectThenSort(t *testing.T) {
	src := `package pattern
import "sort"
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`
	wantNone(t, check(t, "kwagg/internal/pattern", src, MapOrder()))
}

func TestMapOrderFlagsBuilderWrite(t *testing.T) {
	src := `package sqlast
import "strings"
func render(m map[string]string) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String()
}
`
	wantDiag(t, check(t, "kwagg/internal/sqlast", src, MapOrder()),
		"maporder", "writes into b")
}

func TestMapOrderFlagsStringConcat(t *testing.T) {
	src := `package translate
func render(m map[string]string) string {
	s := ""
	for k := range m {
		s += k
	}
	return s
}
`
	wantDiag(t, check(t, "kwagg/internal/translate", src, MapOrder()),
		"maporder", "concatenates onto string s")
}

func TestMapOrderIgnoresOtherPackages(t *testing.T) {
	src := `package chaos
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`
	wantNone(t, check(t, "kwagg/internal/chaos", src, MapOrder()))
}

func TestHotAllocFlagsSprintfInLoop(t *testing.T) {
	src := `package sqldb
import "fmt"
func keys(rows []int) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%d", r))
	}
	return out
}
`
	wantDiag(t, check(t, "kwagg/internal/sqldb", src, HotAlloc()),
		"hotalloc", "fmt.Sprintf")
}

func TestHotAllocFlagsFormatAppend(t *testing.T) {
	src := `package sqldb
import "kwagg/internal/relation"
func key(buf []byte, vals []relation.Value) []byte {
	for _, v := range vals {
		buf = append(buf, relation.Format(v)...)
	}
	return buf
}
func key2(buf []byte, vals []relation.Value) []byte {
	for _, v := range vals {
		s := relation.Format(v)
		buf = append(buf, s...)
	}
	return buf
}
`
	diags := check(t, "kwagg/internal/sqldb", src, HotAlloc())
	if len(diags) != 2 {
		t.Fatalf("expected both Format-append shapes flagged, got %v", diags)
	}
	wantDiag(t, diags, "hotalloc", "relation.AppendFormat")
}

func TestHotAllocAllowsAppendFormatAndNonLoopSprintf(t *testing.T) {
	src := `package sqldb
import (
	"fmt"
	"kwagg/internal/relation"
)
func key(buf []byte, vals []relation.Value) []byte {
	for _, v := range vals {
		buf = relation.AppendFormat(buf, v)
	}
	return buf
}
func label(n int) string {
	return fmt.Sprintf("stmt-%d", n)
}
`
	wantNone(t, check(t, "kwagg/internal/sqldb", src, HotAlloc()))
}

func TestHotAllocFlagsMakeInBlockLoop(t *testing.T) {
	src := `package sqldb
type executor struct{ ops uint }
func (e *executor) stepN(n int) error { e.ops += uint(n); return nil }
func (e *executor) kernel(blocks [][]uint32) int {
	total := 0
	for b := range blocks {
		if err := e.stepN(len(blocks[b])); err != nil {
			return 0
		}
		scratch := make([]uint64, 16)
		_ = scratch
		total += b
	}
	return total
}
`
	wantDiag(t, check(t, "kwagg/internal/sqldb", src, HotAlloc()),
		"hotalloc", "batch-kernel block loop")
}

func TestHotAllocAllowsMakeInPlainLoop(t *testing.T) {
	// make in a loop that is not a batch block loop (no stepN poll) is a
	// per-statement or per-group allocation, not per-block scratch.
	src := `package sqldb
func carve(sizes []int) [][]int {
	out := make([][]int, 0, len(sizes))
	for _, n := range sizes {
		out = append(out, make([]int, 0, n))
	}
	return out
}
`
	wantNone(t, check(t, "kwagg/internal/sqldb", src, HotAlloc()))
}

func TestHotAllocIgnoresOtherPackages(t *testing.T) {
	src := `package translate
import "fmt"
func render(rows []int) []string {
	var out []string
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%d", r))
	}
	return out
}
`
	wantNone(t, check(t, "kwagg/internal/translate", src, HotAlloc()))
}

func TestDetClockFlagsWallClockAndGlobalRand(t *testing.T) {
	src := `package match
import (
	"math/rand"
	"time"
)
func stamp() time.Time { return time.Now() }
func pick(n int) int   { return rand.Intn(n) }
`
	diags := check(t, "kwagg/internal/match", src, DetClock())
	wantDiag(t, diags, "detclock", "time.Now")
	wantDiag(t, diags, "detclock", "math/rand.Intn")
}

func TestDetClockAllowsSeededRandAndAllowedPackages(t *testing.T) {
	seeded := `package match
import "math/rand"
func pick(r *rand.Rand, n int) int { return r.Intn(n) }
func src() *rand.Rand              { return rand.New(rand.NewSource(1)) }
`
	wantNone(t, check(t, "kwagg/internal/match", seeded, DetClock()))

	chaos := `package chaos
import "time"
func stamp() time.Time { return time.Now() }
`
	wantNone(t, check(t, "kwagg/internal/chaos", chaos, DetClock()))
}

func TestMetricNameFlagsBadNames(t *testing.T) {
	src := `package server
import "kwagg/internal/obs"
func register(r *obs.Registry, suffix string) {
	r.Counter("queries_total", "missing namespace")
	r.Gauge("kwagg_Bad_Case", "uppercase")
	r.Counter(suffix+"_total", "dynamic name")
	r.Counter("kwagg_cache_"+suffix, "constant prefix is fine")
	r.Counter("kwagg_good_total", "fine")
}
`
	diags := check(t, "kwagg/internal/server", src, MetricName())
	if len(diags) != 3 {
		t.Fatalf("expected 3 diagnostics, got %v", diags)
	}
	wantDiag(t, diags, "metricname", "queries_total")
	wantDiag(t, diags, "metricname", "kwagg_Bad_Case")
	wantDiag(t, diags, "metricname", "not a constant")
}

func TestMetricNameFlagsDivergentHelp(t *testing.T) {
	src := `package server
import "kwagg/internal/obs"
func register(r *obs.Registry) {
	r.Counter("kwagg_x_total", "one help")
	r.Counter("kwagg_x_total", "another help")
}
`
	wantDiag(t, check(t, "kwagg/internal/server", src, MetricName()),
		"metricname", "the registry keeps the first help it sees")
}

func TestCtxFlowFlagsBackgroundWithCtxParam(t *testing.T) {
	src := `package core
import "context"
func run(ctx context.Context) context.Context {
	return context.Background()
}
`
	wantDiag(t, check(t, "kwagg/internal/core", src, CtxFlow()),
		"ctxflow", "context.Background")
}

func TestCtxFlowFlagsNonContextExec(t *testing.T) {
	src := `package core
import (
	"context"
	"kwagg/internal/relation"
	"kwagg/internal/sqldb"
)
func run(ctx context.Context, db *relation.Database) error {
	_, err := sqldb.ExecSQL(db, "SELECT S.Sid FROM Student S")
	return err
}
`
	wantDiag(t, check(t, "kwagg/internal/core", src, CtxFlow()),
		"ctxflow", "sqldb.ExecSQL")
}

func TestCtxFlowAllowsRootingWithoutCtx(t *testing.T) {
	src := `package core
import "context"
func Convenience() context.Context {
	return context.Background()
}
`
	wantNone(t, check(t, "kwagg/internal/core", src, CtxFlow()))
}

func TestFreezeWriteFlagsStorageMutation(t *testing.T) {
	src := `package match
import "kwagg/internal/relation"
func scrub(t *relation.Table) {
	t.Tuples = nil
	t.Schema.PrimaryKey = nil
}
`
	diags := check(t, "kwagg/internal/match", src, FreezeWrite())
	wantDiag(t, diags, "freezewrite", "relation.Table.Tuples")
	wantDiag(t, diags, "freezewrite", "relation.Schema.PrimaryKey")
}

func TestFreezeWriteAllowsBuildPath(t *testing.T) {
	src := `package tpch
import "kwagg/internal/relation"
func patch(t *relation.Table, tu relation.Tuple) {
	t.Tuples[0] = tu
}
`
	wantNone(t, check(t, "kwagg/internal/dataset/tpch", src, FreezeWrite()))
}

func TestFreezeWriteAllowsLocalSchemaName(t *testing.T) {
	// Schema.Name is not key/FD metadata; renaming views is legitimate.
	src := `package match
import "kwagg/internal/relation"
func rename(s *relation.Schema) {
	s.Name = "View"
}
`
	wantNone(t, check(t, "kwagg/internal/match", src, FreezeWrite()))
}

func TestFreezeWriteFlagsDeltaSeamOutsideCore(t *testing.T) {
	// The incremental epoch builder claims frozen tables' spare capacity;
	// only core.Live.Commit serializes committers, so direct calls from
	// anywhere else are a latent race.
	src := `package match
import "kwagg/internal/relation"
func grow(db *relation.Database, idx *relation.InvertedIndex, rows map[string][]relation.Tuple) {
	relation.ExtendFrozenDatabase(db, rows)
	idx.AppendRows(db, nil)
}
`
	diags := check(t, "kwagg/internal/match", src, FreezeWrite())
	wantDiag(t, diags, "freezewrite", "relation.ExtendFrozenDatabase")
	wantDiag(t, diags, "freezewrite", "relation.AppendRows")
}

func TestFreezeWriteAllowsDeltaSeamInCore(t *testing.T) {
	// core is the sanctioned epoch builder (Live.Commit holds the mutex).
	src := `package core
import "kwagg/internal/relation"
func build(db *relation.Database, rows map[string][]relation.Tuple) (*relation.Database, error) {
	next, _, err := relation.ExtendFrozenDatabase(db, rows)
	return next, err
}
`
	wantNone(t, check(t, "kwagg/internal/core", src, FreezeWrite()))
}

func TestSuppressionSilencesDiagnostic(t *testing.T) {
	src := `package pattern
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//kwlint:ignore maporder ordering is re-established by the caller
		out = append(out, k)
	}
	return out
}
`
	wantNone(t, check(t, "kwagg/internal/pattern", src, MapOrder()))
}

func TestSuppressionWrongAnalyzerDoesNotSilence(t *testing.T) {
	src := `package pattern
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//kwlint:ignore detclock wrong analyzer name
		out = append(out, k)
	}
	return out
}
`
	wantDiag(t, check(t, "kwagg/internal/pattern", src, MapOrder()),
		"maporder", "appends to slice out")
}

func TestSuppressionRequiresReason(t *testing.T) {
	src := `package pattern
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		//kwlint:ignore maporder
		out = append(out, k)
	}
	return out
}
`
	diags := check(t, "kwagg/internal/pattern", src, MapOrder())
	wantDiag(t, diags, "kwlint", "written reason")
	wantDiag(t, diags, "maporder", "appends to slice out")
}

// TestLoadModule loads the real module the way kwlint does and asserts the
// deterministic-pipeline packages are present — a smoke test that the
// go-list/export-data plumbing works in this checkout.
func TestLoadModule(t *testing.T) {
	pkgs, err := testLoader(t).Load("./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	byPath := make(map[string]bool, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = true
	}
	for _, want := range []string{"kwagg", "kwagg/internal/sqldb", "kwagg/internal/translate", "kwagg/internal/planck"} {
		if !byPath[want] {
			t.Errorf("Load did not return package %s", want)
		}
	}
}

func TestDepScopeFlagsDriverMachineryOutsideBackend(t *testing.T) {
	src := `package pattern
import (
	_ "database/sql"
	_ "os/exec"
)
`
	diags := check(t, "kwagg/internal/pattern", src, DepScope())
	wantDiag(t, diags, "depscope", "database/sql outside kwagg/internal/backend")
	wantDiag(t, diags, "depscope", "os/exec outside kwagg/internal/backend")
}

func TestDepScopeFlagsBackendLeaks(t *testing.T) {
	src := `package pattern
import (
	_ "kwagg/internal/backend"
	_ "kwagg/internal/backend/sqlitecli"
)
`
	diags := check(t, "kwagg/internal/sqldb", src, DepScope())
	wantDiag(t, diags, "depscope", "kwagg/internal/backend/sqlitecli outside kwagg/internal/backend")
	wantDiag(t, diags, "depscope", "kwagg/internal/backend outside kwagg, kwagg/internal/core")
}

func TestDepScopeAllowsTheSeamItself(t *testing.T) {
	wantNone(t, check(t, "kwagg/internal/backend/pattern", `package pattern
import (
	_ "database/sql"
	_ "os/exec"
	_ "kwagg/internal/backend/sqlitecli"
)
`, DepScope()))
	wantNone(t, check(t, "kwagg/internal/core", `package core
import _ "kwagg/internal/backend"
`, DepScope()))
	wantNone(t, check(t, "kwagg/internal/analysis", `package analysis
import _ "os/exec"
`, DepScope()))
}

// TestDepScopeThirdParty covers the dependency-free rule at the unit level:
// a third-party import cannot be type-checked in this module (no export
// data), so the rule function is exercised directly.
func TestDepScopeThirdParty(t *testing.T) {
	if msg := depViolation("kwagg/internal/sqldb", "github.com/mattn/go-sqlite3"); !strings.Contains(msg, "dependency-free") {
		t.Errorf("third-party import not flagged: %q", msg)
	}
	if msg := depViolation("kwagg/internal/sqldb", "encoding/json"); msg != "" {
		t.Errorf("stdlib import flagged: %q", msg)
	}
	if msg := depViolation("kwagg", "kwagg/internal/backend"); msg != "" {
		t.Errorf("root kwagg may import the backend seam: %q", msg)
	}
}
