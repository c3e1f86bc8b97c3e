// The external differential oracle: every interpretation the system
// generates for every bundled dataset workload is executed on both the
// in-memory engine and a real SQLite holding an export of the same frozen
// data, and the answer sets must be equal. Beside the brute-force reference
// evaluator (internal/sqldb/reference_test.go), which checks the executor
// alone, this suite validates the generated SQL, the dialect renderer, the
// exporter and the executor against an independently implemented SQL
// engine.
//
// Equality is after canonical sorting (or in order, for the corner
// statements whose ORDER BY is total), with one concession: float cells may
// differ by a relative epsilon, because SQLite is free to sum float columns
// in a different order than the in-memory engine and float addition is not
// associative. Integer and string cells must match exactly.
package backend_test

import (
	"context"
	"math"
	"testing"

	"kwagg"
	"kwagg/internal/backend"
	"kwagg/internal/backend/sqlitecli"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// floatEps is the relative tolerance for float aggregate cells (see the
// package comment). 1e-9 is ~1e7 ULPs of double precision — far wider than
// any summation-order drift over the bundled datasets, far tighter than any
// real divergence.
const floatEps = 1e-9

// cellsEqual compares one result cell across engines.
func cellsEqual(a, b relation.Value) bool {
	if relation.Compare(a, b) == 0 {
		return true
	}
	af, aok := asFloat(a)
	bf, bok := asFloat(b)
	if !aok || !bok {
		return false
	}
	diff := math.Abs(af - bf)
	return diff <= floatEps*math.Max(math.Abs(af), math.Abs(bf))
}

func asFloat(v relation.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// diffOne executes q on both engines and compares the answer sets, sorted
// unless ordered asks for the engines' own row order.
func diffOne(t *testing.T, db *relation.Database, ext backend.Backend, label string, q *sqlast.Query, ordered bool) {
	t.Helper()
	ctx := context.Background()

	want, _, err := sqldb.ExecOpts(context.Background(), db, q, sqldb.ExecConfig{})
	if err != nil {
		t.Fatalf("%s: sqldb: %v\nSQL: %s", label, err, q)
	}
	rows, err := ext.Exec(ctx, q)
	if err != nil {
		t.Fatalf("%s: %s: %v\nSQL: %s", label, ext.Name(), err, q)
	}
	got, err := backend.Collect(rows)
	if err != nil {
		t.Fatalf("%s: %s collect: %v\nSQL: %s", label, ext.Name(), err, q)
	}
	if !ordered {
		want.SortRows()
		got.SortRows()
	}

	if len(got.Columns) != len(want.Columns) {
		t.Errorf("%s: column count %d vs %d\nSQL: %s", label, len(got.Columns), len(want.Columns), q)
		return
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Errorf("%s: column %d named %q on %s, %q on sqldb\nSQL: %s",
				label, i, got.Columns[i], ext.Name(), want.Columns[i], q)
			return
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Errorf("%s: %d rows on %s, %d on sqldb\nSQL: %s\n%s-rows: %v\nsqldb-rows: %v",
			label, len(got.Rows), ext.Name(), len(want.Rows), q, ext.Name(), clip(got.Rows), clip(want.Rows))
		return
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			if !cellsEqual(got.Rows[r][c], want.Rows[r][c]) {
				t.Errorf("%s: row %d col %d: %v (%T) on %s, %v (%T) on sqldb\nSQL: %s",
					label, r, c, got.Rows[r][c], got.Rows[r][c], ext.Name(),
					want.Rows[r][c], want.Rows[r][c], q)
				return
			}
		}
	}
}

func clip(rows []relation.Tuple) []relation.Tuple {
	if len(rows) > 8 {
		return rows[:8]
	}
	return rows
}

// TestDifferentialSQLiteDatasetWorkloads is the acceptance gate: every
// DatasetWorkloads() interpretation, both engines, equal answer sets.
func TestDifferentialSQLiteDatasetWorkloads(t *testing.T) {
	if !sqlitecli.Available() {
		t.Skip("sqlite3 binary not on PATH")
	}
	setups := map[string]func() (*experiments.Setup, error){
		"university":   experiments.NewUniversity,
		"tpch":         func() (*experiments.Setup, error) { return experiments.NewTPCH(tpch.Small()) },
		"tpch-denorm":  func() (*experiments.Setup, error) { return experiments.NewTPCHUnnormalized(tpch.Small()) },
		"acmdl":        func() (*experiments.Setup, error) { return experiments.NewACMDL(acmdl.Small()) },
		"acmdl-denorm": func() (*experiments.Setup, error) { return experiments.NewACMDLUnnormalized(acmdl.Small()) },
	}
	for name, queries := range kwagg.DatasetWorkloads() {
		build, ok := setups[name]
		if !ok {
			t.Fatalf("workload %q has no differential setup — extend the map", name)
		}
		name, queries := name, queries
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ext, err := backend.NewSQLite(s.Ours.Data)
			if err != nil {
				t.Fatal(err)
			}
			defer ext.Close()
			interpretations := 0
			for _, kw := range queries {
				ins, err := s.Ours.Interpret(kw, 0)
				if err != nil {
					t.Fatalf("%s: %v", kw, err)
				}
				for _, in := range ins {
					diffOne(t, s.Ours.Data, ext, name+"/"+kw, in.SQL, false)
					interpretations++
				}
			}
			if interpretations == 0 {
				t.Fatalf("%s: workload produced no interpretations", name)
			}
			t.Logf("%s: %d interpretations matched sqldb on sqlite", name, interpretations)
		})
	}
}

// TestDifferentialSQLiteCorners runs the hand-built NULL / "NULL" / float /
// large-integer / non-ASCII corner rows through the external oracle too.
// Statements with ORDER BY (total on these rows) are compared in order.
func TestDifferentialSQLiteCorners(t *testing.T) {
	if !sqlitecli.Available() {
		t.Skip("sqlite3 binary not on PATH")
	}
	db := cornerDB()
	ext, err := backend.NewSQLite(db)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	for _, sql := range []string{
		"SELECT I.Id FROM Item I WHERE I.Name = 'widget'",
		"SELECT I.Id FROM Item I WHERE I.Name = 'NULL'", // must not match the NULL row
		"SELECT I.Id FROM Item I WHERE I.Qty = 5",
		"SELECT I.Id FROM Item I WHERE I.Qty = 99",
		"SELECT I.Id FROM Item I WHERE I.Price = 1.5",
		"SELECT I.Id FROM Item I WHERE I.Price > 1",
		"SELECT I.Id FROM Item I WHERE I.Price = 0", // 0 and -0 both match
		"SELECT I.Price, COUNT(I.Id) AS n FROM Item I GROUP BY I.Price",
		"SELECT DISTINCT I.Price FROM Item I",
		"SELECT I.Qty, COUNT(I.Id) AS n FROM Item I GROUP BY I.Qty",
		// NULL and the string "NULL" are two groups (4 names, not 3)
		"SELECT I.Name, COUNT(I.Id) AS n FROM Item I GROUP BY I.Name",
		"SELECT COUNT(I.Name) AS c, SUM(I.Qty) AS s, AVG(I.Price) AS a FROM Item I",
		"SELECT COUNT(I.Id) AS c FROM Item I WHERE I.Qty = 99", // empty input, no GROUP BY
		"SELECT DISTINCT I.Qty FROM Item I",
		"SELECT I.Id FROM Item I WHERE I.Name CONTAINS 'brien'",
		"SELECT I.Id FROM Item I WHERE I.Name CONTAINS 'null'", // matches the string row only
		"SELECT I.Id FROM Item I WHERE I.Name CONTAINS ''",     // every string, never NULL
		// lower() folds ASCII only: 'ÉCOLE' does not contain 'école', and
		// 'İ' does not contain 'i'.
		"SELECT P.Id FROM Place P WHERE P.Name CONTAINS 'école'",
		"SELECT P.Id FROM Place P WHERE P.Name CONTAINS 'École'",
		"SELECT P.Id FROM Place P WHERE P.Name CONTAINS 'i'",
		// 2^53 and 2^53+1 are distinct integers, in order and in filters
		"SELECT T.Id, T.X FROM T ORDER BY T.X",
		"SELECT T.Id FROM T WHERE T.X > 9007199254740992",
	} {
		q := parse(t, sql)
		diffOne(t, db, ext, sql, q, len(q.OrderBy) > 0)
	}
}

// TestKnownDivergenceNULLStringGroupBy checks that GROUP BY keeps SQL NULL
// and the string "NULL" apart on both engines. (The name is historical: the
// in-memory engine used to merge them, and this test pinned that gap; the
// dictionary now reserves an ID for NULL, so the engines agree.)
func TestKnownDivergenceNULLStringGroupBy(t *testing.T) {
	if !sqlitecli.Available() {
		t.Skip("sqlite3 binary not on PATH")
	}
	db := cornerDB() // Name holds both a NULL and the string "NULL"
	ext, err := backend.NewSQLite(db)
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	const sql = "SELECT I.Name, COUNT(I.Id) AS n FROM Item I GROUP BY I.Name"
	q := parse(t, sql)

	want, _, err := sqldb.ExecOpts(context.Background(), db, q, sqldb.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ext.Exec(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := backend.Collect(rows)
	if err != nil {
		t.Fatal(err)
	}
	// 4 distinct names: NULL, 'NULL', O'Brien…, widget.
	if len(want.Rows) != 4 {
		t.Errorf("sqldb grouped into %d rows, want 4", len(want.Rows))
	}
	if len(got.Rows) != 4 {
		t.Errorf("sqlite grouped into %d rows, want 4", len(got.Rows))
	}
	diffOne(t, db, ext, sql, q, false)
}
