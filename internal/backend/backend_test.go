package backend_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"kwagg/internal/backend"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqlast/render"
	"kwagg/internal/sqldb"
)

// cornerDB builds a tiny database with the values that historically break
// naive escaping, NULL handling and equality: NULL beside the string
// "NULL", 0 beside -0, two integers a float64 cannot tell apart, and
// non-ASCII letters that only a Unicode case fold would equate.
func cornerDB() *relation.Database {
	db := relation.NewDatabase("corner")
	item := db.AddSchema(relation.NewSchema("Item", "Id", "Name", "Qty INT", "Price FLOAT").Key("Id"))
	item.MustInsert("i1", "widget", int64(5), 1.5)
	item.MustInsert("i2", "NULL", int64(5), 2.5) // the string, not the value
	item.MustInsert("i3", nil, int64(7), nil)
	item.MustInsert("i4", "O'Brien\n\x1f", int64(0), 0.25)
	item.MustInsert("i5", "widget", int64(0), 0.0)
	item.MustInsert("i6", "widget", int64(0), math.Copysign(0, -1)) // negative zero
	big := db.AddSchema(relation.NewSchema("T", "Id", "X INT").Key("Id"))
	big.MustInsert("t1", int64(1<<53+1)) // first: an order-keeping float64 compare keeps it first
	big.MustInsert("t2", int64(1<<53))
	// Non-ASCII text, where CONTAINS folds only ASCII letters on both
	// engines; repeated names put the column on the per-entry kernel.
	place := db.AddSchema(relation.NewSchema("Place", "Id", "Name").Key("Id"))
	for i, name := range []string{"ÉCOLE", "école", "xÉCOLEy", "İ", "école", "ÉCOLE"} {
		place.MustInsert(fmt.Sprintf("p%d", i+1), name)
	}
	db.Freeze()
	return db
}

func parse(t *testing.T, sql string) *sqlast.Query {
	t.Helper()
	q, err := sqldb.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return q
}

func TestSQLDBBackend(t *testing.T) {
	db := cornerDB()
	b := backend.NewSQLDB(db, sqldb.ExecConfig{})
	defer b.Close()
	if b.Name() != "sqldb" {
		t.Fatalf("name = %s", b.Name())
	}
	rows, err := b.Exec(context.Background(), parse(t, "SELECT I.Id FROM Item I WHERE I.Qty = 5"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := backend.Collect(rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v, want i1 and i2", res.Rows)
	}
}

func TestOutputColumns(t *testing.T) {
	q := parse(t, "SELECT I.Name, COUNT(I.Id) AS n, SUM(I.Qty) FROM Item I GROUP BY I.Name")
	got := backend.OutputColumns(q)
	want := []string{"Name", "n", "SUM(I.Qty)"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("col %d = %q, want %q", i, got[i], want[i])
		}
	}
	// Must agree with the in-memory engine's own naming.
	res, _, err := sqldb.ExecOpts(context.Background(), cornerDB(), q, sqldb.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Columns {
		if res.Columns[i] != got[i] {
			t.Errorf("col %d: sqldb names %q, OutputColumns %q", i, res.Columns[i], got[i])
		}
	}
}

func TestScript(t *testing.T) {
	script, err := backend.Script(cornerDB(), render.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`CREATE TABLE "Item" ("Id" TEXT, "Name" TEXT, "Qty" INTEGER, "Price" REAL);`,
		`INSERT INTO "Item" VALUES`,
		`('i1', 'widget', 5, 1.5)`,
		`('i2', 'NULL', 5, 2.5)`, // the string stays quoted
		`('i3', NULL, 7, NULL)`,  // the value stays bare
		`('i4', 'O''Brien`,
	} {
		if !strings.Contains(script, want) {
			t.Errorf("script missing %q:\n%s", want, script)
		}
	}
	pg, err := backend.Script(cornerDB(), render.Postgres)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pg, `"Qty" BIGINT`) || !strings.Contains(pg, `"Price" DOUBLE PRECISION`) {
		t.Errorf("postgres column types wrong:\n%s", pg)
	}
	if _, err := backend.Script(cornerDB(), render.SQLDB); err == nil {
		t.Error("Script accepted the sqldb dialect")
	}
}

func TestScriptBatchesInserts(t *testing.T) {
	db := relation.NewDatabase("big")
	tbl := db.AddSchema(relation.NewSchema("N", "Id INT").Key("Id"))
	for i := 0; i < 1200; i++ {
		tbl.MustInsert(int64(i))
	}
	db.Freeze()
	script, err := backend.Script(db, render.SQLite)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(script, "INSERT INTO"); n != 3 { // 500 + 500 + 200
		t.Errorf("1200 rows produced %d INSERT statements, want 3", n)
	}
}

func TestIsTransient(t *testing.T) {
	base := errors.New("boom")
	if backend.IsTransient(base) {
		t.Error("plain error transient")
	}
	te := &backend.TransientError{Err: base}
	if !backend.IsTransient(te) {
		t.Error("TransientError not transient")
	}
	if !backend.IsTransient(wrapErr{te}) {
		t.Error("wrapped TransientError not transient")
	}
	if !errors.Is(te, base) {
		t.Error("TransientError does not unwrap")
	}
}

type wrapErr struct{ err error }

func (w wrapErr) Error() string { return "wrap: " + w.err.Error() }
func (w wrapErr) Unwrap() error { return w.err }

func TestCollectError(t *testing.T) {
	rows := &failingRows{}
	if _, err := backend.Collect(rows); err == nil {
		t.Fatal("Collect swallowed the row error")
	}
	if !rows.closed {
		t.Error("Collect did not close the rows on error")
	}
}

type failingRows struct{ closed bool }

func (r *failingRows) Columns() []string { return []string{"a"} }
func (r *failingRows) Next() (relation.Tuple, error) {
	return nil, errors.New("stream died")
}
func (r *failingRows) Close() error { r.closed = true; return nil }
