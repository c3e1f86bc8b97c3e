// Differential suite for the executor against the brute-force reference
// evaluator (refExec, an independent nested-loop engine): every query the
// seed workloads generate must produce the same sorted answers three ways — the
// executor over the frozen database (dictionary encoding, batch kernels),
// the executor over an unfrozen copy (formatted-key hashing, the path
// computed columns take), and the reference. This file is an external test
// package because it drives the executor through internal/experiments,
// which itself imports sqldb.
package sqldb_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"kwagg"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// execQuery executes a parsed statement with the default configuration.
func execQuery(db *relation.Database, q *sqlast.Query) (*sqldb.Result, error) {
	res, _, err := sqldb.ExecOpts(context.Background(), db, q, sqldb.ExecConfig{})
	return res, err
}

// unfrozenCopy rebuilds db's tables, sharing their tuples, without freezing
// them: the copy carries no dictionaries, so every hash path keys on
// formatted values.
func unfrozenCopy(t *testing.T, db *relation.Database) *relation.Database {
	t.Helper()
	out := relation.NewDatabase(db.Name)
	for _, tb := range db.Tables() {
		nt := relation.NewTable(tb.Schema.Clone())
		if err := nt.AppendShared(tb.Tuples); err != nil {
			t.Fatal(err)
		}
		out.Add(nt)
	}
	return out
}

// diffThreeWay executes one statement over the frozen database, over its
// unfrozen copy and through the reference evaluator, and fails unless the
// two executions are value-identical after sorting and the reference agrees
// with them (see refDiff: float cells within a relative epsilon, every
// other cell exactly).
func diffThreeWay(t *testing.T, frozen, unfrozen *relation.Database, label string, q *sqlast.Query) {
	t.Helper()
	encoded, err := execQuery(frozen, q)
	if err != nil {
		t.Fatalf("%s: exec (frozen): %v", label, err)
	}
	formatted, err := execQuery(unfrozen, q)
	if err != nil {
		t.Fatalf("%s: exec (unfrozen): %v", label, err)
	}
	reference, err := sqldb.RefExec(frozen, q)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	encoded.SortRows()
	formatted.SortRows()
	if !reflect.DeepEqual(encoded, formatted) {
		t.Errorf("%s: frozen diverged from unfrozen:\nSQL: %s\nfrozen:   %+v\nunfrozen: %+v",
			label, q, encoded, formatted)
	}
	if d := sqldb.RefDiff(encoded, reference); d != "" {
		t.Errorf("%s: executor diverged from reference:\nSQL: %s\n%s", label, q, d)
	}
}

// diffQueries runs every interpretation of every keyword query three ways
// (see diffThreeWay) and compares the sorted results.
func diffQueries(t *testing.T, s *experiments.Setup, queries []experiments.Query) {
	t.Helper()
	unfrozen := unfrozenCopy(t, s.Ours.Data)
	interpretations := 0
	for _, q := range queries {
		ins, err := s.Ours.Interpret(q.Keywords, 0)
		if err != nil {
			t.Fatalf("%s %s: %v", q.ID, q.Keywords, err)
		}
		for _, in := range ins {
			diffThreeWay(t, s.Ours.Data, unfrozen, q.ID, in.SQL)
			interpretations++
		}
	}
	t.Logf("%s: %d interpretations compared three ways", s.Label, interpretations)
}

func TestDifferentialUniversity(t *testing.T) {
	s, err := experiments.NewUniversity()
	if err != nil {
		t.Fatal(err)
	}
	queries := []experiments.Query{
		{ID: "U1", Keywords: "Green SUM Credit"},
		{ID: "U2", Keywords: "COUNT Student GROUPBY Course"},
		{ID: "U3", Keywords: "AVG Credit"},
		{ID: "U4", Keywords: "MAX Price"},
		{ID: "U5", Keywords: "COUNT Lecturer GROUPBY Department"},
	}
	diffQueries(t, s, queries)
}

func TestDifferentialTPCH(t *testing.T) {
	s, err := experiments.NewTPCH(tpch.Small())
	if err != nil {
		t.Fatal(err)
	}
	diffQueries(t, s, experiments.QueriesTPCH())
}

func TestDifferentialACMDL(t *testing.T) {
	s, err := experiments.NewACMDL(acmdl.Small())
	if err != nil {
		t.Fatal(err)
	}
	diffQueries(t, s, experiments.QueriesACMDL())
}

func TestDifferentialTPCHUnnormalized(t *testing.T) {
	s, err := experiments.NewTPCHUnnormalized(tpch.Small())
	if err != nil {
		t.Fatal(err)
	}
	diffQueries(t, s, experiments.QueriesTPCH())
}

func TestDifferentialACMDLUnnormalized(t *testing.T) {
	s, err := experiments.NewACMDLUnnormalized(acmdl.Small())
	if err != nil {
		t.Fatal(err)
	}
	diffQueries(t, s, experiments.QueriesACMDL())
}

// TestDifferentialDatasetWorkloadsThreeWay replays every bundled dataset
// workload (kwagg.DatasetWorkloads, the same map the chaos and plan-verifier
// suites iterate) and checks that each interpretation's answer set is
// the same three ways (see diffThreeWay).
func TestDifferentialDatasetWorkloadsThreeWay(t *testing.T) {
	setups := map[string]func() (*experiments.Setup, error){
		"university":   experiments.NewUniversity,
		"tpch":         func() (*experiments.Setup, error) { return experiments.NewTPCH(tpch.Small()) },
		"tpch-denorm":  func() (*experiments.Setup, error) { return experiments.NewTPCHUnnormalized(tpch.Small()) },
		"acmdl":        func() (*experiments.Setup, error) { return experiments.NewACMDL(acmdl.Small()) },
		"acmdl-denorm": func() (*experiments.Setup, error) { return experiments.NewACMDLUnnormalized(acmdl.Small()) },
	}
	workloads := kwagg.DatasetWorkloads()
	for name, queries := range workloads {
		build, ok := setups[name]
		if !ok {
			t.Fatalf("workload %q has no differential setup — extend the map", name)
		}
		name, queries := name, queries
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			unfrozen := unfrozenCopy(t, s.Ours.Data)
			interpretations := 0
			for _, kw := range queries {
				ins, err := s.Ours.Interpret(kw, 0)
				if err != nil {
					t.Fatalf("%s: %v", kw, err)
				}
				for _, in := range ins {
					diffThreeWay(t, s.Ours.Data, unfrozen, name+"/"+kw, in.SQL)
					interpretations++
				}
			}
			t.Logf("%s: %d interpretations compared three ways", name, interpretations)
		})
	}
}

// TestDifferentialEqualityCorners hand-builds rows around equality's edge
// cases — NULLs, a literal "NULL" string (which must not match NULL rows),
// int vs float constants, 0 vs -0 — and checks the three ways agree on
// direct equality filters.
func TestDifferentialEqualityCorners(t *testing.T) {
	db := relation.NewDatabase("corners")
	item := db.AddSchema(relation.NewSchema("Item", "Id", "Name", "Qty INT", "Price FLOAT").Key("Id"))
	item.MustInsert("i1", "widget", int64(5), 1.5)
	item.MustInsert("i2", "NULL", int64(5), 2.5) // the string "NULL", not a missing value
	item.MustInsert("i3", nil, int64(7), 1.5)    // a genuinely missing name
	item.MustInsert("i4", "widget", nil, nil)    // missing numbers
	item.MustInsert("i5", "widget", int64(5), 1.5)
	item.MustInsert("i6", "widget", int64(0), 0.0)
	item.MustInsert("i7", "widget", int64(0), math.Copysign(0, -1)) // negative zero
	unfrozen := unfrozenCopy(t, db)
	db.Freeze()

	for _, sql := range []string{
		// string constant: index path
		"SELECT I.Id FROM Item I WHERE I.Name = 'widget'",
		// the literal string "NULL" must not match the NULL row i3
		"SELECT I.Id FROM Item I WHERE I.Name = 'NULL'",
		// int constant: index path; NULL Qty row i4 must not match
		"SELECT I.Id FROM Item I WHERE I.Qty = 5",
		// unmatched constant: empty either way
		"SELECT I.Id FROM Item I WHERE I.Qty = 99",
		// float constant: not indexable, but the dictionary-ID kernel path
		// answers it and all three must agree
		"SELECT I.Id FROM Item I WHERE I.Price = 1.5",
		// float zero through the kernel path: 0 and -0 share a dictionary
		// ID, so rows i6 and i7 both match every way
		"SELECT I.Id FROM Item I WHERE I.Price = 0.0",
		// int zero through the value index: the same ID, the same two rows
		"SELECT I.Id FROM Item I WHERE I.Price = 0",
	} {
		q, err := sqldb.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		diffThreeWay(t, db, unfrozen, sql, q)
	}

	// Pin the specific trap: Format(nil) == "NULL" == Format("NULL"), yet
	// the index bucket for the constant 'NULL' is the string's alone (NULL
	// rows hold NullID), so row i3 never matches.
	q, err := sqldb.Parse("SELECT I.Id FROM Item I WHERE I.Name = 'NULL'")
	if err != nil {
		t.Fatal(err)
	}
	res, err := execQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "i2" {
		t.Errorf("'NULL' string filter: %+v (want only i2)", res.Rows)
	}
}
