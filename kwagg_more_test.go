package kwagg_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"kwagg"
)

func TestFacadeExplain(t *testing.T) {
	eng := universityEngine(t)
	out, err := eng.Explain("Green SUM Credit", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"terms:", "disambiguation:", "ranking:"} {
		if !strings.Contains(out, frag) {
			t.Errorf("Explain missing %q:\n%s", frag, out)
		}
	}
	if _, err := eng.Explain("Green SUM Credit", 99); err == nil {
		t.Error("out-of-range interpretation index should fail")
	}
	if _, err := eng.Explain("", 0); err == nil {
		t.Error("bad query should fail")
	}
}

func TestFacadePatternDot(t *testing.T) {
	eng := universityEngine(t)
	dot, err := eng.PatternDot("Green SUM Credit", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot, "graph pattern {") || !strings.Contains(dot, "SUM(Credit)") {
		t.Errorf("PatternDot:\n%s", dot)
	}
	if _, err := eng.PatternDot("Green SUM Credit", -1); err == nil {
		t.Error("negative index should fail")
	}
}

func TestFacadeSchemaDot(t *testing.T) {
	eng := universityEngine(t)
	dot := eng.SchemaDot()
	if !strings.Contains(dot, "graph ORM {") || !strings.Contains(dot, "Teach") {
		t.Errorf("SchemaDot:\n%s", dot)
	}
}

func TestFacadeSaveLoad(t *testing.T) {
	dir := t.TempDir()
	if err := kwagg.UniversityDB().Save(dir); err != nil {
		t.Fatal(err)
	}
	db, err := kwagg.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := kwagg.Open(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	answers, err := eng.Answer("Green SUM Credit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0].Result.Rows) != 2 {
		t.Errorf("answers after reload: %v", answers[0].Result.Rows)
	}
	if _, err := kwagg.Load(t.TempDir()); err == nil {
		t.Error("loading an empty directory should fail")
	}
}

// TestFacadeConcurrentUse drives one engine from several goroutines (run
// with -race in CI): all engine state after Open is read-only.
func TestFacadeConcurrentUse(t *testing.T) {
	eng := universityEngine(t)
	queries := []string{
		"Green SUM Credit",
		"COUNT Lecturer GROUPBY Course",
		"Java SUM Price",
		"AVG COUNT Student GROUPBY Course",
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(queries)*4)
	for i := 0; i < 4; i++ {
		for _, q := range queries {
			wg.Add(1)
			go func(q string) {
				defer wg.Done()
				if _, err := eng.Answer(q, 2); err != nil {
					errs <- err
				}
			}(q)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPublicAPIUnnormalized builds an unnormalized table through the public
// API (declaring functional dependencies) and checks the engine detects it,
// synthesizes the view, and answers per object.
func TestPublicAPIUnnormalized(t *testing.T) {
	db := kwagg.NewDB("sales")
	db.MustCreateTable(kwagg.TableSpec{
		Name:       "Sales",
		Columns:    []kwagg.Column{"custid", "prodid", "custname", "prodname", "price FLOAT", "qty INT"},
		PrimaryKey: []string{"custid", "prodid"},
		Dependencies: []kwagg.Dep{
			{From: []string{"custid"}, To: []string{"custname"}},
			{From: []string{"prodid"}, To: []string{"prodname", "price"}},
			{From: []string{"custid", "prodid"}, To: []string{"qty"}},
		},
	})
	rows := [][]string{
		{"c1", "p1", "Ada", "widget", "10", "3"},
		{"c1", "p2", "Ada", "gadget", "20", "1"},
		{"c2", "p1", "Ada", "widget", "10", "5"}, // a second customer named Ada
		{"c3", "p2", "Bo", "gadget", "20", "2"},
	}
	for _, r := range rows {
		db.MustInsert("Sales", r...)
	}
	eng, err := kwagg.Open(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Unnormalized() {
		t.Fatal("Sales violates 2NF and must be detected")
	}
	// Total spend per customer named Ada: c1 buys 10+20, c2 buys 10 — but
	// SUM over price is per product joined; the point is two rows, not one.
	answers, err := eng.Answer("Ada SUM price", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0].Result.Rows) != 2 {
		t.Fatalf("one row per distinct Ada expected: %v\nSQL: %s",
			answers[0].Result.Rows, answers[0].SQL)
	}
}

func TestOpenDataset(t *testing.T) {
	for _, name := range []string{"university", "fig2", "enrolment", "tpch", "tpch-denorm", "acmdl", "acmdl-denorm"} {
		eng, err := kwagg.OpenDataset(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if eng == nil {
			t.Fatalf("%s: nil engine", name)
		}
	}
	if _, err := kwagg.OpenDataset("nosuch", true); err == nil {
		t.Error("unknown dataset should fail")
	}
}

// TestOpenDatasetLive opens a bundled unnormalized dataset for live ingest:
// its view names apply as in OpenDataset, the bundled rows are epoch 0, and
// a committed row reaches the next answer through the normalized view.
func TestOpenDatasetLive(t *testing.T) {
	eng, err := kwagg.OpenDatasetLive("fig2", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Live() || !eng.Unnormalized() || eng.Epoch() != 0 {
		t.Fatalf("fig2 live engine: live=%v unnormalized=%v epoch=%d", eng.Live(), eng.Unnormalized(), eng.Epoch())
	}
	lecturers := func() string {
		t.Helper()
		as, err := eng.Answer("COUNT Lecturer GROUPBY Faculty", 1)
		if err != nil {
			t.Fatal(err)
		}
		rows := as[0].Result.Rows
		if len(rows) != 1 {
			t.Fatalf("one faculty expected: %v\nSQL: %s", rows, as[0].SQL)
		}
		return rows[0][len(rows[0])-1]
	}
	if n := lecturers(); n != "2" {
		t.Fatalf("epoch 0: %s lecturers in Engineering, want 2", n)
	}
	if _, err := eng.Ingest("Lecturer", [][]string{{"l3", "Ada", "d1", "f1"}}); err != nil {
		t.Fatal(err)
	}
	if ep, err := eng.CommitEpoch(context.Background()); err != nil || ep != 1 {
		t.Fatalf("CommitEpoch = %d, %v", ep, err)
	}
	if n := lecturers(); n != "3" {
		t.Fatalf("epoch 1: %s lecturers in Engineering, want 3", n)
	}
	if _, err := kwagg.OpenDatasetLive("nosuch", true, nil); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestExplainSQLPlan(t *testing.T) {
	eng := universityEngine(t)
	plan, err := eng.ExplainSQLPlan("SELECT S.Sid FROM Student S, Enrol E WHERE E.Sid=S.Sid")
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"scan Student", "hash join"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
	if _, err := eng.ExplainSQLPlan("SELECT nope"); err == nil {
		t.Error("bad SQL should fail")
	}
}
