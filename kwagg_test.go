package kwagg_test

import (
	"fmt"
	"strings"
	"testing"

	"kwagg"
)

func universityEngine(t *testing.T) *kwagg.Engine {
	t.Helper()
	eng, err := kwagg.Open(kwagg.UniversityDB(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPublicAPIQuickstart walks the README's quickstart path: build a DB
// through the public API, open it, and answer an aggregate keyword query.
func TestPublicAPIQuickstart(t *testing.T) {
	db := kwagg.NewDB("mini")
	db.MustCreateTable(kwagg.TableSpec{
		Name:       "Team",
		Columns:    []kwagg.Column{"Tid", "Tname"},
		PrimaryKey: []string{"Tid"},
	})
	db.MustCreateTable(kwagg.TableSpec{
		Name:       "Player",
		Columns:    []kwagg.Column{"Pid", "Pname", "Goals INT", "Tid"},
		PrimaryKey: []string{"Pid"},
		ForeignKeys: []kwagg.FK{
			{Attrs: []string{"Tid"}, RefTable: "Team"},
		},
	})
	db.MustInsert("Team", "t1", "Reds")
	db.MustInsert("Team", "t2", "Blues")
	db.MustInsert("Player", "p1", "Ana", "10", "t1")
	db.MustInsert("Player", "p2", "Bo", "4", "t1")
	db.MustInsert("Player", "p3", "Cy", "7", "t2")

	eng, err := kwagg.Open(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Unnormalized() {
		t.Error("mini DB is normalized")
	}
	answers, err := eng.Answer("SUM Goals GROUPBY Team", 1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, row := range answers[0].Result.Rows {
		got[row[0]] = row[len(row)-1]
	}
	if got["t1"] != "14" || got["t2"] != "7" {
		t.Errorf("goals per team: %v\nSQL: %s", got, answers[0].SQL)
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := kwagg.NewDB("x")
	if err := db.CreateTable(kwagg.TableSpec{}); err == nil {
		t.Error("empty spec should fail")
	}
	if err := db.Insert("nosuch", "a"); err == nil {
		t.Error("insert into unknown table should fail")
	}

	// Non-finite floats are rejected at the input boundary, by Insert and by
	// a live engine's Ingest (whole batch), so ORDER BY keeps a total order
	// and SUM stays finite.
	db = kwagg.NewDB("floats")
	db.MustCreateTable(kwagg.TableSpec{
		Name: "T", Columns: []kwagg.Column{"Id", "X FLOAT"}, PrimaryKey: []string{"Id"},
	})
	for _, r := range [][]string{{"t1", "7"}, {"t2", "NaN"}, {"t3", "5"}} {
		if err := db.Insert("T", r...); (err != nil) != (r[1] == "NaN") {
			t.Errorf("Insert %v: %v", r, err)
		}
	}
	eng, err := kwagg.OpenLive(db, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ExecuteSQL("SELECT T.Id, T.X FROM T T ORDER BY T.X")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.Rows); got != "[[t3 5] [t1 7]]" {
		t.Errorf("ORDER BY T.X = %s, want [[t3 5] [t1 7]]", got)
	}
	res, err = eng.ExecuteSQL("SELECT SUM(T.X) AS s FROM T T")
	if err != nil || fmt.Sprint(res.Rows) != "[[12]]" {
		t.Errorf("SUM(T.X) = %v, %v; want [[12]]", res, err)
	}
	if _, err := eng.Ingest("T", [][]string{{"t4", "1"}, {"t5", "-Inf"}}); err == nil || eng.PendingRows() != 0 {
		t.Errorf("Ingest of a -Inf row: err=%v pending=%d, want the whole batch rejected", err, eng.PendingRows())
	}
}

func TestInterpretExposesSQLAndPattern(t *testing.T) {
	eng := universityEngine(t)
	ins, err := eng.Interpret("Green SUM Credit", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("want 2 interpretations, got %d", len(ins))
	}
	top := ins[0]
	if !strings.Contains(top.SQL, "SUM(") || !strings.Contains(top.PrettySQL, "\nFROM") {
		t.Errorf("SQL fields: %+v", top)
	}
	if top.Pattern == "" || top.Description == "" {
		t.Errorf("pattern/description missing: %+v", top)
	}
}

func TestExecuteSQL(t *testing.T) {
	eng := universityEngine(t)
	res, err := eng.ExecuteSQL("SELECT COUNT(S.Sid) AS n FROM Student S")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "3" {
		t.Errorf("count: %v", res.Rows)
	}
	if _, err := eng.ExecuteSQL("SELECT nonsense"); err == nil {
		t.Error("bad SQL should fail")
	}
}

// TestExecuteSQLEmptyRows pins an empty answer's Rows to a non-nil empty
// slice, with or without GROUP BY, so it serializes as [] rather than null.
func TestExecuteSQLEmptyRows(t *testing.T) {
	eng := universityEngine(t)
	for _, sql := range []string{
		"SELECT S.Sname FROM Student S WHERE S.Sname = 'nobody'",
		"SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S WHERE S.Sname = 'nobody' GROUP BY S.Sname",
	} {
		res, err := eng.ExecuteSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows == nil || len(res.Rows) != 0 {
			t.Errorf("%s: Rows = %#v, want a non-nil empty slice", sql, res.Rows)
		}
	}
}

func TestSQAKBaselineAccessors(t *testing.T) {
	eng := universityEngine(t)
	sql, err := eng.SQAKTranslate("Green SUM Credit")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "SUM(") {
		t.Errorf("SQAK SQL: %s", sql)
	}
	res, _, err := eng.SQAKAnswer("Green SUM Credit")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][len(res.Rows[0])-1] != "13" {
		t.Errorf("SQAK merged answer expected (13): %v", res.Rows)
	}
	if _, err := eng.SQAKTranslate("COUNT Course SUM Credit"); err == nil {
		t.Error("SQAK restriction errors must surface through the facade")
	}
}

func TestUnnormalizedFacadeFlow(t *testing.T) {
	eng, err := kwagg.Open(kwagg.UniversityEnrolmentDB(),
		&kwagg.Options{ViewNames: kwagg.UniversityEnrolmentViewNames()})
	if err != nil {
		t.Fatal(err)
	}
	if !eng.Unnormalized() {
		t.Fatal("Figure 8 DB must be detected as unnormalized")
	}
	if !strings.Contains(eng.SchemaGraph(), "<- Enrolment") {
		t.Errorf("schema graph should show view sources:\n%s", eng.SchemaGraph())
	}
	answers, err := eng.Answer("Green George COUNT Code", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers[0].Result.Rows) != 2 {
		t.Errorf("Example 9 answers: %v", answers[0].Result.Rows)
	}
}

func TestDatasetConstructorsOpen(t *testing.T) {
	cases := []struct {
		name string
		db   *kwagg.DB
		opts *kwagg.Options
	}{
		{"university", kwagg.UniversityDB(), nil},
		{"fig2", kwagg.UniversityFig2DB(), &kwagg.Options{ViewNames: kwagg.UniversityFig2ViewNames()}},
		{"enrolment", kwagg.UniversityEnrolmentDB(), &kwagg.Options{ViewNames: kwagg.UniversityEnrolmentViewNames()}},
		{"tpch", kwagg.TPCHDB(kwagg.TPCHSmall), nil},
		{"tpch-denorm", kwagg.TPCHUnnormalizedDB(kwagg.TPCHSmall), &kwagg.Options{ViewNames: kwagg.TPCHViewNames()}},
		{"acmdl", kwagg.ACMDLDB(kwagg.ACMDLSmall), nil},
		{"acmdl-denorm", kwagg.ACMDLUnnormalizedDB(kwagg.ACMDLSmall), &kwagg.Options{ViewNames: kwagg.ACMDLViewNames()}},
	}
	for _, c := range cases {
		eng, err := kwagg.Open(c.db, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if eng.SchemaGraph() == "" {
			t.Errorf("%s: empty schema graph", c.name)
		}
		if c.db.Stats() == "" {
			t.Errorf("%s: empty stats", c.name)
		}
	}
}

func TestResultString(t *testing.T) {
	res := kwagg.Result{Columns: []string{"a", "b"}, Rows: [][]string{{"1", "xy"}}}
	s := res.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "xy") {
		t.Errorf("Result.String: %q", s)
	}
}
