package core

import (
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/planck"
	"kwagg/internal/relation"
)

func TestOpenRejectsInvalidSchema(t *testing.T) {
	db := relation.NewDatabase("bad")
	db.AddSchema(relation.NewSchema("T", "a").Key("missing"))
	if _, err := Open(db, nil); err == nil {
		t.Error("invalid schema should be rejected at Open")
	}
	// A failed Open leaves the database unfrozen, so it can be repaired.
	if err := db.Table("T").Insert(relation.Tuple{"x"}); err != nil || db.Frozen() {
		t.Errorf("after a failed Open: insert err=%v, frozen=%v", err, db.Frozen())
	}
}

func TestInterpretKLimit(t *testing.T) {
	s := mustOpen(t, university.New())
	all, err := s.Interpret("Green SUM Credit", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 2 {
		t.Fatalf("expected several interpretations, got %d", len(all))
	}
	one, err := s.Interpret("Green SUM Credit", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].SQL.String() != all[0].SQL.String() {
		t.Error("k=1 should return the top-ranked interpretation")
	}
}

func TestInterpretParseError(t *testing.T) {
	s := mustOpen(t, university.New())
	if _, err := s.Interpret("Student COUNT", 0); err == nil {
		t.Error("trailing operator should fail")
	}
	if _, err := s.Interpret("", 0); err == nil {
		t.Error("empty query should fail")
	}
}

func TestBestAnswerSelector(t *testing.T) {
	s := mustOpen(t, university.New())
	// Select the merged (non-grouped) variant explicitly.
	a, err := s.BestAnswer("Green SUM Credit", 0, func(in Interpretation) bool {
		return !strings.Contains(in.SQL.String(), "GROUP BY")
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Result.Rows) != 1 {
		t.Fatalf("merged variant should have one row: %v", a.Result.Rows)
	}
	f, _ := relation.AsFloat(a.Result.Rows[0][len(a.Result.Rows[0])-1])
	if f != 13 {
		t.Errorf("merged total should be 13, got %v", f)
	}
	// A selector nothing satisfies errors out.
	if _, err := s.BestAnswer("Green SUM Credit", 0, func(Interpretation) bool { return false }); err == nil {
		t.Error("unsatisfiable selector should fail")
	}
	// Nil selector returns the top-ranked interpretation.
	top, err := s.BestAnswer("Green SUM Credit", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(top.Result.Rows) != 2 {
		t.Errorf("top-ranked (disambiguated) variant expected: %v", top.Result.Rows)
	}
}

func TestPureKeywordQuery(t *testing.T) {
	s := mustOpen(t, university.New())
	// {Green George Code}: common courses of Green and George students.
	as, err := s.Answer("Green George Code", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := as[0].Result.Rows
	if len(rows) == 0 {
		t.Fatalf("expected common courses, got none\nSQL: %s", as[0].SQL)
	}
	// s2 shares c1; s3 shares c1 and c3 with George.
	codes := map[string]bool{}
	for _, row := range rows {
		for _, v := range row {
			codes[relation.Format(v)] = true
		}
	}
	if !codes["c1"] {
		t.Errorf("c1 must be a common course: %v", rows)
	}
}

func TestGroupByAttributeTerm(t *testing.T) {
	s := mustOpen(t, university.New())
	// Group by an attribute name (Grade) rather than a relation.
	as, err := s.Answer("COUNT Student GROUPBY Grade", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := as[0].Result.Rows
	if len(rows) != 2 { // grades A and B
		t.Fatalf("two grade groups expected: %v\nSQL: %s", rows, as[0].SQL)
	}
}

func TestMinMaxAggregates(t *testing.T) {
	s := mustOpen(t, university.New())
	as, err := s.Answer("MIN Price GROUPBY Course", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cheapest textbook per course: c1 -> 10, c2 -> 12, c3 -> 20.
	want := map[string]float64{"c1": 10, "c2": 12, "c3": 20}
	if len(as[0].Result.Rows) != 3 {
		t.Fatalf("rows: %v\nSQL: %s", as[0].Result.Rows, as[0].SQL)
	}
	for _, row := range as[0].Result.Rows {
		code := relation.Format(row[0])
		f, _ := relation.AsFloat(row[len(row)-1])
		if want[code] != f {
			t.Errorf("course %s min price = %v, want %v", code, f, want[code])
		}
	}
}

func TestDeepNestedAggregates(t *testing.T) {
	s := mustOpen(t, university.New())
	// MAX of the per-course student counts: course c1 has 3 students.
	as, err := s.Answer("MAX COUNT Student GROUPBY Course", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(as[0].Result.Rows) != 1 {
		t.Fatalf("rows: %v", as[0].Result.Rows)
	}
	if n := as[0].Result.Rows[0][0].(int64); n != 3 {
		t.Errorf("max class size should be 3, got %d\nSQL: %s", n, as[0].SQL)
	}
}

func TestAnswerExecutesAllK(t *testing.T) {
	s := mustOpen(t, university.New())
	as, err := s.Answer("George Code", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) < 2 {
		t.Fatalf("George is ambiguous (student/lecturer); want several answers, got %d", len(as))
	}
	for _, a := range as {
		if a.Result == nil {
			t.Error("every interpretation must be executed")
		}
	}
}

func TestDescribeSchemaListsAllNodes(t *testing.T) {
	s := mustOpen(t, university.New())
	d := s.DescribeSchema()
	for _, name := range []string{"Student", "Course", "Enrol", "Teach", "Lecturer", "Department", "Faculty", "Textbook"} {
		if !strings.Contains(d, name) {
			t.Errorf("DescribeSchema missing %s:\n%s", name, d)
		}
	}
}

func TestAnswerParallelMatchesSequential(t *testing.T) {
	s := mustOpen(t, university.New())
	seq, err := s.Answer("Green SUM Credit", 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := s.AnswerParallel("Green SUM Credit", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("answer counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].SQL.String() != par[i].SQL.String() {
			t.Errorf("answer %d: interpretation order changed", i)
		}
		if len(seq[i].Result.Rows) != len(par[i].Result.Rows) {
			t.Errorf("answer %d: row counts differ", i)
		}
		for r := range seq[i].Result.Rows {
			for c := range seq[i].Result.Rows[r] {
				if !relation.Equal(seq[i].Result.Rows[r][c], par[i].Result.Rows[r][c]) {
					t.Errorf("answer %d row %d differs", i, r)
				}
			}
		}
	}
}

// TestMultipleGroupByTerms: two GROUPBY operators group by two classes at
// once (orders per customer per priority would be the TPCH analog).
func TestMultipleGroupByTerms(t *testing.T) {
	s := mustOpen(t, university.New())
	as, err := s.Answer("COUNT Textbook GROUPBY Course GROUPBY Lecturer", 1)
	if err != nil {
		t.Fatal(err)
	}
	sql := as[0].SQL.String()
	if !strings.Contains(sql, "GROUP BY") || strings.Count(sql, "GROUP BY") != 1 {
		t.Fatalf("one GROUP BY clause with two columns expected:\n%s", sql)
	}
	if len(as[0].SQL.GroupBy) != 2 {
		t.Fatalf("two grouping columns expected: %v", as[0].SQL.GroupBy)
	}
	// Teach has 4 distinct (course, lecturer) pairs.
	if len(as[0].Result.Rows) != 4 {
		t.Errorf("4 course-lecturer groups expected: %v", as[0].Result.Rows)
	}
}

// TestFigure2MoreQueries exercises the Figure 2 denormalized database
// beyond Q3: grouping lecturers by faculty traverses the duplicated
// Did/Fid associations without double counting.
func TestFigure2MoreQueries(t *testing.T) {
	s, err := Open(university.NewDenormalizedLecturer(),
		&Options{NameHints: university.DenormalizedLecturerHints()})
	if err != nil {
		t.Fatal(err)
	}
	as, err := s.Answer("COUNT Lecturer GROUPBY Faculty", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := as[0].Result.Rows
	if len(rows) != 1 {
		t.Fatalf("one faculty expected: %v\nSQL: %s", rows, as[0].SQL)
	}
	if n := rows[0][len(rows[0])-1].(int64); n != 2 {
		t.Errorf("two lecturers in Engineering, got %d\nSQL: %s", n, as[0].SQL)
	}
}

// TestCheckPlans pins the plan verifier seam behind `kwlint -plans`: every
// interpretation's plan is checked and its findings are returned, not
// raised — clean plans give none, plans checked against a schema they were
// not generated for give one per interpretation — while queries that cannot
// be interpreted fail as they do in Answer.
func TestCheckPlans(t *testing.T) {
	s, err := Open(university.NewDenormalizedLecturer(),
		&Options{NameHints: university.DenormalizedLecturerHints()})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"Engineering COUNT Department", "COUNT Lecturer GROUPBY Faculty"}
	for _, q := range queries {
		if fs, err := s.CheckPlans(q, 0); err != nil || len(fs) != 0 {
			t.Errorf("CheckPlans(%q) = %v, %v; want no findings", q, fs, err)
		}
	}
	// Figure 1's Lecturer has no Fid column, which both plans read from the
	// Figure 2 Lecturer relation.
	s.Plan = planck.New(university.New())
	for _, q := range queries {
		ins, err := s.Interpret(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := s.CheckPlans(q, 0)
		if err != nil || len(fs) != len(ins) {
			t.Fatalf("CheckPlans(%q) against Figure 1 = %v, %v; want one finding for each of %d plans", q, fs, err, len(ins))
		}
		for _, f := range fs {
			if f.Rule != "join-key-coverage" || !strings.Contains(f.Detail, "Fid") {
				t.Errorf("CheckPlans(%q): finding %s: %s; want join-key-coverage on Fid", q, f.Rule, f.Detail)
			}
		}
		if one, err := s.CheckPlans(q, 1); err != nil || len(one) != 1 {
			t.Errorf("CheckPlans(%q, 1) = %v, %v; want the top plan's finding only", q, one, err)
		}
	}
	for _, q := range []string{"COUNT", "zzzqqq COUNT Lecturer"} {
		if fs, err := s.CheckPlans(q, 0); err == nil {
			t.Errorf("CheckPlans(%q) = %v, want an error", q, fs)
		}
	}
}
