package sqak

import (
	"errors"
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/relation"
)

// frozen freezes a fixture database: the executor reads frozen tables only,
// as every production caller's core.Open-frozen database is.
func frozen(db *relation.Database) *relation.Database {
	db.Freeze()
	return db
}

// TestQ1_MergesSameNameStudents reproduces the introduction's Q1: SQAK sums
// the credits of both students called Green into one row of 13.
func TestQ1_MergesSameNameStudents(t *testing.T) {
	s := New(frozen(university.New()))
	res, sql, err := s.Answer("Green SUM Credit")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 merged row, got:\n%s\nSQL: %s", res, sql)
	}
	f, _ := relation.AsFloat(res.Rows[0][len(res.Rows[0])-1])
	if f != 13 {
		t.Fatalf("want SQAK's incorrect total 13, got %v\nSQL: %s", f, sql)
	}
}

// TestQ2_CountsTextbookDuplicates reproduces Q2: SQAK joins the full Teach
// relation and counts textbook b1 twice, returning 35 instead of 25.
func TestQ2_CountsTextbookDuplicates(t *testing.T) {
	s := New(frozen(university.New()))
	res, sql, err := s.Answer("Java SUM Price")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got:\n%s\nSQL: %s", res, sql)
	}
	f, _ := relation.AsFloat(res.Rows[0][len(res.Rows[0])-1])
	if f != 35 {
		t.Fatalf("want SQAK's incorrect total 35, got %v\nSQL: %s", f, sql)
	}
}

// TestQ3_UnnormalizedDuplicates reproduces Q3 on the Figure 2 database:
// SQAK joins Lecturer wholesale and counts the CS department once per
// lecturer, returning 2.
func TestQ3_UnnormalizedDuplicates(t *testing.T) {
	s := New(frozen(university.NewDenormalizedLecturer()))
	res, sql, err := s.Answer("Engineering COUNT Department")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got:\n%s\nSQL: %s", res, sql)
	}
	if n := res.Rows[0][len(res.Rows[0])-1].(int64); n != 2 {
		t.Fatalf("want SQAK's incorrect count 2, got %d\nSQL: %s", n, sql)
	}
}

// TestSelfJoinRejected: two value terms on the same relation need a self
// join, which SQAK refuses.
func TestSelfJoinRejected(t *testing.T) {
	s := New(frozen(university.New()))
	// Both phrases match only Textbook.Tname, so every match combination
	// needs two Textbook instances.
	_, err := s.Translate(`COUNT Lecturer "Programming Language" "Discrete Mathematics"`)
	if !errors.Is(err, ErrSelfJoin) {
		t.Fatalf("want ErrSelfJoin, got %v", err)
	}
}

// TestMultipleAggregatesRejected: two separate aggregate applications are
// beyond SQAK's single-aggregate SELECT restriction.
func TestMultipleAggregatesRejected(t *testing.T) {
	s := New(frozen(university.New()))
	_, err := s.Translate("COUNT Course SUM Credit")
	if !errors.Is(err, ErrMultipleAggregates) {
		t.Fatalf("want ErrMultipleAggregates, got %v", err)
	}
}

// TestNestedAggregateRun: an adjacent MAX COUNT run is one application and
// is supported via a nested query.
func TestNestedAggregateRun(t *testing.T) {
	s := New(frozen(university.New()))
	res, sql, err := s.Answer("MAX COUNT Student GROUPBY Course")
	if err != nil {
		t.Fatalf("Answer: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("want 1 row, got:\n%s\nSQL: %s", res, sql)
	}
	if n := res.Rows[0][0].(int64); n != 3 {
		t.Fatalf("want max 3 students in a course, got %d\nSQL: %s", n, sql)
	}
}

// TestQ1SQLShape checks the statement SQAK generates for Q1 matches the
// paper's introduction: join Student-Enrol-Course, condition on Sname,
// group by the condition attribute.
func TestQ1SQLShape(t *testing.T) {
	s := New(frozen(university.New()))
	sql, err := s.Translate("Green SUM Credit")
	if err != nil {
		t.Fatal(err)
	}
	text := sql.String()
	for _, frag := range []string{"Student", "Enrol", "Course", "SUM(", "CONTAINS 'Green'", "GROUP BY"} {
		if !strings.Contains(text, frag) {
			t.Errorf("Q1 SQL missing %q:\n%s", frag, text)
		}
	}
	if strings.Contains(text, "DISTINCT") {
		t.Errorf("SQAK never projects relationships:\n%s", text)
	}
}

// TestCountRelationName: COUNT over a relation-name match counts the
// relation's first key attribute.
func TestCountRelationName(t *testing.T) {
	s := New(frozen(university.New()))
	sql, err := s.Translate("COUNT Student GROUPBY Course")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.String(), "COUNT(") || !strings.Contains(sql.String(), ".Sid)") {
		t.Errorf("COUNT Student should count Sid:\n%s", sql)
	}
}

// TestMinimalSQN: SQAK connects matched relations with a minimal subgraph;
// {Green SUM Credit} must not drag in Teach or Textbook.
func TestMinimalSQN(t *testing.T) {
	s := New(frozen(university.New()))
	sql, err := s.Translate("Green SUM Credit")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"Teach", "Textbook", "Lecturer"} {
		if strings.Contains(sql.String(), bad) {
			t.Errorf("SQN not minimal, contains %s:\n%s", bad, sql)
		}
	}
}

// TestNoMatchError: a term matching nothing is an error.
func TestNoMatchError(t *testing.T) {
	s := New(frozen(university.New()))
	if _, err := s.Translate("zzznothing SUM Credit"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("want ErrNoMatch, got %v", err)
	}
}

// TestGroupByValueTermUsesAttr: a GROUPBY operand that only matches values
// groups by the matched attribute (SQAK's behaviour on denormalized TPCH').
func TestGroupByValueTermUsesAttr(t *testing.T) {
	s := New(frozen(university.New()))
	sql, err := s.Translate("COUNT Code GROUPBY Steven")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql.String(), "GROUP BY") || !strings.Contains(sql.String(), "Lname") {
		t.Errorf("value-term GROUPBY should group by the matched attribute:\n%s", sql)
	}
}

// TestPureKeywordQuery: without operators SQAK returns the matched
// condition attributes.
func TestPureKeywordQuery(t *testing.T) {
	s := New(frozen(university.New()))
	res, sql, err := s.Answer("Green Java")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Errorf("expected rows for pure keyword query\nSQL: %s", sql)
	}
}

// TestAnswerSortsDeterministically: repeated runs return identical rows.
func TestAnswerSortsDeterministically(t *testing.T) {
	s := New(frozen(university.New()))
	a, _, err := s.Answer("COUNT Student GROUPBY Course")
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := s.Answer("COUNT Student GROUPBY Course")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ across runs")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !relation.Equal(a.Rows[i][j], b.Rows[i][j]) {
				t.Fatal("rows differ across runs")
			}
		}
	}
}
