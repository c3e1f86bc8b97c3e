package sqldb

import (
	"context"
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// uniDB returns the frozen university database: the executor reads frozen
// tables only.
func uniDB(t *testing.T) *relation.Database {
	t.Helper()
	db := university.New()
	db.Freeze()
	return db
}

// run executes sql against the university database and returns the sorted
// result.
func run(t *testing.T, db *relation.Database, sql string) *Result {
	t.Helper()
	res, err := ExecSQL(db, sql)
	if err != nil {
		t.Fatalf("ExecSQL(%q): %v", sql, err)
	}
	res.SortRows()
	return res
}

// execQuery executes a parsed statement with the default configuration: no
// cancellable context, no memo, single-shard.
func execQuery(db *relation.Database, q *sqlast.Query) (*Result, error) {
	res, _, err := ExecOpts(context.Background(), db, q, ExecConfig{})
	return res, err
}

func rowsAsStrings(res *Result) []string {
	var out []string
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = relation.Format(v)
		}
		out = append(out, strings.Join(parts, "|"))
	}
	return out
}

func expectRows(t *testing.T, res *Result, want ...string) {
	t.Helper()
	got := rowsAsStrings(res)
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rows = %v, want %v", got, want)
		}
	}
}

func TestSimpleProjection(t *testing.T) {
	res := run(t, uniDB(t), "SELECT S.Sid, S.Sname FROM Student S")
	expectRows(t, res, "s1|George", "s2|Green", "s3|Green")
	if res.Columns[0] != "Sid" || res.Columns[1] != "Sname" {
		t.Errorf("columns: %v", res.Columns)
	}
}

func TestComparisonOperators(t *testing.T) {
	db := uniDB(t)
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT S.Sid FROM Student S WHERE S.Age = 22", []string{"s1"}},
		{"SELECT S.Sid FROM Student S WHERE S.Age <> 22", []string{"s2", "s3"}},
		{"SELECT S.Sid FROM Student S WHERE S.Age > 21", []string{"s1", "s2"}},
		{"SELECT S.Sid FROM Student S WHERE S.Age >= 22", []string{"s1", "s2"}},
		{"SELECT S.Sid FROM Student S WHERE S.Age < 22", []string{"s3"}},
		{"SELECT S.Sid FROM Student S WHERE S.Age <= 21", []string{"s3"}},
		{"SELECT S.Sid FROM Student S WHERE S.Sname = 'Green'", []string{"s2", "s3"}},
		{"SELECT S.Sid FROM Student S WHERE S.Sname CONTAINS 'geo'", []string{"s1"}},
	}
	for _, c := range cases {
		expectRows(t, run(t, db, c.sql), c.want...)
	}
}

func TestHashJoin(t *testing.T) {
	res := run(t, uniDB(t),
		"SELECT S.Sname, C.Title FROM Student S, Enrol E, Course C "+
			"WHERE E.Sid=S.Sid AND E.Code=C.Code AND S.Sid = 's2'")
	expectRows(t, res, "Green|Java")
}

func TestJoinOrderIndependence(t *testing.T) {
	a := run(t, uniDB(t),
		"SELECT S.Sid, C.Code FROM Student S, Enrol E, Course C WHERE E.Sid=S.Sid AND E.Code=C.Code")
	b := run(t, uniDB(t),
		"SELECT S.Sid, C.Code FROM Course C, Student S, Enrol E WHERE E.Code=C.Code AND E.Sid=S.Sid")
	if strings.Join(rowsAsStrings(a), ";") != strings.Join(rowsAsStrings(b), ";") {
		t.Errorf("join order changed the result:\n%v\n%v", rowsAsStrings(a), rowsAsStrings(b))
	}
}

func TestCrossJoinWithLateFilter(t *testing.T) {
	// No join predicate connects the two tables when the second is added;
	// the predicate closes the cycle afterwards.
	res := run(t, uniDB(t),
		"SELECT S1.Sid, S2.Sid FROM Student S1, Student S2 WHERE S1.Sname=S2.Sname AND S1.Age < S2.Age")
	expectRows(t, res, "s3|s2")
}

func TestSelfJoinExample5(t *testing.T) {
	// The paper's Example 5 statement, executed.
	res := run(t, uniDB(t),
		"SELECT S1.Sid, COUNT(C.Code) AS numCode "+
			"FROM Course C, Enrol E1, Student S1, Enrol E2, Student S2 "+
			"WHERE C.Code=E1.Code AND C.Code=E2.Code AND S1.Sid=E1.Sid "+
			"AND S1.Sname CONTAINS 'Green' AND S2.Sid=E2.Sid AND S2.Sname CONTAINS 'George' "+
			"GROUP BY S1.Sid")
	expectRows(t, res, "s2|1", "s3|2")
}

func TestAggregates(t *testing.T) {
	db := uniDB(t)
	cases := []struct {
		sql, want string
	}{
		{"SELECT COUNT(S.Sid) AS n FROM Student S", "3"},
		{"SELECT SUM(C.Credit) AS s FROM Course C", "12"},
		{"SELECT AVG(C.Credit) AS a FROM Course C", "4"},
		{"SELECT MIN(C.Credit) AS m FROM Course C", "3"},
		{"SELECT MAX(C.Credit) AS m FROM Course C", "5"},
		{"SELECT MIN(S.Sname) AS m FROM Student S", "George"},
		{"SELECT MAX(S.Sname) AS m FROM Student S", "Green"},
		{"SELECT COUNT(DISTINCT S.Sname) AS n FROM Student S", "2"},
	}
	for _, c := range cases {
		res := run(t, db, c.sql)
		if len(res.Rows) != 1 || relation.Format(res.Rows[0][0]) != c.want {
			t.Errorf("%s = %v, want %s", c.sql, rowsAsStrings(res), c.want)
		}
	}
}

func TestGroupBy(t *testing.T) {
	res := run(t, uniDB(t),
		"SELECT E.Code, COUNT(E.Sid) AS n FROM Enrol E GROUP BY E.Code")
	expectRows(t, res, "c1|3", "c2|1", "c3|2")
}

func TestGroupByMultipleColumns(t *testing.T) {
	res := run(t, uniDB(t),
		"SELECT T.Code, T.Lid, COUNT(T.Bid) AS n FROM Teach T GROUP BY T.Code, T.Lid")
	expectRows(t, res, "c1|l1|2", "c1|l2|1", "c2|l1|2", "c3|l2|1")
}

func TestAggregateOverEmptyInput(t *testing.T) {
	db := uniDB(t)
	// COUNT over an empty selection is 0; MIN/MAX/SUM/AVG are NULL.
	res := run(t, db, "SELECT COUNT(S.Sid) AS n FROM Student S WHERE S.Sname = 'Nobody'")
	expectRows(t, res, "0")
	res = run(t, db, "SELECT MAX(S.Age) AS m FROM Student S WHERE S.Sname = 'Nobody'")
	expectRows(t, res, "NULL")
	res = run(t, db, "SELECT SUM(S.Age) AS s FROM Student S WHERE S.Sname = 'Nobody'")
	expectRows(t, res, "NULL")
	// With GROUP BY, an empty input yields no groups at all.
	res = run(t, db, "SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S WHERE S.Sname = 'Nobody' GROUP BY S.Sname")
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty input should have no rows: %v", rowsAsStrings(res))
	}
}

func TestDistinct(t *testing.T) {
	res := run(t, uniDB(t), "SELECT DISTINCT S.Sname FROM Student S")
	expectRows(t, res, "George", "Green")
}

func TestDistinctProjectionOfRelationship(t *testing.T) {
	// The Example 6 projection: 6 Teach rows collapse to 4 (Lid, Code) pairs.
	res := run(t, uniDB(t), "SELECT DISTINCT T.Lid, T.Code FROM Teach T")
	if len(res.Rows) != 4 {
		t.Errorf("want 4 distinct pairs, got %v", rowsAsStrings(res))
	}
}

func TestDerivedTable(t *testing.T) {
	res := run(t, uniDB(t),
		"SELECT COUNT(T.Lid) AS n FROM (SELECT DISTINCT Lid, Code FROM Teach) T WHERE T.Code = 'c1'")
	expectRows(t, res, "2")
}

func TestNestedAggregateExample7(t *testing.T) {
	res := run(t, uniDB(t),
		"SELECT AVG(R.numLid) AS avgnumLid FROM (SELECT C.Code, COUNT(L.Lid) AS numLid "+
			"FROM Lecturer L, Course C, (SELECT DISTINCT Lid, Code FROM Teach) T "+
			"WHERE T.Lid=L.Lid AND T.Code=C.Code GROUP BY C.Code) R")
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %v", rowsAsStrings(res))
	}
	f, _ := relation.AsFloat(res.Rows[0][0])
	if f < 1.33 || f > 1.34 {
		t.Errorf("Example 7 average: %v, want 4/3", f)
	}
}

func TestOrderBy(t *testing.T) {
	res, err := ExecSQL(uniDB(t), "SELECT S.Sid, S.Age FROM Student S ORDER BY S.Age DESC")
	if err != nil {
		t.Fatal(err)
	}
	got := rowsAsStrings(res)
	if got[0] != "s2|24" || got[2] != "s3|21" {
		t.Errorf("order by desc: %v", got)
	}
}

func TestNullsExcludedFromJoinsAndAggregates(t *testing.T) {
	db := relation.NewDatabase("nulls")
	tb := db.AddSchema(relation.NewSchema("T", "id INT", "v INT").Key("id"))
	tb.MustInsert(int64(1), int64(10))
	tb.MustInsert(int64(2), nil)
	tb.MustInsert(int64(3), int64(30))
	db.Freeze()
	res := run(t, db, "SELECT COUNT(T.v) AS n FROM T")
	expectRows(t, res, "2") // NULL not counted
	res = run(t, db, "SELECT SUM(T.v) AS s FROM T")
	expectRows(t, res, "40")
	res = run(t, db, "SELECT AVG(T.v) AS a FROM T")
	expectRows(t, res, "20") // average over non-null values only
	// NULL never matches a join.
	u := db.AddSchema(relation.NewSchema("U", "v INT").Key("v"))
	u.MustInsert(nil)
	u.MustInsert(int64(10))
	u.Freeze()
	res = run(t, db, "SELECT T.id FROM T, U WHERE T.v = U.v")
	expectRows(t, res, "1")
}

func TestUnqualifiedColumnResolution(t *testing.T) {
	res := run(t, uniDB(t), "SELECT Sname FROM Student S WHERE Age > 23")
	expectRows(t, res, "Green")
}

func TestExecErrors(t *testing.T) {
	db := uniDB(t)
	bad := []string{
		"SELECT X.Sid FROM NoSuchTable X",
		"SELECT S.NoSuchColumn FROM Student S",
		"SELECT Sid FROM Student S1, Student S2",  // ambiguous unqualified
		"SELECT SUM(S.Sname) AS s FROM Student S", // SUM over strings
	}
	for _, sql := range bad {
		if _, err := ExecSQL(db, sql); err == nil {
			t.Errorf("ExecSQL(%q) should fail", sql)
		}
	}
}

func TestResultString(t *testing.T) {
	res := run(t, uniDB(t), "SELECT S.Sid, S.Sname FROM Student S WHERE S.Sid = 's1'")
	s := res.String()
	if !strings.Contains(s, "Sid") || !strings.Contains(s, "George") {
		t.Errorf("Result.String: %q", s)
	}
}

func TestColumnNamingDefaults(t *testing.T) {
	res := run(t, uniDB(t), "SELECT COUNT(S.Sid) FROM Student S")
	if res.Columns[0] != "COUNT(S.Sid)" {
		t.Errorf("unaliased aggregate column name: %q", res.Columns[0])
	}
	res = run(t, uniDB(t), "SELECT S.Sid AS ident FROM Student S")
	if res.Columns[0] != "ident" {
		t.Errorf("alias not used: %q", res.Columns[0])
	}
}

func TestGroupByNonAggregatedColumnTakesGroupValue(t *testing.T) {
	res := run(t, uniDB(t),
		"SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Sname")
	expectRows(t, res, "George|1", "Green|2")
}

func TestLimit(t *testing.T) {
	res := run(t, uniDB(t), "SELECT S.Sid FROM Student S ORDER BY S.Sid LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("LIMIT 2: %v", rowsAsStrings(res))
	}
	// LIMIT larger than the result is a no-op.
	res = run(t, uniDB(t), "SELECT S.Sid FROM Student S LIMIT 99")
	if len(res.Rows) != 3 {
		t.Fatalf("LIMIT 99: %v", rowsAsStrings(res))
	}
}

func TestLimitParsesAndRenders(t *testing.T) {
	q, err := Parse("SELECT S.Sid FROM Student S LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit == nil || *q.Limit != 5 {
		t.Errorf("Limit = %v", q.Limit)
	}
	if got := q.String(); got != "SELECT S.Sid FROM Student S LIMIT 5" {
		t.Errorf("render: %s", got)
	}
	if _, err := Parse("SELECT x FROM T LIMIT -3"); err == nil {
		t.Error("negative LIMIT should fail")
	}
	if _, err := Parse("SELECT x FROM T LIMIT x"); err == nil {
		t.Error("non-numeric LIMIT should fail")
	}
}
