package sqldb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// TestJoinOrderingCorrectness builds a chain schema with deliberately
// lopsided table sizes and checks the greedy ordering returns the same
// result as the declared order would.
func TestJoinOrderingCorrectness(t *testing.T) {
	db := relation.NewDatabase("chain")
	a := db.AddSchema(relation.NewSchema("A", "id INT", "b INT").Key("id"))
	bt := db.AddSchema(relation.NewSchema("B", "id INT", "c INT").Key("id"))
	c := db.AddSchema(relation.NewSchema("C", "id INT", "v").Key("id"))
	for i := 1; i <= 100; i++ {
		a.MustInsert(int64(i), int64(i%10+1))
	}
	for i := 1; i <= 10; i++ {
		bt.MustInsert(int64(i), int64(i%3+1))
	}
	for i := 1; i <= 3; i++ {
		c.MustInsert(int64(i), fmt.Sprintf("v%d", i))
	}
	db.Freeze()
	// Every FROM permutation must produce the same multiset of rows.
	perms := []string{
		"FROM A, B, C",
		"FROM C, B, A",
		"FROM B, C, A",
	}
	var first []string
	for _, from := range perms {
		res := run(t, db, "SELECT A.id, C.v "+from+" WHERE A.b = B.id AND B.c = C.id")
		got := rowsAsStrings(res)
		if first == nil {
			first = got
			if len(first) != 100 {
				t.Fatalf("expected 100 joined rows, got %d", len(first))
			}
			continue
		}
		if len(got) != len(first) {
			t.Fatalf("permutation %q changed the result size", from)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("permutation %q changed the result", from)
			}
		}
	}
}

// TestDisconnectedFromIsCrossProduct: sources with no connecting predicate
// multiply.
func TestDisconnectedFromIsCrossProduct(t *testing.T) {
	res := run(t, uniDB(t), "SELECT S.Sid, F.Fname FROM Student S, Faculty F")
	if len(res.Rows) != 3 {
		t.Fatalf("3 students x 1 faculty = 3 rows, got %d", len(res.Rows))
	}
}

func TestColComparePredRoundTrip(t *testing.T) {
	sql := "SELECT S1.Sid FROM Student S1, Student S2 WHERE S1.Age < S2.Age"
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Where[0].(sqlast.ColComparePred); !ok {
		t.Fatalf("expected ColComparePred, got %T", q.Where[0])
	}
	if q.String() != sql {
		t.Errorf("round trip: %s", q.String())
	}
}

// TestColComparePredEquality: the parser normalizes S1.A = S2.A into
// JoinPred, but a programmatically built AST can carry OpEq in a
// ColComparePred, and the executor must agree with the reference
// interpreter's cmpMatches instead of silently dropping every row.
func TestColComparePredEquality(t *testing.T) {
	q := &sqlast.Query{
		Select: []sqlast.SelectItem{{Expr: sqlast.ColExpr{Col: sqlast.Col{Table: "S1", Column: "Sid"}}}},
		From: []sqlast.TableRef{
			{Name: "Student", Alias: "S1"},
			{Name: "Student", Alias: "S2"},
		},
		Where: []sqlast.Pred{sqlast.ColComparePred{
			Left:  sqlast.Col{Table: "S1", Column: "Sid"},
			Op:    sqlast.OpEq,
			Right: sqlast.Col{Table: "S2", Column: "Sid"},
		}},
	}
	res, err := execQuery(uniDB(t), q)
	if err != nil {
		t.Fatal(err)
	}
	want := len(run(t, uniDB(t), "SELECT S.Sid FROM Student S").Rows)
	if want == 0 || len(res.Rows) != want {
		t.Fatalf("self-equality kept %d rows, want %d (one per student)", len(res.Rows), want)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT x FROM T WHERE x = 'open",
		"SELECT x FROM T WHERE x = $bad",
		"SELECT ; FROM T",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestDeepNesting(t *testing.T) {
	sql := "SELECT MAX(R.n) AS m FROM (SELECT COUNT(X.Sid) AS n FROM " +
		"(SELECT E.Sid, E.Code FROM Enrol E) X GROUP BY X.Code) R"
	res := run(t, uniDB(t), sql)
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 3 {
		t.Errorf("three levels of nesting: %v", rowsAsStrings(res))
	}
}

// TestGroupKeysWithNulls: NULL group keys form their own group.
func TestGroupKeysWithNulls(t *testing.T) {
	db := relation.NewDatabase("g")
	tb := db.AddSchema(relation.NewSchema("T", "k", "v INT").Key("k", "v"))
	tb.MustInsert("a", int64(1))
	tb.MustInsert(nil, int64(2))
	tb.MustInsert(nil, int64(3))
	db.Freeze()
	res := run(t, db, "SELECT T.k, COUNT(T.v) AS n FROM T GROUP BY T.k")
	if len(res.Rows) != 2 {
		t.Fatalf("NULL keys group together: %v", rowsAsStrings(res))
	}
}

// TestSubqueryAliasScoping: the outer query sees only the derived table's
// columns under its alias.
func TestSubqueryAliasScoping(t *testing.T) {
	if _, err := ExecSQL(uniDB(t),
		"SELECT E.Grade FROM (SELECT DISTINCT Sid FROM Enrol) E"); err == nil {
		t.Error("columns projected away must be invisible")
	}
}

// TestAggregateIntFloatTyping: SUM over ints stays integral; over floats it
// is a float; AVG is always a float.
func TestAggregateIntFloatTyping(t *testing.T) {
	db := uniDB(t)
	res := run(t, db, "SELECT SUM(S.Age) AS s FROM Student S")
	if _, ok := res.Rows[0][0].(int64); !ok {
		t.Errorf("integer SUM should be int64: %T", res.Rows[0][0])
	}
	res = run(t, db, "SELECT SUM(C.Credit) AS s FROM Course C")
	if _, ok := res.Rows[0][0].(float64); !ok {
		t.Errorf("float SUM should be float64: %T", res.Rows[0][0])
	}
	res = run(t, db, "SELECT AVG(S.Age) AS a FROM Student S")
	if _, ok := res.Rows[0][0].(float64); !ok {
		t.Errorf("AVG should be float64: %T", res.Rows[0][0])
	}
}

func TestExplainPlan(t *testing.T) {
	db := uniDB(t)
	plan, err := ExplainSQL(db,
		"SELECT S.Sname, SUM(C.Credit) AS s FROM Student S, Enrol E, Course C "+
			"WHERE E.Sid=S.Sid AND E.Code=C.Code AND S.Sname CONTAINS 'Green' GROUP BY S.Sname")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shape != "group-by" {
		t.Errorf("shape: %s", plan.Shape)
	}
	if len(plan.Sources) != 3 || len(plan.Steps) != 2 {
		t.Fatalf("plan structure: %+v", plan)
	}
	// The contains-filter is pushed into the Student scan.
	pushed := false
	for _, s := range plan.Sources {
		if s.Alias == "S" && len(s.Pushed) == 1 {
			pushed = true
		}
	}
	if !pushed {
		t.Errorf("filter not pushed down:\n%s", plan)
	}
	// Both joins are hash joins.
	for _, st := range plan.Steps {
		if st.Strategy != "hash join" || len(st.On) == 0 {
			t.Errorf("join step: %+v", st)
		}
	}
	text := plan.String()
	for _, frag := range []string{"group-by", "scan Student as S", "hash join"} {
		if !strings.Contains(text, frag) {
			t.Errorf("plan text missing %q:\n%s", frag, text)
		}
	}
}

func TestExplainCrossJoinAndDerived(t *testing.T) {
	db := uniDB(t)
	plan, err := ExplainSQL(db,
		"SELECT COUNT(T.Lid) AS n FROM Faculty F, (SELECT DISTINCT Lid, Code FROM Teach) T")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 1 || plan.Steps[0].Strategy != "cross join" {
		t.Errorf("disconnected sources should cross join: %+v", plan.Steps)
	}
	derived := false
	for _, s := range plan.Sources {
		if s.Derived != nil && s.Name == "(subquery)" {
			derived = true
		}
	}
	if !derived {
		t.Errorf("derived table plan missing:\n%s", plan)
	}
}

// orderDB holds two tables that share a column name X, frozen.
func orderDB() *relation.Database {
	db := relation.NewDatabase("order")
	a := db.AddSchema(relation.NewSchema("A", "K INT", "X").Key("K"))
	a.MustInsert(int64(1), "a1")
	a.MustInsert(int64(2), "a2")
	b := db.AddSchema(relation.NewSchema("B", "K INT", "X").Key("K"))
	b.MustInsert(int64(1), "z")
	b.MustInsert(int64(2), "b")
	db.Freeze()
	return db
}

// TestOrderByResolvesAgainstSelectList: ORDER BY items resolve against the
// SELECT list as in sqlite3. A qualified column picks the item selecting
// that table's column, not the first output column of the same name; an
// alias matches by name; an unqualified name two items carry is ambiguous.
func TestOrderByResolvesAgainstSelectList(t *testing.T) {
	db := orderDB()
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{"SELECT A.X, B.X FROM A A, B B WHERE A.K = B.K ORDER BY B.X", []string{"a2|b", "a1|z"}},
		{"SELECT A.X, B.X FROM A A, B B WHERE A.K = B.K ORDER BY A.X DESC", []string{"a2|b", "a1|z"}},
		{"SELECT A.X, B.X AS y FROM A A, B B WHERE A.K = B.K ORDER BY y", []string{"a2|b", "a1|z"}},
		{"SELECT B.X AS y FROM B B ORDER BY X", []string{"b", "z"}},
	} {
		res, err := ExecSQL(db, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := rowsAsStrings(res); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: rows %v, want %v", c.sql, got, c.want)
		}
	}
	_, err := ExecSQL(db, "SELECT A.X, B.X FROM A A, B B WHERE A.K = B.K ORDER BY X")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous ORDER BY X: err = %v, want an ambiguity error", err)
	}
}

// TestLimitZero: LIMIT 0 returns no row and survives parse, render and
// clone; only a missing LIMIT clause returns every row.
func TestLimitZero(t *testing.T) {
	db := orderDB()
	q, err := Parse("SELECT A.X FROM A A LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit == nil || *q.Limit != 0 {
		t.Fatalf("Limit = %v, want 0", q.Limit)
	}
	for _, text := range []string{q.String(), q.Clone().String(), q.Pretty()} {
		if !strings.HasSuffix(text, "LIMIT 0") {
			t.Errorf("LIMIT 0 lost in rendering: %q", text)
		}
	}
	res, err := execQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("LIMIT 0 returned %v", rowsAsStrings(res))
	}
	res, err = ExecSQL(db, "SELECT A.X FROM A A")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("no LIMIT returned %v", rowsAsStrings(res))
	}
}

// TestExecRequiresFrozen: the executor reads frozen tables only, and every
// entry point names the table it found unfrozen.
func TestExecRequiresFrozen(t *testing.T) {
	db := relation.NewDatabase("open")
	tb := db.AddSchema(relation.NewSchema("Loose", "K INT").Key("K"))
	tb.MustInsert(int64(1))
	q, err := Parse("SELECT L.K FROM Loose L")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExecOpts(context.Background(), db, q, ExecConfig{}); err == nil || !strings.Contains(err.Error(), `"Loose" is not frozen`) {
		t.Errorf("ExecOpts on an unfrozen table: err = %v", err)
	}
	if _, err := Explain(db, q); err == nil || !strings.Contains(err.Error(), `"Loose" is not frozen`) {
		t.Errorf("Explain on an unfrozen table: err = %v", err)
	}
}

// TestAggregateJoinLeavesRemapCacheFlat runs 200 statements that join a
// base column to an aggregate output: every statement builds a per-result
// dictionary for the output, and remaps involving it stay uncached, so no
// base dictionary's remap cache grows past its warm-up size.
func TestAggregateJoinLeavesRemapCacheFlat(t *testing.T) {
	db := relation.NewDatabase("remap")
	tt := db.AddSchema(relation.NewSchema("T", "K INT", "V INT").Key("K"))
	uu := db.AddSchema(relation.NewSchema("U", "K INT", "G INT").Key("K"))
	for i := 0; i < 64; i++ {
		tt.MustInsert(int64(i), int64(i))
		uu.MustInsert(int64(i), int64(i%5))
	}
	db.Freeze()
	var dicts []*relation.Dict
	for _, tb := range db.Tables() {
		d, _, _ := tb.Encoding()
		dicts = append(dicts, d...)
	}
	cached := func() []int {
		var n []int
		for _, d := range dicts {
			n = append(n, d.CachedRemaps())
		}
		return n
	}
	stmt := func(i int) string {
		// T's three filtered rows start the join order, so the probe remaps
		// T.V's base dictionary into D.n's per-result one.
		return fmt.Sprintf("SELECT T.K, D.k FROM T, (SELECT U.K AS k, COUNT(U.G) AS n FROM U WHERE U.K > %d GROUP BY U.K) D WHERE T.K < 3 AND T.V = D.n", i%7)
	}
	if _, err := ExecSQL(db, stmt(0)); err != nil {
		t.Fatal(err)
	}
	warm := cached()
	for i := 0; i < 200; i++ {
		res, err := ExecSQL(db, stmt(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no rows; the join on the aggregate output matched nothing", stmt(i))
		}
	}
	if got := cached(); fmt.Sprint(got) != fmt.Sprint(warm) {
		t.Errorf("base remap caches grew from %v to %v", warm, got)
	}
}
