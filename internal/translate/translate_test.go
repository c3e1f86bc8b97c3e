package translate

import (
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/keyword"
	"kwagg/internal/match"
	"kwagg/internal/normalize"
	"kwagg/internal/orm"
	"kwagg/internal/pattern"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// harness bundles generator and translator over one database.
type harness struct {
	gen *pattern.Generator
	tr  *Translator
	db  *relation.Database
}

func normalizedHarness(t *testing.T, db *relation.Database) *harness {
	t.Helper()
	g, err := orm.Build(db.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return &harness{
		gen: pattern.NewGenerator(match.New(db, db.Schemas(), g, nil)),
		tr:  New(g, db),
		db:  db,
	}
}

func unnormalizedHarness(t *testing.T, db *relation.Database, hints map[string]string) *harness {
	t.Helper()
	view, err := normalize.BuildView(db, hints)
	if err != nil {
		t.Fatal(err)
	}
	g, err := orm.Build(view.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return &harness{
		gen: pattern.NewGenerator(match.New(db, view.Schemas, g, view.Sources)),
		tr:  &Translator{Graph: g, Data: db, Sources: view.Sources, Rewrite: true},
		db:  db,
	}
}

// translateAll returns the SQL of every ranked interpretation.
func (h *harness) translateAll(t *testing.T, query string) []string {
	t.Helper()
	q, err := keyword.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := h.gen.Generate(q)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range ps {
		sql, err := h.tr.Translate(p)
		if err != nil {
			t.Fatalf("translate %s: %v", p, err)
		}
		out = append(out, sql.String())
	}
	return out
}

func pick(t *testing.T, sqls []string, frags ...string) string {
	t.Helper()
	for _, sql := range sqls {
		ok := true
		for _, f := range frags {
			if !strings.Contains(sql, f) {
				ok = false
			}
		}
		if ok {
			return sql
		}
	}
	t.Fatalf("no SQL contains %v in:\n%s", frags, strings.Join(sqls, "\n"))
	return ""
}

// TestExample5SQL: the disambiguated {Green George COUNT Code} statement has
// the structure of the paper's Example 5: self-joined Students and Enrols,
// both contains-conditions, grouping on the Green student's Sid.
func TestExample5SQL(t *testing.T) {
	h := normalizedHarness(t, university.New())
	sql := pick(t, h.translateAll(t, "Green George COUNT Code"), "GROUP BY", "COUNT(")
	for _, frag := range []string{
		"CONTAINS 'Green'", "CONTAINS 'George'", "GROUP BY", "COUNT(", ".Sid",
	} {
		if !strings.Contains(sql, frag) {
			t.Errorf("Example 5 SQL missing %q:\n%s", frag, sql)
		}
	}
	// Two Student and two Enrol instances (self joins).
	if strings.Count(sql, "Student") != 2 || strings.Count(sql, "Enrol") != 2 {
		t.Errorf("Example 5 needs self joins:\n%s", sql)
	}
}

// TestExample6ProjectionRule: {COUNT Lecturer GROUPBY Course} joins a
// DISTINCT (Lid, Code) projection of Teach, never the raw ternary relation.
func TestExample6ProjectionRule(t *testing.T) {
	h := normalizedHarness(t, university.New())
	sql := pick(t, h.translateAll(t, "COUNT Lecturer GROUPBY Course"), "GROUP BY")
	if !strings.Contains(sql, "(SELECT DISTINCT Lid, Code FROM Teach)") &&
		!strings.Contains(sql, "(SELECT DISTINCT Code, Lid FROM Teach)") {
		t.Errorf("Example 6 projection missing:\n%s", sql)
	}
}

// TestFullRelationshipNotProjected: when every participant is joined, the
// relationship relation is used directly.
func TestFullRelationshipNotProjected(t *testing.T) {
	h := normalizedHarness(t, university.New())
	sqls := h.translateAll(t, "Green COUNT Code")
	sql := pick(t, sqls, "COUNT(")
	if strings.Contains(sql, "DISTINCT") && strings.Contains(sql, "FROM Enrol)") {
		t.Errorf("binary Enrol fully joined must not be projected:\n%s", sql)
	}
}

// TestExample7NestedSQL: the nested aggregate wraps the inner grouped query
// in a derived table.
func TestExample7NestedSQL(t *testing.T) {
	h := normalizedHarness(t, university.New())
	sql := pick(t, h.translateAll(t, "AVG COUNT Lecturer GROUPBY Course"), "AVG(")
	if !strings.Contains(sql, "AVG(R.numLid)") {
		t.Errorf("outer AVG over inner alias missing:\n%s", sql)
	}
	if !strings.Contains(sql, "GROUP BY") || !strings.Contains(sql, ") R") {
		t.Errorf("nested structure missing:\n%s", sql)
	}
}

// TestGeneratedSQLAlwaysParses: every interpretation of a battery of queries
// renders to SQL the engine parses and executes.
func TestGeneratedSQLAlwaysParses(t *testing.T) {
	h := normalizedHarness(t, university.New())
	queries := []string{
		"Green SUM Credit",
		"Java SUM Price",
		"COUNT Student GROUPBY Course",
		"AVG COUNT Student GROUPBY Course",
		"Green George Code",
		"Lecturer George",
		"COUNT Course GROUPBY Lecturer",
		"MIN Price GROUPBY Course",
	}
	for _, q := range queries {
		for _, sql := range h.translateAll(t, q) {
			if _, err := sqldb.ExecSQL(h.db, sql); err != nil {
				t.Errorf("query %q generated unexecutable SQL: %v\n%s", q, err, sql)
			}
		}
	}
}

// TestExample9And10Rewriting: on the Figure 8 database the rewritten
// statement joins Enrolment with itself (Rule 3) instead of five projection
// subqueries, keeps both conditions, and executes to the same answers.
func TestExample9And10Rewriting(t *testing.T) {
	h := unnormalizedHarness(t, university.NewEnrolment(), university.EnrolmentHints())
	sqls := h.translateAll(t, "Green George COUNT Code")
	sql := pick(t, sqls, "GROUP BY")
	if strings.Count(sql, "FROM Enrolment") == 0 || strings.Contains(sql, "SELECT DISTINCT") {
		t.Errorf("Rule 3 should collapse to base Enrolment instances:\n%s", sql)
	}
	if strings.Count(sql, "Enrolment R") != 2 {
		t.Errorf("Example 10 uses two Enrolment instances:\n%s", sql)
	}
	res, err := sqldb.ExecSQL(h.db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("Example 10 answers: %v", res.Rows)
	}
}

// TestRule3RequiresAnchor: a lone projection that loses the stored key must
// NOT be replaced by the base relation (it deduplicates on purpose).
func TestRule3RequiresAnchor(t *testing.T) {
	h := unnormalizedHarness(t, university.NewEnrolment(), university.EnrolmentHints())
	sqls := h.translateAll(t, "Course AVG Credit")
	sql := sqls[0]
	if !strings.Contains(sql, "SELECT DISTINCT") {
		t.Errorf("Course' projection must stay DISTINCT:\n%s", sql)
	}
	res, err := sqldb.ExecSQL(h.db, sql)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := relation.AsFloat(res.Rows[0][len(res.Rows[0])-1])
	if f != 4 {
		t.Errorf("AVG credit over distinct courses should be (5+4+3)/3 = 4, got %v", f)
	}
}

// TestRule1KeepsIdentity: pruning never drops the key of a DISTINCT
// projection, even when nothing references it, so objects that agree on the
// remaining attributes stay distinct.
func TestRule1KeepsIdentity(t *testing.T) {
	h := unnormalizedHarness(t, university.NewEnrolment(), university.EnrolmentHints())
	sqls := h.translateAll(t, "Student AVG Age")
	sql := sqls[0]
	// s2 (24) and s3 (21) are both Green; a pages-style projection of Age
	// alone would still be fine here, but Sid must survive for correctness
	// when ages collide. George appears 3 times in Enrolment: without
	// DISTINCT on (Sid, Age) the average would be skewed.
	res, err := sqldb.ExecSQL(h.db, sql)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := relation.AsFloat(res.Rows[0][len(res.Rows[0])-1])
	want := (22.0 + 24.0 + 21.0) / 3.0
	if f < want-0.01 || f > want+0.01 {
		t.Errorf("AVG age should be %v (one row per student), got %v\n%s", want, f, sql)
	}
}

// TestRule2PushesConditions: contains-conditions on projection subqueries
// move into the subquery WHERE clause.
func TestRule2PushesConditions(t *testing.T) {
	db := university.NewEnrolment()
	view, err := normalize.BuildView(db, university.EnrolmentHints())
	if err != nil {
		t.Fatal(err)
	}
	g, err := orm.Build(view.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	h := &harness{
		gen: pattern.NewGenerator(match.New(db, view.Schemas, g, view.Sources)),
		tr:  &Translator{Graph: g, Data: db, Sources: view.Sources, Rewrite: true},
		db:  db,
	}
	// A query where Rule 3 cannot fire for the conditioned node: the Course
	// projection is no anchor, so its condition must be pushed inside.
	sqls := h.translateAll(t, "Java AVG Credit")
	sql := sqls[0]
	if !strings.Contains(sql, "WHERE Title CONTAINS 'Java'") &&
		!strings.Contains(sql, "CONTAINS 'Java') ") {
		t.Errorf("Rule 2 should push the condition into the subquery:\n%s", sql)
	}
}

// TestUnnormalizedGeneratedSQLAlwaysExecutes runs the full battery on both
// unnormalized databases.
func TestUnnormalizedGeneratedSQLAlwaysExecutes(t *testing.T) {
	cases := []struct {
		db      *relation.Database
		hints   map[string]string
		queries []string
	}{
		{university.NewEnrolment(), university.EnrolmentHints(), []string{
			"Green George COUNT Code",
			"COUNT Student GROUPBY Course",
			"Student AVG Age",
			"AVG COUNT Student GROUPBY Course",
		}},
		{university.NewDenormalizedLecturer(), university.DenormalizedLecturerHints(), []string{
			"Engineering COUNT Department",
			"COUNT Lecturer GROUPBY Department",
		}},
	}
	for _, c := range cases {
		h := unnormalizedHarness(t, c.db, c.hints)
		for _, q := range c.queries {
			for _, sql := range h.translateAll(t, q) {
				if _, err := sqldb.ExecSQL(h.db, sql); err != nil {
					t.Errorf("query %q generated unexecutable SQL: %v\n%s", q, err, sql)
				}
			}
		}
	}
}

// TestComponentRelationTranslation: conditions and aggregates over component
// relations join the component table on the owner's key.
func TestComponentRelationTranslation(t *testing.T) {
	db := university.New()
	tags := db.AddSchema(relation.NewSchema("CourseTag", "Code", "Tag").
		Key("Code", "Tag").Ref([]string{"Code"}, "Course"))
	tags.MustInsert("c1", "programming")
	tags.MustInsert("c1", "jvm")
	tags.MustInsert("c2", "storage")
	h := normalizedHarness(t, db)
	sqls := h.translateAll(t, "COUNT Tag GROUPBY Course")
	sql := pick(t, sqls, "COUNT(", "GROUP BY")
	if !strings.Contains(sql, "CourseTag") {
		t.Fatalf("component relation not joined:\n%s", sql)
	}
	res, err := sqldb.ExecSQL(db, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("tags grouped per course: %v", res.Rows)
	}
}

// TestWrapNestedRequiresInnerAggregate: a nested aggregate over a pattern
// with no inner aggregate is a translation error.
func TestWrapNestedRequiresInnerAggregate(t *testing.T) {
	inner := &sqlast.Query{
		Select: []sqlast.SelectItem{{Expr: sqlast.ColExpr{Col: sqlast.Col{Column: "x"}}}},
		From:   []sqlast.TableRef{{Name: "T", Alias: "T"}},
	}
	if _, err := wrapNested(inner, sqlast.AggAvg, 1); err == nil {
		t.Error("wrapNested should fail without an inner aggregate")
	}
}

// TestNestedLevelAliases: two nesting levels use distinct derived-table
// aliases and compose alias names (maxnum..., avgmaxnum...).
func TestNestedLevelAliases(t *testing.T) {
	h := normalizedHarness(t, university.New())
	sqls := h.translateAll(t, "AVG MAX COUNT Student GROUPBY Course")
	sql := pick(t, sqls, "AVG(", "MAX(", "COUNT(")
	if !strings.Contains(sql, "maxnumSid") || !strings.Contains(sql, "avgmaxnumSid") {
		t.Errorf("composed aliases missing:\n%s", sql)
	}
	res, err := sqldb.ExecSQL(h.db, sql)
	if err != nil {
		t.Fatal(err)
	}
	// MAX class size is 3; AVG over the single MAX row is 3.
	f, _ := relation.AsFloat(res.Rows[0][0])
	if f != 3 {
		t.Errorf("AVG MAX COUNT should be 3, got %v", f)
	}
}

// TestRelationshipAttributeExposure: querying an attribute of a partially
// joined relationship keeps that attribute in the projection.
func TestRelationshipAttributeExposure(t *testing.T) {
	h := normalizedHarness(t, university.New())
	// Grade is an attribute of Enrol; group students by grade via Enrol
	// while Course is left out of the pattern.
	sqls := h.translateAll(t, "COUNT Student GROUPBY Grade")
	sql := pick(t, sqls, "COUNT(", "GROUP BY")
	res, err := sqldb.ExecSQL(h.db, sql)
	if err != nil {
		t.Fatalf("%v\n%s", err, sql)
	}
	if len(res.Rows) != 2 {
		t.Errorf("grades A and B: %v", res.Rows)
	}
}
