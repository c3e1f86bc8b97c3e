package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// semiDB is a small frozen parts-and-suppliers database for the semi-join
// soundness cases. Parts 3, 13, 23 and 33 are the "rose" parts; Lineitem
// references parts 0-29 in a scrambled order, so its partkey dictionary
// assigns other IDs than Part's and lacks part 33, and every seventh line
// has a NULL partkey. Tag holds NULL partkeys beside real ones, all labelled
// to pass the same filter.
func semiDB() *relation.Database {
	db := relation.NewDatabase("semi")
	part := db.AddSchema(relation.NewSchema("Part", "partkey INT", "pname", "size INT").Key("partkey"))
	for p := 0; p < 40; p++ {
		name := fmt.Sprintf("part %d", p)
		if p%10 == 3 {
			name = fmt.Sprintf("pink rose %d", p)
		}
		part.MustInsert(int64(p), name, int64(p%5))
	}
	supp := db.AddSchema(relation.NewSchema("Supplier", "suppkey INT", "sname").Key("suppkey"))
	for s := 0; s < 12; s++ {
		name := fmt.Sprintf("supplier %d", s)
		if s%4 == 1 {
			name = fmt.Sprintf("royal supplier %d", s)
		}
		supp.MustInsert(int64(s), name)
	}
	li := db.AddSchema(relation.NewSchema("Lineitem", "lineno INT", "partkey INT", "suppkey INT", "qty INT").Key("lineno"))
	for l := 0; l < 300; l++ {
		var pk relation.Value = int64((l * 7) % 30)
		if l%7 == 5 {
			pk = nil
		}
		li.MustInsert(int64(l), pk, int64((l*5)%12), int64(l%9))
	}
	tag := db.AddSchema(relation.NewSchema("Tag", "tagid INT", "partkey INT", "label").Key("tagid"))
	for t := 0; t < 20; t++ {
		var pk relation.Value = int64(t * 3 % 40)
		if t%3 == 0 {
			pk = nil
		}
		tag.MustInsert(int64(t), pk, fmt.Sprintf("x%d", t%4))
	}
	db.Freeze()
	return db
}

// planFor returns the plan of the FROM entry alias in p, searching derived
// tables' plans too.
func planFor(p *Plan, alias string) *PlanSource {
	for i := range p.Sources {
		if strings.EqualFold(p.Sources[i].Alias, alias) {
			return &p.Sources[i]
		}
		if d := p.Sources[i].Derived; d != nil {
			if s := planFor(d, alias); s != nil {
				return s
			}
		}
	}
	return nil
}

// checkSemi executes sql against db, compares the answer with the
// brute-force reference, and checks through Explain that the derived table
// alias was reduced (semi non-empty) or left whole (semi nil): each want
// entry must prefix one of its semi-join renderings.
func checkSemi(t *testing.T, db *relation.Database, sql, alias string, want ...string) *Plan {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	got, err := execQuery(db, q)
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, sql)
	}
	ref, err := refExec(db, q)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, sql)
	}
	if d := refDiff(got, ref); d != "" {
		t.Errorf("answer diverged from the reference:\n%s\n%s", sql, d)
	}
	plan, err := Explain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	src := planFor(plan, alias)
	if src == nil {
		t.Fatalf("no source %s in plan:\n%s", alias, plan)
	}
	if len(src.Semi) != len(want) {
		t.Fatalf("%s semi-joins %q, want %d matching %q:\n%s", alias, src.Semi, len(want), want, plan)
	}
	for k, w := range want {
		if !strings.HasPrefix(src.Semi[k], w) {
			t.Errorf("%s semi-join %d = %q, want prefix %q:\n%s", alias, k, src.Semi[k], w, plan)
		}
	}
	return plan
}

// TestSemiJoinSoundness pins where a join partner's key set may be pushed
// into a derived table: onto a GROUP BY key or a column of a subquery without
// aggregates, through nested derived tables, never onto an aggregate output,
// a non-key column of a grouped subquery or under LIMIT. Every answer
// matches the brute-force reference whether the push is applied or refused.
func TestSemiJoinSoundness(t *testing.T) {
	db := semiDB()
	for _, c := range []struct {
		name, sql, alias string
		want             []string
	}{
		{"group-by key across dictionaries",
			"SELECT P.partkey, D.n FROM Part P, (SELECT partkey, COUNT(suppkey) AS n FROM Lineitem GROUP BY partkey) D " +
				"WHERE P.partkey = D.partkey AND P.pname CONTAINS 'rose'",
			// Part 33 is a rose part Lineitem never references: three keys.
			"D", []string{"partkey ∈ P.partkey (3 keys)"}},
		{"distinct projection",
			"SELECT P.partkey, D.suppkey FROM Part P, (SELECT DISTINCT suppkey, partkey FROM Lineitem) D " +
				"WHERE D.partkey = P.partkey AND P.pname CONTAINS 'rose'",
			"D", []string{"partkey ∈ P.partkey (3 keys)"}},
		{"aggregate output refused",
			"SELECT P.partkey, D.partkey FROM Part P, (SELECT partkey, COUNT(suppkey) AS n FROM Lineitem GROUP BY partkey) D " +
				"WHERE P.size = D.n AND P.pname CONTAINS 'rose'",
			"D", nil},
		{"non-key column of a grouped subquery refused",
			"SELECT S.suppkey, D.partkey FROM Supplier S, (SELECT partkey, suppkey FROM Lineitem GROUP BY partkey) D " +
				"WHERE S.suppkey = D.suppkey AND S.sname CONTAINS 'royal'",
			"D", nil},
		{"plain column beside an aggregate refused",
			"SELECT P.partkey FROM Part P, (SELECT partkey, COUNT(lineno) AS n FROM Lineitem) D " +
				"WHERE P.partkey = D.partkey AND P.pname CONTAINS 'rose'",
			"D", nil},
		{"under LIMIT refused",
			"SELECT P.partkey FROM Part P, (SELECT DISTINCT partkey FROM Lineitem ORDER BY partkey LIMIT 15) D " +
				"WHERE P.partkey = D.partkey AND P.pname CONTAINS 'rose'",
			"D", nil},
		{"nested derived table",
			"SELECT P.partkey, D.n FROM Part P, " +
				"(SELECT partkey, n FROM (SELECT partkey, COUNT(suppkey) AS n FROM Lineitem GROUP BY partkey) X) D " +
				"WHERE P.partkey = D.partkey AND P.pname CONTAINS 'rose'",
			"D", []string{"partkey ∈ P.partkey (3 keys)"}},
		{"nested derived table receives the push",
			"SELECT P.partkey, D.n FROM Part P, " +
				"(SELECT partkey, n FROM (SELECT partkey, COUNT(suppkey) AS n FROM Lineitem GROUP BY partkey) X) D " +
				"WHERE P.partkey = D.partkey AND P.pname CONTAINS 'rose'",
			"X", []string{"partkey ∈ P.partkey (3 keys)"}},
		{"NULL join keys on both sides",
			"SELECT T.tagid, D.suppkey FROM Tag T, (SELECT DISTINCT partkey, suppkey FROM Lineitem) D " +
				"WHERE T.partkey = D.partkey AND T.label CONTAINS 'x1'",
			"D", []string{"partkey ∈ T.partkey ("}},
		{"push covering most keys skipped",
			"SELECT P.partkey, D.suppkey FROM Part P, (SELECT DISTINCT suppkey, partkey FROM Lineitem) D " +
				"WHERE D.partkey = P.partkey AND P.pname CONTAINS 'p'",
			"D", nil},
		{"two restricted partners",
			"SELECT P.partkey, S.suppkey FROM Part P, Supplier S, (SELECT DISTINCT suppkey, partkey FROM Lineitem) D " +
				"WHERE D.partkey = P.partkey AND D.suppkey = S.suppkey AND P.pname CONTAINS 'rose' AND S.sname CONTAINS 'royal'",
			"D", []string{"partkey ∈ P.partkey (3 keys)", "suppkey ∈ S.suppkey (3 keys)"}},
		{"derived partner with its own WHERE",
			"SELECT P.partkey, L.suppkey FROM (SELECT DISTINCT partkey, pname FROM Part WHERE pname CONTAINS 'rose') P, " +
				"(SELECT DISTINCT suppkey, partkey FROM Lineitem) L WHERE P.partkey = L.partkey",
			"L", []string{"partkey ∈ P.partkey (3 keys)"}},
		{"pristine partner restricts nothing",
			"SELECT P.partkey, D.suppkey FROM Part P, (SELECT DISTINCT suppkey, partkey FROM Lineitem) D " +
				"WHERE D.partkey = P.partkey",
			"D", nil},
	} {
		t.Run(c.name, func(t *testing.T) { checkSemi(t, db, c.sql, c.alias, c.want...) })
	}
}

// TestSemiJoinDeltaLayer pushes a key set across dictionaries after an
// incremental commit: the new Lineitem rows reference rose part 33 (absent
// at epoch 0) and a new rose part 40, whose IDs live in the delta layers of
// the Lineitem and Part dictionaries.
func TestSemiJoinDeltaLayer(t *testing.T) {
	base := semiDB()
	next, _, err := relation.ExtendFrozenDatabase(base, map[string][]relation.Tuple{
		"part": {{int64(40), "pink rose 40", int64(0)}},
		"lineitem": {
			{int64(300), int64(33), int64(2), int64(1)},
			{int64(301), int64(40), int64(5), int64(2)},
			{int64(302), nil, int64(5), int64(3)},
			{int64(303), int64(40), int64(7), int64(4)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT P.partkey, D.n FROM Part P, (SELECT partkey, COUNT(suppkey) AS n FROM Lineitem GROUP BY partkey) D " +
		"WHERE P.partkey = D.partkey AND P.pname CONTAINS 'rose'"
	checkSemi(t, base, sql, "D", "partkey ∈ P.partkey (3 keys)")
	plan := checkSemi(t, next, sql, "D", "partkey ∈ P.partkey (5 keys)")
	if d := planFor(plan, "D"); d.Rows != 5 {
		t.Errorf("reduced derived table holds %d groups, want 5:\n%s", d.Rows, plan)
	}
}

// TestSemiJoinEmptyPartner: a restricted partner with no rows pushes an
// empty key set, and the derived table is evaluated over nothing.
func TestSemiJoinEmptyPartner(t *testing.T) {
	plan := checkSemi(t, semiDB(),
		"SELECT P.partkey, D.suppkey FROM Part P, (SELECT DISTINCT suppkey, partkey FROM Lineitem) D "+
			"WHERE D.partkey = P.partkey AND P.pname CONTAINS 'tulip'",
		"D", "partkey ∈ P.partkey (0 keys)")
	if d := planFor(plan, "D"); d.Rows != 0 {
		t.Errorf("derived table holds %d rows, want 0", d.Rows)
	}
}

// semiAllocDB builds the T8-shaped database at scale times the Lineitem
// rows: the same 600 parts, 4 of them named with each of the two filter
// phrases, and 60 suppliers at every scale. The extra rows reference only
// parts the filters drop, so the semi-join reduced derived tables — and the
// answer — are identical at every scale.
func semiAllocDB(scale int) *relation.Database {
	db := relation.NewDatabase("semialloc")
	part := db.AddSchema(relation.NewSchema("Part", "partkey INT", "pname").Key("partkey"))
	for p := 0; p < 600; p++ {
		name := fmt.Sprintf("part %d", p)
		switch {
		case p%150 == 7:
			name = "pink rose"
		case p%150 == 11:
			name = "white rose"
		}
		part.MustInsert(int64(p), name)
	}
	supp := db.AddSchema(relation.NewSchema("Supplier", "suppkey INT", "sname").Key("suppkey"))
	for s := 0; s < 60; s++ {
		supp.MustInsert(int64(s), fmt.Sprintf("supplier %d", s))
	}
	li := db.AddSchema(relation.NewSchema("Lineitem", "lineno INT", "partkey INT", "suppkey INT").Key("lineno"))
	r := rand.New(rand.NewSource(1))
	for l := 0; l < 4000*scale; l++ {
		pk := r.Intn(600)
		if l >= 4000 && (pk%150 == 7 || pk%150 == 11) {
			pk++ // rows beyond the first scale never reach a filtered part
		}
		li.MustInsert(int64(l), int64(pk), int64(r.Intn(60)))
	}
	db.Freeze()
	return db
}

// t8Shape is TPCH T8's first statement: two DISTINCT projections of
// Lineitem, each joined to a CONTAINS-filtered Part and to Supplier.
const t8Shape = "SELECT P2.partkey, P3.partkey, COUNT(S1.suppkey) AS numsuppkey " +
	"FROM Supplier S1, Part P2, Part P3, (SELECT DISTINCT suppkey, partkey FROM Lineitem) L4, " +
	"(SELECT DISTINCT suppkey, partkey FROM Lineitem) L5 " +
	"WHERE P2.partkey=L4.partkey AND L4.suppkey=S1.suppkey AND P3.partkey=L5.partkey " +
	"AND L5.suppkey=S1.suppkey AND P2.pname CONTAINS 'pink rose' AND P3.pname CONTAINS 'white rose' " +
	"GROUP BY P2.partkey, P3.partkey"

// TestSemiJoinAllocsFlat pins that the derived tables of a T8-shaped
// statement are built over the matching rows only: with the same matching
// parts, the statement makes the same number of allocations at 1x and 8x the
// Lineitem rows. Materializing the whole projection first allocates in
// proportion to its distinct rows.
func TestSemiJoinAllocsFlat(t *testing.T) {
	q, err := Parse(t8Shape)
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	var answers [2]string
	for k, scale := range []int{1, 8} {
		db := semiAllocDB(scale)
		res, err := execQuery(db, q)
		if err != nil {
			t.Fatal(err)
		}
		res.SortRows()
		answers[k] = strings.Join(rowsAsStrings(res), ";")
		allocs[k] = testing.AllocsPerRun(10, func() {
			if _, err := execQuery(db, q); err != nil {
				t.Fatal(err)
			}
		})
	}
	if answers[0] != answers[1] || answers[0] == "" {
		t.Fatalf("the answer must be non-empty and the same at both scales:\n1x: %s\n8x: %s", answers[0], answers[1])
	}
	t.Logf("allocs/op: %.0f at 1x, %.0f at 8x", allocs[0], allocs[1])
	if allocs[1] != allocs[0] {
		t.Errorf("allocations grew with the Lineitem rows: %.0f at 1x, %.0f at 8x", allocs[0], allocs[1])
	}
}

// TestSemiJoinNoRestrictedPartner: a statement whose derived tables have no
// restricted partner evaluates them whole, memoized under their plain
// subquery key as before.
func TestSemiJoinNoRestrictedPartner(t *testing.T) {
	db := semiDB()
	q, err := Parse("SELECT P.partkey, COUNT(D.suppkey) AS n FROM Part P, " +
		"(SELECT DISTINCT suppkey, partkey FROM Lineitem) D WHERE D.partkey = P.partkey GROUP BY P.partkey")
	if err != nil {
		t.Fatal(err)
	}
	memo := NewMemo(1 << 20)
	for run := 0; run < 2; run++ {
		if _, _, err := ExecOpts(nil, db, q, ExecConfig{Memo: memo}); err != nil {
			t.Fatal(err)
		}
	}
	key := "sub|" + q.From[1].Subquery.String()
	memo.mu.Lock()
	_, cached := memo.entries[key]
	memo.mu.Unlock()
	if !cached {
		t.Errorf("unreduced derived table not memoized under %q", key)
	}
}

// TestSemiJoinReducedNotMemoized: a derived table reduced by a partner's
// keys is specific to the statement and is never cached under the plain
// subquery key, which a statement without the partner would read.
func TestSemiJoinReducedNotMemoized(t *testing.T) {
	db := semiDB()
	memo := NewMemo(1 << 20)
	reduced, err := Parse("SELECT P.partkey, D.suppkey FROM Part P, (SELECT DISTINCT suppkey, partkey FROM Lineitem) D " +
		"WHERE D.partkey = P.partkey AND P.pname CONTAINS 'rose'")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Parse("SELECT COUNT(D.suppkey) AS n FROM (SELECT DISTINCT suppkey, partkey FROM Lineitem) D")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*sqlast.Query{reduced, whole} {
		got, _, err := ExecOpts(nil, db, q, ExecConfig{Memo: memo})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refExec(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if d := refDiff(got, want); d != "" {
			t.Errorf("%s: %s", q, d)
		}
	}
}
