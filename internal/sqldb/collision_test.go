package sqldb

import (
	"testing"

	"kwagg/internal/relation"
)

// collisionDB builds rows engineered so the executor's historical hash keys —
// column values joined with a "\x1f" separator — would alias: ("a\x1fb", "c")
// and ("a", "b\x1fc") both rendered as "a\x1fb\x1fc". The length-prefixed and
// dictionary-ID keys must keep them apart.
func collisionDB() *relation.Database {
	db := relation.NewDatabase("collision")
	tt := db.AddSchema(relation.NewSchema("T", "A", "B", "N INT").Key("A", "B"))
	tt.MustInsert("a\x1fb", "c", int64(1))
	tt.MustInsert("a", "b\x1fc", int64(2))
	tt.MustInsert("a\x1fb", "c", int64(3)) // true duplicate of row 1's key
	uu := db.AddSchema(relation.NewSchema("U", "A", "B", "M INT").Key("A", "B"))
	uu.MustInsert("a\x1fb", "c", int64(10))
	db.Freeze()
	return db
}

// collisionExecs runs sql over the frozen data and hands the result to
// check.
func collisionExecs(t *testing.T, sql string, check func(t *testing.T, path string, res *Result)) {
	t.Helper()
	q, err := Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, err := execQuery(collisionDB(), q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res.SortRows()
	check(t, "encoded", res)
}

func TestGroupByKeySeparatorCollision(t *testing.T) {
	collisionExecs(t, "SELECT T.A, T.B, COUNT(T.N) AS n FROM T GROUP BY T.A, T.B",
		func(t *testing.T, path string, res *Result) {
			if len(res.Rows) != 2 {
				t.Fatalf("[%s] got %d groups, want 2 (colliding keys merged?):\n%s", path, len(res.Rows), res)
			}
			for _, row := range res.Rows {
				a, _ := row[0].(string)
				want := int64(1)
				if a == "a\x1fb" {
					want = 2
				}
				if row[2] != want {
					t.Errorf("[%s] group (%q,%q): count %v, want %d", path, row[0], row[1], row[2], want)
				}
			}
		})
}

func TestDistinctKeySeparatorCollision(t *testing.T) {
	collisionExecs(t, "SELECT DISTINCT T.A, T.B FROM T",
		func(t *testing.T, path string, res *Result) {
			if len(res.Rows) != 2 {
				t.Errorf("[%s] got %d distinct rows, want 2:\n%s", path, len(res.Rows), res)
			}
		})
}

func TestJoinKeySeparatorCollision(t *testing.T) {
	// Only T's ("a\x1fb", "c") rows match U; ("a", "b\x1fc") must not alias.
	collisionExecs(t, "SELECT T.N, U.M FROM T, U WHERE T.A = U.A AND T.B = U.B",
		func(t *testing.T, path string, res *Result) {
			if len(res.Rows) != 2 {
				t.Fatalf("[%s] got %d joined rows, want 2:\n%s", path, len(res.Rows), res)
			}
			for _, row := range res.Rows {
				if n := row[0].(int64); n != 1 && n != 3 {
					t.Errorf("[%s] joined T row N=%v, want 1 or 3 (collision leaked row 2)", path, n)
				}
			}
		})
}

func TestAggregateDistinctSeparatorCollision(t *testing.T) {
	collisionExecs(t, "SELECT COUNT(DISTINCT T.A) AS n FROM T",
		func(t *testing.T, path string, res *Result) {
			if len(res.Rows) != 1 || res.Rows[0][0] != int64(2) {
				t.Errorf("[%s] COUNT(DISTINCT A) = %v, want 2", path, res.Rows)
			}
		})
}
