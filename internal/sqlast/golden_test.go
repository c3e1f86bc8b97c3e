package sqlast

import (
	"sync"
	"testing"

	"kwagg/internal/relation"
)

// goldenQuery exercises every rendering feature at once: DISTINCT, a derived
// table, an aliased DISTINCT aggregate, join / compare / contains predicates,
// GROUP BY, ORDER BY DESC and LIMIT.
func goldenQuery() *Query {
	limit := 10
	inner := &Query{
		Distinct: true,
		Select: []SelectItem{
			{Expr: ColExpr{Col{Column: "Sname"}}},
			{Expr: ColExpr{Col{Column: "Cid"}}},
		},
		From:  []TableRef{{Name: "Student"}},
		Where: []Pred{ContainsPred{Col: Col{Column: "Sname"}, Needle: "Green"}},
	}
	return &Query{
		Select: []SelectItem{
			{Expr: ColExpr{Col{Table: "D1", Column: "Sname"}}},
			{Expr: AggExpr{Func: AggCount, Arg: Col{Table: "R2", Column: "Title"}, Distinct: true}, Alias: "numTitle"},
		},
		From: []TableRef{
			{Subquery: inner, Alias: "D1"},
			{Name: "Course", Alias: "R2"},
		},
		Where: []Pred{
			JoinPred{Left: Col{Table: "D1", Column: "Cid"}, Right: Col{Table: "R2", Column: "Cid"}},
			ComparePred{Col: Col{Table: "R2", Column: "Credit"}, Op: OpGe, Value: relation.Float(3)},
		},
		GroupBy: []Col{{Table: "D1", Column: "Sname"}},
		OrderBy: []OrderItem{{Col: Col{Column: "numTitle"}, Desc: true}},
		Limit:   &limit,
	}
}

const goldenString = `SELECT D1.Sname, COUNT(DISTINCT R2.Title) AS numTitle FROM (SELECT DISTINCT Sname, Cid FROM Student WHERE Sname CONTAINS 'Green') D1, Course R2 WHERE D1.Cid=R2.Cid AND R2.Credit >= 3 GROUP BY D1.Sname ORDER BY numTitle DESC LIMIT 10`

const goldenPretty = `SELECT D1.Sname, COUNT(DISTINCT R2.Title) AS numTitle
FROM (SELECT DISTINCT Sname, Cid FROM Student WHERE Sname CONTAINS 'Green') D1,
     Course R2
WHERE D1.Cid=R2.Cid
  AND R2.Credit >= 3
GROUP BY D1.Sname
ORDER BY numTitle DESC
LIMIT 10`

// TestRenderGolden pins String and Pretty to committed goldens and asserts
// byte-identical output over 100 repeated renders — the determinism the
// query caches, replay suites and EXPERIMENTS.md goldens all build on
// (maporder exists to keep map iteration from ever leaking in here).
func TestRenderGolden(t *testing.T) {
	q := goldenQuery()
	if got := q.String(); got != goldenString {
		t.Fatalf("String() =\n%s\nwant\n%s", got, goldenString)
	}
	if got := q.Pretty(); got != goldenPretty {
		t.Fatalf("Pretty() =\n%s\nwant\n%s", got, goldenPretty)
	}
	for i := 0; i < 100; i++ {
		if q.String() != goldenString || q.Pretty() != goldenPretty {
			t.Fatalf("render %d diverged from the first render", i)
		}
	}
}

// TestRenderGoldenParallel renders the same shared query from many
// goroutines; under -race this also proves rendering is read-only.
func TestRenderGoldenParallel(t *testing.T) {
	q := goldenQuery()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if q.String() != goldenString || q.Pretty() != goldenPretty {
					errs <- "concurrent render diverged from the golden"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestRenderGoldenClone: a Clone renders identically and mutating the clone
// leaves the original's rendering untouched (deep copy, not aliasing).
func TestRenderGoldenClone(t *testing.T) {
	q := goldenQuery()
	c := q.Clone()
	if c.String() != goldenString {
		t.Fatalf("Clone().String() =\n%s\nwant\n%s", c.String(), goldenString)
	}
	c.From[0].Alias = "X9"
	c.GroupBy[0].Column = "Mangled"
	if got := q.String(); got != goldenString {
		t.Fatalf("mutating the clone changed the original:\n%s", got)
	}
}
