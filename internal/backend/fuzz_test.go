// FuzzRender is the renderer's differential fuzz: fuzz bytes drive a
// deterministic builder producing type-correct sqlast queries over a fixed
// schema, and every built query must (a) render to SQL that SQLite accepts —
// the driver's Prepare step runs SQLite's prepare — and (b) produce the same
// answer set on SQLite as on the in-memory engine.
//
// The builder keeps queries inside the semantic intersection the renderer
// guarantees (see docs/BACKENDS.md): comparisons are type-correct for the
// column (SQLite's column affinity converts cross-typed literals, the
// in-memory engine compares formatted strings — the two disagree), CONTAINS
// needles are ASCII (SQLite's lower() folds ASCII only), aggregates
// SUM/AVG take numeric arguments, and LIMIT appears only in a derived table
// ordered on a whole key (a tie at the cut line would make the kept rows
// engine-defined).
package backend_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"kwagg/internal/backend"
	"kwagg/internal/backend/sqlitecli"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// fuzzRenderDB is the fixed schema the fuzz queries run over: two joinable
// tables with string, int and float columns, planted NULLs and quote/
// control-byte payloads, the string "NULL" beside real NULLs in Sname, and
// -0 beside 0 in Gpa — the values on which value identity, and with it
// grouping, DISTINCT and equality, must agree with SQLite.
func fuzzRenderDB() *relation.Database {
	db := relation.NewDatabase("fuzzrender")
	s := db.AddSchema(relation.NewSchema("Student", "Sid", "Sname", "Age INT", "Gpa FLOAT").Key("Sid"))
	for i := 0; i < 300; i++ {
		var name relation.Value = fmt.Sprintf("s%d", i%23)
		switch i % 29 {
		case 0:
			name = nil
		case 1:
			name = "null"
		case 2:
			name = "O'Brien"
		case 3:
			name = "a\x1fb"
		case 4:
			name = "NULL"
		}
		var age relation.Value = int64(18 + i%9)
		if i%31 == 0 {
			age = nil
		}
		var gpa relation.Value = float64(i%40) / 8
		if i%80 == 40 {
			gpa = math.Copysign(0, -1)
		}
		if i%37 == 0 {
			gpa = nil
		}
		s.MustInsert(fmt.Sprintf("id%d", i), name, age, gpa)
	}
	e := db.AddSchema(relation.NewSchema("Enrol", "Sid", "Code", "Grade INT").Key("Sid", "Code"))
	for i := 0; i < 400; i++ {
		e.MustInsert(fmt.Sprintf("id%d", i%150), fmt.Sprintf("c%d", i%13), int64(i%11))
	}
	db.Freeze()
	return db
}

// tape consumes fuzz bytes as a sequence of bounded choices; exhausted tape
// yields zeros, so every input builds some query.
type tape struct {
	data []byte
	pos  int
}

func (t *tape) next() byte {
	if t.pos >= len(t.data) {
		return 0
	}
	b := t.data[t.pos]
	t.pos++
	return b
}

func (t *tape) pick(n int) int {
	if n <= 0 {
		return 0
	}
	return int(t.next()) % n
}

// fuzzCol describes one column of the fuzz schema with a constant pool the
// builder draws comparison values from (type-correct by construction).
type fuzzCol struct {
	name   string
	typ    relation.Type
	consts []relation.Value
}

var fuzzTables = map[string][]fuzzCol{
	"Student": {
		{"Sid", relation.TypeString, []relation.Value{"id1", "id250", "nope"}},
		{"Sname", relation.TypeString, []relation.Value{"s5", "NULL", "null", "O'Brien", "a\x1fb"}},
		{"Age", relation.TypeInt, []relation.Value{int64(20), int64(18), int64(99)}},
		{"Gpa", relation.TypeFloat, []relation.Value{0.125, 2.5, 4.875, 0.0}},
	},
	"Enrol": {
		{"Sid", relation.TypeString, []relation.Value{"id1", "id140", "nope"}},
		{"Code", relation.TypeString, []relation.Value{"c5", "c12", "zz"}},
		{"Grade", relation.TypeInt, []relation.Value{int64(0), int64(7), int64(10)}},
	},
}

var fuzzNeedles = []string{"s", "id", "1", "brien", "NULL", "'", "c"}

var cmpOps = []sqlast.CmpOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}

// buildQuery derives a type-correct query from the tape.
func buildQuery(tp *tape) *sqlast.Query {
	q := &sqlast.Query{}
	type src struct {
		alias string
		cols  []fuzzCol
	}
	srcs := []src{{"S", fuzzTables["Student"]}}
	q.From = append(q.From, sqlast.TableRef{Name: "Student", Alias: "S"})
	switch tp.pick(4) {
	case 1, 3: // join Enrol on the shared string key
		srcs = append(srcs, src{"E", fuzzTables["Enrol"]})
		q.From = append(q.From, sqlast.TableRef{Name: "Enrol", Alias: "E"})
		q.Where = append(q.Where, sqlast.JoinPred{
			Left:  sqlast.Col{Table: "S", Column: "Sid"},
			Right: sqlast.Col{Table: "E", Column: "Sid"},
		})
	case 2: // join a derived table over Enrol
		sub, cols, on := derivedEnrol(tp)
		srcs = append(srcs, src{"D", cols})
		q.From = append(q.From, sqlast.TableRef{Subquery: sub, Alias: "D"})
		q.Where = append(q.Where, sqlast.JoinPred{
			Left:  sqlast.Col{Table: "S", Column: on[0]},
			Right: sqlast.Col{Table: "D", Column: on[1]},
		})
	}
	anyCol := func() (sqlast.Col, fuzzCol) {
		s := srcs[tp.pick(len(srcs))]
		c := s.cols[tp.pick(len(s.cols))]
		return sqlast.Col{Table: s.alias, Column: c.name}, c
	}

	// Predicates: 0–3, type-correct constants from the column's pool.
	for n := tp.pick(4); n > 0; n-- {
		col, meta := anyCol()
		switch tp.pick(3) {
		case 0:
			q.Where = append(q.Where, sqlast.ComparePred{
				Col: col, Op: cmpOps[tp.pick(len(cmpOps))],
				Value: meta.consts[tp.pick(len(meta.consts))],
			})
		case 1:
			if meta.typ == relation.TypeString {
				q.Where = append(q.Where, sqlast.ContainsPred{
					Col: col, Needle: fuzzNeedles[tp.pick(len(fuzzNeedles))],
				})
			}
		case 2:
			// Column-column comparison within numeric or within string types.
			// Never OpEq: the parser reserves column equality for JoinPred,
			// so ColComparePred{OpEq} is outside the engine's contract.
			col2, meta2 := anyCol()
			bothNum := meta.typ != relation.TypeString && meta2.typ != relation.TypeString
			bothStr := meta.typ == relation.TypeString && meta2.typ == relation.TypeString
			if bothNum || bothStr {
				ops := []sqlast.CmpOp{sqlast.OpNe, sqlast.OpLt, sqlast.OpLe, sqlast.OpGt, sqlast.OpGe}
				q.Where = append(q.Where, sqlast.ColComparePred{
					Left: col, Op: ops[tp.pick(len(ops))], Right: col2,
				})
			}
		}
	}

	if tp.pick(3) == 0 { // grouped aggregate query
		gcol, _ := anyCol()
		q.GroupBy = []sqlast.Col{gcol}
		q.Select = append(q.Select, sqlast.SelectItem{Expr: sqlast.ColExpr{Col: gcol}})
		for n := 1 + tp.pick(2); n > 0; n-- {
			acol, ameta := anyCol()
			fn := []sqlast.AggFunc{sqlast.AggCount, sqlast.AggMin, sqlast.AggMax, sqlast.AggSum, sqlast.AggAvg}[tp.pick(5)]
			if (fn == sqlast.AggSum || fn == sqlast.AggAvg) && ameta.typ == relation.TypeString {
				fn = sqlast.AggCount
			}
			q.Select = append(q.Select, sqlast.SelectItem{
				Expr:  sqlast.AggExpr{Func: fn, Arg: acol, Distinct: tp.pick(3) == 0},
				Alias: fmt.Sprintf("a%d", n),
			})
		}
	} else { // plain projection
		q.Distinct = tp.pick(2) == 0
		for n := 1 + tp.pick(3); n > 0; n-- {
			col, _ := anyCol()
			q.Select = append(q.Select, sqlast.SelectItem{Expr: sqlast.ColExpr{Col: col}})
		}
	}
	// ORDER BY a selected output column. The item gets an explicit alias:
	// without one SQLite resolves the bare name as a table column (ambiguous
	// under a join) instead of the derived output name.
	if tp.pick(3) == 0 {
		i := tp.pick(len(q.Select))
		if q.Select[i].Alias == "" {
			q.Select[i].Alias = "ord"
		}
		q.OrderBy = []sqlast.OrderItem{{Col: sqlast.Col{Column: q.Select[i].Alias}, Desc: tp.pick(2) == 1}}
	}
	return q
}

// derivedEnrol builds a derived table over Enrol, its columns, and the
// Student column and derived column it joins on: a DISTINCT projection; a
// GROUP BY Sid with COUNT and MAX outputs, joined on the group key; a GROUP
// BY Code joined on its MAX(Sid) output; or a projection ordered on the
// whole key (Sid, Code) under a LIMIT, so that no tie falls at the cut.
// Student filters then reach the derived table as semi-join pushes wherever
// a push is sound.
func derivedEnrol(tp *tape) (*sqlast.Query, []fuzzCol, [2]string) {
	from := []sqlast.TableRef{{Name: "Enrol", Alias: "Enrol"}}
	col := func(c string) sqlast.SelectItem {
		return sqlast.SelectItem{Expr: sqlast.ColExpr{Col: sqlast.Col{Column: c}}}
	}
	agg := func(fn sqlast.AggFunc, arg, alias string) sqlast.SelectItem {
		return sqlast.SelectItem{Expr: sqlast.AggExpr{Func: fn, Arg: sqlast.Col{Column: arg}}, Alias: alias}
	}
	counts := fuzzCol{"n", relation.TypeInt, []relation.Value{int64(1), int64(2), int64(30)}}
	enrol := fuzzTables["Enrol"]
	switch tp.pick(4) {
	case 0:
		return &sqlast.Query{Distinct: true, Select: []sqlast.SelectItem{col("Sid"), col("Grade")}, From: from},
			[]fuzzCol{enrol[0], enrol[2]}, [2]string{"Sid", "Sid"}
	case 1:
		q := &sqlast.Query{
			Select:  []sqlast.SelectItem{col("Sid"), agg(sqlast.AggCount, "Code", "n"), agg(sqlast.AggMax, "Grade", "g")},
			From:    from,
			GroupBy: []sqlast.Col{{Column: "Sid"}},
		}
		return q, []fuzzCol{enrol[0], counts, {"g", relation.TypeInt, enrol[2].consts}}, [2]string{"Sid", "Sid"}
	case 2:
		q := &sqlast.Query{
			Select:  []sqlast.SelectItem{col("Code"), agg(sqlast.AggMax, "Sid", "m"), agg(sqlast.AggCount, "Grade", "n")},
			From:    from,
			GroupBy: []sqlast.Col{{Column: "Code"}},
		}
		return q, []fuzzCol{enrol[1], {"m", relation.TypeString, enrol[0].consts}, counts}, [2]string{"Sid", "m"}
	default:
		desc := tp.pick(2) == 1
		limit := 1 + tp.pick(300)
		q := &sqlast.Query{
			Select:  []sqlast.SelectItem{col("Sid"), col("Code")},
			From:    from,
			OrderBy: []sqlast.OrderItem{{Col: sqlast.Col{Column: "Sid"}, Desc: desc}, {Col: sqlast.Col{Column: "Code"}, Desc: desc}},
			Limit:   &limit,
		}
		return q, enrol[:2], [2]string{"Sid", "Sid"}
	}
}

func FuzzRender(f *testing.F) {
	if !sqlitecli.Available() {
		f.Skip("sqlite3 binary not on PATH")
	}
	// Seeds exercising each builder branch: join + grouped aggregates,
	// DISTINCT projection, CONTAINS, column comparisons, ORDER BY.
	f.Add([]byte{})
	f.Add([]byte{1, 3, 0, 0, 1, 0, 2, 2, 1, 0, 1})
	f.Add([]byte{0, 2, 1, 1, 3, 0, 4, 2, 0})
	f.Add([]byte{1, 0, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{255, 254, 253, 252, 251, 250})
	f.Add([]byte{1, 3, 2, 2, 2, 1, 1, 0, 3, 3, 3})

	db := fuzzRenderDB()
	ext, err := backend.NewSQLite(db)
	if err != nil {
		f.Fatal(err)
	}
	defer ext.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		q := buildQuery(&tape{data: data})

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()

		want, _, serr := sqldb.ExecOpts(ctx, db, q, sqldb.ExecConfig{})
		rows, xerr := ext.Exec(ctx, q)
		var got *sqldb.Result
		if xerr == nil {
			got, xerr = backend.Collect(rows)
		}
		if errors.Is(serr, context.DeadlineExceeded) || errors.Is(xerr, context.DeadlineExceeded) {
			return
		}
		if serr != nil {
			t.Fatalf("builder produced a query sqldb rejects: %v\nSQL: %s", serr, q)
		}
		if xerr != nil {
			t.Fatalf("SQLite rejected rendered SQL: %v\nSQL: %s", xerr, q)
		}

		want.SortRows()
		got.SortRows()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("row count: %d on sqlite, %d on sqldb\nSQL: %s\nsqlite: %v\nsqldb:  %v",
				len(got.Rows), len(want.Rows), q, clip(got.Rows), clip(want.Rows))
		}
		for r := range want.Rows {
			for c := range want.Rows[r] {
				if !cellsEqual(got.Rows[r][c], want.Rows[r][c]) {
					t.Fatalf("cell [%d][%d]: %v (%T) on sqlite, %v (%T) on sqldb\nSQL: %s",
						r, c, got.Rows[r][c], got.Rows[r][c],
						want.Rows[r][c], want.Rows[r][c], q)
				}
			}
		}
	})
}
