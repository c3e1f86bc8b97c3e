package render

import (
	"math"
	"strings"
	"testing"

	"kwagg/internal/sqlast"
)

// q1 is a query exercising every clause the renderer handles: aggregates
// with DISTINCT, aliases, a derived table, every predicate kind, GROUP BY,
// ORDER BY in both directions, and LIMIT.
func q1() *sqlast.Query {
	return &sqlast.Query{
		Select: []sqlast.SelectItem{
			{Expr: sqlast.ColExpr{Col: sqlast.Col{Table: "L", Column: "Name"}}},
			{Expr: sqlast.AggExpr{Func: sqlast.AggCount, Arg: sqlast.Col{Table: "D", Column: "Code"}, Distinct: true}, Alias: "n"},
			{Expr: sqlast.AggExpr{Func: sqlast.AggAvg, Arg: sqlast.Col{Table: "D", Column: "Score"}}, Alias: "avg_score"},
		},
		From: []sqlast.TableRef{
			{Name: "Lecturer", Alias: "L"},
			{Subquery: &sqlast.Query{
				Select: []sqlast.SelectItem{
					{Expr: sqlast.ColExpr{Col: sqlast.Col{Table: "C", Column: "Code"}}},
					{Expr: sqlast.ColExpr{Col: sqlast.Col{Table: "C", Column: "Score"}}},
					{Expr: sqlast.ColExpr{Col: sqlast.Col{Table: "C", Column: "LID"}}},
				},
				From:  []sqlast.TableRef{{Name: "Course", Alias: "C"}},
				Where: []sqlast.Pred{sqlast.ComparePred{Col: sqlast.Col{Table: "C", Column: "Score"}, Op: sqlast.OpGe, Value: float64(2)}},
			}, Alias: "D"},
		},
		Where: []sqlast.Pred{
			sqlast.JoinPred{Left: sqlast.Col{Table: "L", Column: "ID"}, Right: sqlast.Col{Table: "D", Column: "LID"}},
			sqlast.ComparePred{Col: sqlast.Col{Table: "L", Column: "Name"}, Op: sqlast.OpNe, Value: "nobody"},
			sqlast.ContainsPred{Col: sqlast.Col{Table: "L", Column: "Name"}, Needle: "an"},
			sqlast.ColComparePred{Left: sqlast.Col{Table: "D", Column: "Score"}, Op: sqlast.OpLt, Right: sqlast.Col{Table: "L", Column: "ID"}},
		},
		GroupBy: []sqlast.Col{{Table: "L", Column: "Name"}},
		OrderBy: []sqlast.OrderItem{
			{Col: sqlast.Col{Column: "n"}, Desc: true},
			{Col: sqlast.Col{Column: "Name"}},
		},
		Limit: limit(7),
	}
}

// limit returns a LIMIT count for a Query literal.
func limit(n int) *int { return &n }

// TestLimitZeroRendering: LIMIT 0 is a clause of its own, rendered in every
// dialect, and only a nil Limit renders none.
func TestLimitZeroRendering(t *testing.T) {
	q := q1()
	q.Limit = limit(0)
	for _, d := range []Dialect{SQLDB, SQLite, Postgres} {
		got, err := SQL(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasSuffix(got, " LIMIT 0") {
			t.Errorf("dialect %v dropped LIMIT 0:\n%s", d, got)
		}
	}
	q.Limit = nil
	for _, d := range []Dialect{SQLDB, SQLite, Postgres} {
		got, err := SQL(q, d)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(got, "LIMIT") {
			t.Errorf("dialect %v rendered a LIMIT for a nil Limit:\n%s", d, got)
		}
	}
}

func TestSQLDBDialectIsNativeString(t *testing.T) {
	q := q1()
	got, err := SQL(q, SQLDB)
	if err != nil {
		t.Fatal(err)
	}
	if got != q.String() {
		t.Fatalf("SQLDB dialect diverged from Query.String():\n%s\n%s", got, q.String())
	}
}

func TestSQLiteRendering(t *testing.T) {
	got, err := SQL(q1(), SQLite)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`COUNT(DISTINCT "D"."Code") AS "n"`,
		`"Lecturer" AS "L"`, // base table aliased
		`) AS "D"`,          // derived table aliased
		`"L"."ID" = "D"."LID"`,
		`"L"."Name" <> 'nobody'`,
		`typeof("L"."Name") = 'text'`,
		`instr(lower("L"."Name"), lower('an')) > 0`,
		`"C"."Score" >= 2.0`, // float constant keeps its point
		`ORDER BY "n" DESC NULLS LAST, "Name" ASC NULLS FIRST`,
		`LIMIT 7`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("sqlite rendering missing %q:\n%s", want, got)
		}
	}
}

func TestPostgresRendering(t *testing.T) {
	got, err := SQL(q1(), Postgres)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`COUNT(DISTINCT "D"."Code") AS "n"`,
		`POSITION(LOWER('an') IN LOWER(CAST("L"."Name" AS TEXT))) > 0`,
		`"C"."Score" >= 2.0`,
		`DESC NULLS LAST`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("postgres rendering missing %q:\n%s", want, got)
		}
	}
}

func TestParamsPlaceholderStyles(t *testing.T) {
	q := q1()
	lite, liteArgs, err := Params(q, SQLite)
	if err != nil {
		t.Fatal(err)
	}
	pg, pgArgs, err := Params(q, Postgres)
	if err != nil {
		t.Fatal(err)
	}
	// Three bindable constants in tree order: the subquery's 2.0, 'nobody',
	// and the CONTAINS needle 'an'.
	wantArgs := []any{"nobody", "an", float64(2)}
	if len(liteArgs) != 3 || len(pgArgs) != 3 {
		t.Fatalf("got %d sqlite / %d postgres args, want 3", len(liteArgs), len(pgArgs))
	}
	for _, args := range [][]any{liteArgs, pgArgs} {
		seen := map[any]bool{}
		for _, a := range args {
			seen[a] = true
		}
		for _, w := range wantArgs {
			if !seen[w] {
				t.Errorf("args %v missing %v", args, w)
			}
		}
	}
	if strings.Count(lite, "?") != 3 {
		t.Errorf("sqlite params: want 3 '?', got:\n%s", lite)
	}
	for _, ph := range []string{"$1", "$2", "$3"} {
		if !strings.Contains(pg, ph) {
			t.Errorf("postgres params missing %s:\n%s", ph, pg)
		}
	}
	if strings.Contains(lite, "'nobody'") || strings.Contains(pg, "'nobody'") {
		t.Error("bindable constant was inlined in Params output")
	}
}

func TestParamsNULLStaysInline(t *testing.T) {
	q := &sqlast.Query{
		Select: []sqlast.SelectItem{{Expr: sqlast.ColExpr{Col: sqlast.Col{Table: "T", Column: "A"}}}},
		From:   []sqlast.TableRef{{Name: "T"}},
		Where:  []sqlast.Pred{sqlast.ComparePred{Col: sqlast.Col{Table: "T", Column: "A"}, Op: sqlast.OpEq, Value: nil}},
	}
	text, args, err := Params(q, Postgres)
	if err != nil {
		t.Fatal(err)
	}
	if len(args) != 0 {
		t.Fatalf("NULL was bound as a parameter: %v", args)
	}
	if !strings.Contains(text, "= NULL") {
		t.Fatalf("NULL not inline:\n%s", text)
	}
}

func TestLiteralEscaping(t *testing.T) {
	cases := []struct {
		name string
		in   any
		d    Dialect
		want string
	}{
		{"quote-sqlite", "O'Brien", SQLite, "'O''Brien'"},
		{"quote-postgres", "O'Brien", Postgres, "'O''Brien'"},
		{"doubled-quotes", "a''b", SQLite, "'a''''b'"},
		{"unit-sep-sqlite", "a\x1fb", SQLite, "'a\x1fb'"},
		{"unit-sep-postgres", "a\x1fb", Postgres, `E'a\x1fb'`},
		{"newline-sqlite", "a\nb", SQLite, "'a\nb'"},
		{"newline-postgres", "a\nb", Postgres, `E'a\nb'`},
		{"backslash-postgres-plain", `a\b`, Postgres, `'a\b'`},
		{"backslash-postgres-escaped", "a\\\nb", Postgres, `E'a\\\nb'`},
		{"literal-NULL-string", "NULL", SQLite, "'NULL'"},
		{"null-value", nil, SQLite, "NULL"},
		{"int", int64(-42), Postgres, "-42"},
		{"float-integral", float64(3), SQLite, "3.0"},
		{"float-exp", 1e21, SQLite, "1e+21"},
		{"float-neg", -2.5, Postgres, "-2.5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Literal(tc.in, tc.d)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Literal(%q, %s) = %s, want %s", tc.in, tc.d, got, tc.want)
			}
		})
	}
}

func TestLiteralErrors(t *testing.T) {
	for _, v := range []any{"nul\x00byte", math.NaN(), math.Inf(1)} {
		if _, err := Literal(v, SQLite); err == nil {
			t.Errorf("Literal(%v) succeeded, want error", v)
		}
	}
}

func TestIdentEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Name", `"Name"`},
		{`we"ird`, `"we""ird"`},
		{"with space", `"with space"`},
		{"new\nline", "\"new\nline\""},
		{"SELECT", `"SELECT"`}, // keywords are just quoted identifiers
	}
	for _, tc := range cases {
		got, err := Ident(tc.in, SQLite)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("Ident(%q) = %s, want %s", tc.in, got, tc.want)
		}
	}
	if _, err := Ident("nul\x00", Postgres); err == nil {
		t.Error("Ident with NUL byte succeeded, want error")
	}
	if got, err := Ident("anything", SQLDB); err != nil || got != "anything" {
		t.Errorf("SQLDB Ident quoted: %q, %v", got, err)
	}
}

func TestRenderErrors(t *testing.T) {
	col := sqlast.Col{Table: "T", Column: "A"}
	sel := []sqlast.SelectItem{{Expr: sqlast.ColExpr{Col: col}}}
	cases := map[string]*sqlast.Query{
		"empty-select": {From: []sqlast.TableRef{{Name: "T"}}},
		"empty-from":   {Select: sel},
		"unaliased-derived": {
			Select: sel,
			From:   []sqlast.TableRef{{Subquery: &sqlast.Query{Select: sel, From: []sqlast.TableRef{{Name: "T"}}}}},
		},
		"nan-literal": {
			Select: sel,
			From:   []sqlast.TableRef{{Name: "T"}},
			Where:  []sqlast.Pred{sqlast.ComparePred{Col: col, Op: sqlast.OpEq, Value: math.NaN()}},
		},
	}
	for name, q := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := SQL(q, SQLite); err == nil {
				t.Error("SQL succeeded, want error")
			}
		})
	}
}

func TestParseDialect(t *testing.T) {
	for name, want := range map[string]Dialect{
		"sqldb": SQLDB, "sqlite": SQLite, "sqlite3": SQLite,
		"Postgres": Postgres, "pg": Postgres,
	} {
		got, err := ParseDialect(name)
		if err != nil || got != want {
			t.Errorf("ParseDialect(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseDialect("oracle"); err == nil {
		t.Error("ParseDialect(oracle) succeeded, want error")
	}
}
