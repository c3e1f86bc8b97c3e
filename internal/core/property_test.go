package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/sqldb"
)

// TestPropertyGeneratedSQLExecutes drives the full pipeline with hundreds of
// randomly composed keyword queries over the university vocabulary and
// asserts the invariant the translator must uphold: every interpretation of
// every accepted query renders to SQL that parses and executes.
func TestPropertyGeneratedSQLExecutes(t *testing.T) {
	s := mustOpen(t, university.New())
	vocabulary := struct {
		relations  []string
		attributes []string
		values     []string
		aggs       []string
	}{
		relations:  []string{"Student", "Course", "Enrol", "Lecturer", "Department", "Faculty", "Textbook", "Teach"},
		attributes: []string{"Sname", "Age", "Credit", "Title", "Price", "Grade", "Lname", "Dname", "Fname", "Code"},
		values:     []string{"Green", "George", "Java", "Database", "Steven", "Engineering", "CS", `"Programming Language"`},
		aggs:       []string{"COUNT", "SUM", "AVG", "MIN", "MAX"},
	}

	r := rand.New(rand.NewSource(2016))
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }

	buildQuery := func() string {
		var terms []string
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			switch r.Intn(4) {
			case 0:
				terms = append(terms, pick(vocabulary.relations))
			case 1:
				terms = append(terms, pick(vocabulary.attributes))
			default:
				terms = append(terms, pick(vocabulary.values))
			}
		}
		// Optionally prepend an aggregate (with its operand) and append a
		// GROUPBY clause, respecting Definition 1's ordering constraints.
		if r.Intn(2) == 0 {
			agg := pick(vocabulary.aggs)
			operand := pick(vocabulary.attributes)
			if agg == "COUNT" && r.Intn(2) == 0 {
				operand = pick(vocabulary.relations)
			}
			terms = append([]string{agg, operand}, terms...)
		}
		if r.Intn(3) == 0 {
			terms = append(terms, "GROUPBY", pick(vocabulary.relations))
		}
		return strings.Join(terms, " ")
	}

	accepted, executed := 0, 0
	for i := 0; i < 400; i++ {
		q := buildQuery()
		ins, err := s.Interpret(q, 8)
		if err != nil {
			continue // ambiguity may be unresolvable; that is fine
		}
		accepted++
		for _, in := range ins {
			text := in.SQL.String()
			parsed, err := sqldb.Parse(text)
			if err != nil {
				t.Fatalf("query %q: generated SQL does not parse: %v\n%s", q, err, text)
			}
			if parsed.String() != text {
				t.Fatalf("query %q: render/parse not a fixpoint:\n%s\n%s", q, text, parsed.String())
			}
			if _, _, err := sqldb.ExecOpts(context.Background(), s.Data, in.SQL, sqldb.ExecConfig{}); err != nil {
				t.Fatalf("query %q: generated SQL does not execute: %v\n%s", q, err, text)
			}
			executed++
		}
	}
	if accepted < 100 {
		t.Fatalf("vocabulary should produce many valid queries; accepted only %d", accepted)
	}
	t.Logf("accepted %d random queries, executed %d interpretations", accepted, executed)
}

// TestPropertyUnnormalizedPipeline repeats the invariant over the Figure 8
// database, additionally exercising the view mapping and rewrite rules.
func TestPropertyUnnormalizedPipeline(t *testing.T) {
	s, err := Open(university.NewEnrolment(), &Options{NameHints: university.EnrolmentHints()})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"Green COUNT Code",
		"George AVG Credit",
		"COUNT Student GROUPBY Course",
		"COUNT Course GROUPBY Student",
		"MAX Age",
		"MIN Credit GROUPBY Student",
		"AVG COUNT Course GROUPBY Student",
		"Student Green",
		"Java Green",
		"SUM Credit Green George",
	}
	for _, q := range queries {
		ins, err := s.Interpret(q, 0)
		if err != nil {
			t.Fatalf("Interpret(%q): %v", q, err)
		}
		for _, in := range ins {
			if _, _, err := sqldb.ExecOpts(context.Background(), s.Data, in.SQL, sqldb.ExecConfig{}); err != nil {
				t.Fatalf("query %q: %v\n%s", q, err, in.SQL)
			}
		}
	}
}
