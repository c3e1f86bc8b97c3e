package core

import (
	"context"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/relation"
	"kwagg/internal/sqldb"
)

// TestAblationDedupRule shows that the Section 3.1.3 duplicate-elimination
// rule is what makes Q2 correct: with it disabled, the engine reproduces
// SQAK's wrong total of 35 instead of 25.
func TestAblationDedupRule(t *testing.T) {
	s := mustOpen(t, university.New())

	correct := findAnswer(t, s, "Java SUM Price", "DISTINCT")
	f, _ := relation.AsFloat(correct.Result.Rows[0][len(correct.Result.Rows[0])-1])
	if f != 25 {
		t.Fatalf("with the rule: want 25, got %v", f)
	}

	s.Translator.DisableDedup = true
	defer func() { s.Translator.DisableDedup = false }()
	ins, err := s.Interpret("Java SUM Price", 0)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sqldb.ExecOpts(context.Background(), s.Data, ins[0].SQL, sqldb.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ = relation.AsFloat(res.Rows[0][len(res.Rows[0])-1])
	if f != 35 {
		t.Fatalf("without the rule the engine should reproduce SQAK's 35, got %v\n%s", f, ins[0].SQL)
	}
}

// TestAblationDisambiguation shows that the Section 3.1.2 forking is what
// separates the two students called Green: with it disabled, only the
// merged total of 13 is available.
func TestAblationDisambiguation(t *testing.T) {
	s := mustOpen(t, university.New())
	s.Generator.DisableDisambiguation = true
	defer func() { s.Generator.DisableDisambiguation = false }()

	as, err := s.Answer("Green SUM Credit", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range as {
		if len(a.Result.Rows) == 2 {
			t.Fatalf("disambiguation disabled, yet a per-object interpretation exists:\n%s", a.SQL)
		}
	}
	f, _ := relation.AsFloat(as[0].Result.Rows[0][len(as[0].Result.Rows[0])-1])
	if f != 13 {
		t.Fatalf("merged total should be SQAK's 13, got %v", f)
	}
}
