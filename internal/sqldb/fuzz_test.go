package sqldb

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"kwagg/internal/dataset/university"
	"kwagg/internal/relation"
)

// FuzzParse ensures the lexer and parser never panic and that every
// successfully parsed statement re-renders to text that parses again to the
// same rendering (the round-trip invariant), whatever the input.
func FuzzParse(f *testing.F) {
	for _, seed := range corpus {
		f.Add(seed)
	}
	f.Add("SELECT")
	f.Add("SELECT x FROM")
	f.Add("'unterminated")
	f.Add("SELECT x FROM T WHERE x CONTAINS 'a' GROUPBY x LIMIT 3")
	f.Add("SELECT COUNT(DISTINCT x) FROM (SELECT y FROM T) Z ORDER BY y DESC")
	f.Add("SELECT x FROM T WHERE x = 'a\x1fb'") // the executor's old hash-key separator
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		text := q.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("rendered SQL does not parse: %v\nin:  %q\nout: %q", err, src, text)
		}
		if back.String() != text {
			t.Fatalf("render not a fixpoint:\n%q\n%q", text, back.String())
		}
	})
}

// FuzzPretty ensures the multi-line AST printer is faithful: whatever
// parses, its Pretty rendering must parse back to the same canonical
// single-line rendering — the printer may only change layout, never meaning.
func FuzzPretty(f *testing.F) {
	for _, seed := range corpus {
		f.Add(seed)
	}
	f.Add("SELECT COUNT(DISTINCT x) FROM (SELECT y FROM T) Z ORDER BY y DESC LIMIT 2")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		pretty := q.Pretty()
		back, err := Parse(pretty)
		if err != nil {
			t.Fatalf("Pretty rendering does not parse: %v\nin:     %q\npretty: %q", err, src, pretty)
		}
		if back.String() != q.String() {
			t.Fatalf("Pretty changed the statement's meaning:\nwant %q\ngot  %q", q.String(), back.String())
		}
	})
}

// fuzzBlockDB builds a frozen database whose tables reuse the university
// workload's names (so the shared corpus seeds hit them) but span multiple
// BlockSize blocks plus a trailing partial block — the shapes the batch
// kernels' block loops must get right. NULLs, the literal string "NULL" and
// repeating group/join keys are planted deterministically.
func fuzzBlockDB() *relation.Database {
	const n = 2*relation.BlockSize + 517
	db := relation.NewDatabase("fuzzblocks")
	student := db.AddSchema(relation.NewSchema("Student", "Sid", "Sname", "Age INT").Key("Sid"))
	for i := 0; i < n; i++ {
		var name relation.Value = fmt.Sprintf("s%d", i%97)
		switch i % 113 {
		case 0:
			name = nil
		case 1:
			name = "NULL"
		}
		var age relation.Value = int64(18 + i%9)
		if i%127 == 0 {
			age = nil
		}
		student.MustInsert(fmt.Sprintf("id%d", i), name, age)
	}
	enrol := db.AddSchema(relation.NewSchema("Enrol", "Sid", "Code", "Grade INT").Key("Sid", "Code"))
	for i := 0; i < n; i++ {
		enrol.MustInsert(fmt.Sprintf("id%d", i%1500), fmt.Sprintf("c%d", i%37), int64(i%11))
	}
	db.Freeze()
	return db
}

// FuzzExec ensures executing arbitrary parsed statements never panics (it
// may error) against a real database — an unfrozen one (formatted-string
// paths) and a frozen multi-block one, where single-shard and
// shard-parallel execution are additionally run differentially: both must
// agree on success vs error, and on success the results must be identical
// including row order (the batch kernels' ordering guarantee).
func FuzzExec(f *testing.F) {
	for _, seed := range corpus {
		f.Add(seed)
	}
	// Hash-key separator collisions: values containing "\x1f" aliased under
	// the executor's old joined keys and must stay distinct.
	f.Add("SELECT S.Sname FROM Student S WHERE S.Sname = 'a\x1fb'")
	f.Add("SELECT DISTINCT S.Sname, S.Age FROM Student S")
	f.Add("SELECT E.Grade, COUNT(E.Sid) AS n FROM Enrol E GROUP BY E.Grade, E.Code")
	// Multi-block shapes: filters, joins and grouping whose inputs cross
	// block boundaries on the frozen database, including the NULL vs "NULL"
	// trap and a low-selectivity equality.
	f.Add("SELECT S.Sid FROM Student S WHERE S.Sname = 'NULL'")
	f.Add("SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Sname")
	f.Add("SELECT COUNT(E.Code) AS n FROM Student S, Enrol E WHERE S.Sid = E.Sid")
	f.Add("SELECT E.Grade, AVG(E.Grade) AS a FROM Enrol E WHERE E.Code = 'c5' GROUP BY E.Grade")
	db := university.New()
	blocks := fuzzBlockDB()
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		_, _ = execQuery(db, q) // must not panic

		// Arbitrary SQL can build unbounded cross products over the
		// multi-block tables; bound each differential execution with the
		// executor's cancellation polling and skip the comparison when a side
		// runs out of time (the fuzzer must never look hung).
		run := func(cfg ExecConfig) (*Result, error) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			res, _, err := ExecOpts(ctx, blocks, q, cfg)
			return res, err
		}
		batch, berr := run(ExecConfig{})
		// Second leg: shard-parallel drivers forced onto one-block shards.
		sharded, serr := run(ExecConfig{Shards: 4, ShardRows: relation.BlockSize})
		if errors.Is(berr, context.DeadlineExceeded) || errors.Is(serr, context.DeadlineExceeded) {
			return
		}
		if (berr == nil) != (serr == nil) {
			t.Fatalf("single-shard and sharded disagree on error:\nSQL: %s\nbatch:   %v\nsharded: %v",
				q, berr, serr)
		}
		if berr == nil && !reflect.DeepEqual(batch, sharded) {
			t.Fatalf("sharded result diverged from batch (row order included):\nSQL: %s\nbatch:   %+v\nsharded: %+v",
				q, batch, sharded)
		}
	})
}
