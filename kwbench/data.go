package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"kwagg"
	"kwagg/internal/core"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/relation"
	"kwagg/internal/sqak"
)

// The benchmark's data scale: the TPC-H stress configuration (about 45k rows)
// and the ACMDL harness configuration with every entity count times five
// (about 51k rows). The planted collisions keep their paper sizes, so the
// answer shapes of Tables 5, 6, 8 and 9 hold at this scale.
const acmdlScale = 5

func tpchConfig(seed uint64) tpch.Config {
	c := tpch.Large()
	c.Seed = seed
	return c
}

func acmdlConfig(seed uint64) acmdl.Config {
	c := acmdl.Default()
	c.Seed = seed
	c.Authors *= acmdlScale
	c.Editors *= acmdlScale
	c.Proceedings *= acmdlScale
	c.Papers *= acmdlScale
	return c
}

// paperSetup is one of the paper's four database setups: the generated
// relations, the view names of its normalized view, and the workload the
// paper runs on it.
type paperSetup struct {
	label   string
	db      *relation.Database
	views   map[string]string
	queries []experiments.Query
	unnorm  bool
}

// paperSetups generates TPCH, TPCH', ACMDL and ACMDL' from the seed.
func paperSetups(seed uint64) []*paperSetup {
	t, a := tpch.New(tpchConfig(seed)), acmdl.New(acmdlConfig(seed))
	return []*paperSetup{
		{label: "TPCH", db: t, queries: experiments.QueriesTPCH()},
		{label: "TPCH'", db: tpch.Denormalize(t), views: tpch.NameHints(),
			queries: experiments.QueriesTPCH(), unnorm: true},
		{label: "ACMDL", db: a, queries: experiments.QueriesACMDL()},
		{label: "ACMDL'", db: acmdl.Denormalize(a), views: acmdl.NameHints(),
			queries: experiments.QueriesACMDL(), unnorm: true},
	}
}

// shapeSetup opens the paper-shape harness of internal/experiments over the
// setup's generated relations (a separate database from the engine's copy).
func (p *paperSetup) shapeSetup() (*experiments.Setup, error) {
	sys, err := core.Open(p.db, &core.Options{NameHints: p.views})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.label, err)
	}
	return &experiments.Setup{Label: p.label, Ours: sys, SQAK: sqak.New(p.db), Unnormalized: p.unnorm}, nil
}

// typeNames maps relation types to the column declarations kwagg.TableSpec
// takes.
var typeNames = map[relation.Type]string{
	relation.TypeInt:   " INT",
	relation.TypeFloat: " FLOAT",
	relation.TypeDate:  " DATE",
}

// publicDB copies generated relations into a kwagg.DB through the public
// CreateTable and Insert calls, so the engine receives the data exactly as a
// user would load it. Values travel as their formatted strings, which
// Insert's coercion parses back to the identical values.
func publicDB(src *relation.Database) (*kwagg.DB, error) {
	db := kwagg.NewDB(src.Name)
	for _, s := range src.Schemas() {
		spec := kwagg.TableSpec{Name: s.Name, PrimaryKey: s.PrimaryKey}
		for _, a := range s.Attributes {
			spec.Columns = append(spec.Columns, a.Name+typeNames[a.Type])
		}
		for _, fk := range s.ForeignKeys {
			spec.ForeignKeys = append(spec.ForeignKeys, kwagg.FK{Attrs: fk.Attrs, RefTable: fk.RefRelation, RefAttrs: fk.RefAttrs})
		}
		for _, fd := range s.FDs {
			spec.Dependencies = append(spec.Dependencies, kwagg.Dep{From: fd.LHS, To: fd.RHS})
		}
		if err := db.CreateTable(spec); err != nil {
			return nil, err
		}
	}
	for _, t := range src.Tables() {
		fields := make([]string, len(t.Schema.Attributes))
		for _, tu := range t.Tuples {
			for j, v := range tu {
				fields[j] = formatField(v)
			}
			if err := db.Insert(t.Schema.Name, fields...); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// formatField renders a value as an Insert field: NULL is the empty string.
func formatField(v relation.Value) string {
	if v == nil {
		return ""
	}
	return relation.Format(v)
}

// answerDigest fingerprints one request's ranked answers: each answer's
// description, SQL, column names and formatted rows, in rank order. Two
// answer lists are equal exactly when their digests are (up to hash
// collisions).
type answerDigest uint64

func digestAnswers(answers []digestAnswer) answerDigest {
	h := fnv.New64a()
	for _, a := range answers {
		h.Write([]byte(a.desc))
		h.Write([]byte{0})
		h.Write([]byte(a.sql))
		h.Write([]byte{0})
		h.Write([]byte(strings.Join(a.cols, "\x1f")))
		h.Write([]byte{0})
		for _, row := range a.rows {
			h.Write([]byte(strings.Join(row, "\x1f")))
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return answerDigest(h.Sum64())
}

// digestAnswer is the engine-independent form of one ranked answer.
type digestAnswer struct {
	desc, sql string
	cols      []string
	rows      [][]string
}

func digestPublic(answers []kwagg.Answer) answerDigest {
	out := make([]digestAnswer, len(answers))
	for i, a := range answers {
		out[i] = digestAnswer{desc: a.Description, sql: a.SQL, cols: a.Result.Columns, rows: a.Result.Rows}
	}
	return digestAnswers(out)
}

func digestCore(answers []core.Answer) answerDigest {
	out := make([]digestAnswer, len(answers))
	for i, a := range answers {
		rows := make([][]string, len(a.Result.Rows))
		for r, tu := range a.Result.Rows {
			cells := make([]string, len(tu))
			for j, v := range tu {
				cells[j] = relation.Format(v)
			}
			rows[r] = cells
		}
		out[i] = digestAnswer{desc: a.Description, sql: a.SQL.String(), cols: a.Result.Columns, rows: rows}
	}
	return digestAnswers(out)
}
