package match_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kwagg"
	"kwagg/internal/core"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/dataset/university"
	"kwagg/internal/keyword"
	"kwagg/internal/match"
	"kwagg/internal/orm"
	"kwagg/internal/relation"
)

// commits is how many incremental epochs the differential grows each
// database through; every table's rows are split into a prefix plus this
// many chunks.
const commits = 3

// cut returns how many of n rows the k-th epoch holds (k = 0 is the prefix,
// k = commits the whole table), preserving row order.
func cut(n, k int) int { return n * (k + 2) / (commits + 2) }

// prefix rebuilds db holding only the rows of epoch k of every table.
func prefix(t *testing.T, db *relation.Database, k int) *relation.Database {
	t.Helper()
	out := relation.NewDatabase(db.Name)
	for _, tb := range db.Tables() {
		nt := relation.NewTable(tb.Schema.Clone())
		if err := nt.AppendShared(tb.Tuples[:cut(len(tb.Tuples), k)]); err != nil {
			t.Fatal(err)
		}
		out.Add(nt)
	}
	return out
}

// added returns the rows of tb that epoch k adds.
func added(tb *relation.Table, k int) []relation.Tuple {
	return tb.Tuples[cut(len(tb.Tuples), k-1):cut(len(tb.Tuples), k)]
}

// workloadDB builds one DatasetWorkloads database at the small scale with
// the view names its denormalized variants need.
func workloadDB(t *testing.T, name string) (*relation.Database, map[string]string) {
	t.Helper()
	switch name {
	case "university":
		return university.New(), nil
	case "tpch":
		return tpch.New(tpch.Small()), nil
	case "tpch-denorm":
		return tpch.Denormalize(tpch.New(tpch.Small())), tpch.NameHints()
	case "acmdl":
		return acmdl.New(acmdl.Small()), nil
	case "acmdl-denorm":
		return acmdl.Denormalize(acmdl.New(acmdl.Small())), acmdl.NameHints()
	}
	t.Fatalf("unknown dataset %q", name)
	return nil, nil
}

// requireRef checks m.Match against match.RefMatch — the same tags in the
// same order, NumObjects included — for every term, and returns how many
// value tags it compared and how many of them counted several objects.
func requireRef(t *testing.T, label string, m *match.Matcher, terms []keyword.Term) (values, multi int) {
	t.Helper()
	for _, term := range terms {
		got, want := m.Match(term), match.RefMatch(m, term)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: term %q:\n got %v\nwant %v", label, term.Text, got, want)
		}
		for _, tg := range want {
			if tg.Kind == match.Value {
				values++
				if tg.NumObjects > 1 {
					multi++
				}
			}
		}
	}
	return values, multi
}

// TestMatcherDifferential checks the matcher against the row-scan reference
// (RefMatch) on every basic term of every DatasetWorkloads query, normalized
// and unnormalized: on the frozen database of core.Open, and on a live
// engine after each of commits incremental epochs, whose layered
// dictionaries and patched value indexes CountObjects reads.
func TestMatcherDifferential(t *testing.T) {
	for name, queries := range kwagg.DatasetWorkloads() {
		t.Run(name, func(t *testing.T) {
			var terms []keyword.Term
			for _, q := range queries {
				kq, err := keyword.Parse(q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				for _, ti := range kq.BasicTerms() {
					terms = append(terms, kq.Terms[ti])
				}
			}
			db, hints := workloadDB(t, name)
			opts := &core.Options{NameHints: hints}
			sys, err := core.Open(db, opts)
			if err != nil {
				t.Fatal(err)
			}
			values, multi := requireRef(t, "frozen", sys.Matcher, terms)
			if values == 0 {
				t.Fatal("no term matched a value; the differential compared nothing")
			}
			t.Logf("%d terms, %d value tags, %d counting several objects", len(terms), values, multi)
			live, err := core.OpenLive(prefix(t, db, 0), opts)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= commits; k++ {
				for _, tb := range db.Tables() {
					if _, err := live.IngestTuples(tb.Schema.Name, added(tb, k)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := live.Commit(context.Background()); err != nil {
					t.Fatal(err)
				}
				requireRef(t, fmt.Sprintf("epoch %d", k), live.System().Matcher, terms)
			}
		})
	}
}

// cornerDB holds the cases the workloads miss: a substring that is no token
// ("primrose" counts for "rose"), NULLs in matched columns (also under a
// term the rendering "NULL" would contain), a NULL key, a
// composite key with a NULL part and a repeated key, and a column where
// one dictionary ID stands for both int64(5) and "5" (only the string
// counts).
func cornerDB() *relation.Database {
	db := relation.NewDatabase("corners")
	flower := db.AddSchema(relation.NewSchema("Flower", "Fid", "Name", "Color").Key("Fid"))
	bed := db.AddSchema(relation.NewSchema("Bed", "Fid", "Row", "Note").Key("Fid", "Row"))
	code := db.AddSchema(relation.NewSchema("Code", "Cid", "Label").Key("Cid"))
	for i := 0; i < 5; i++ {
		flower.MustInsert(fmt.Sprintf("f%d", 5*i), "primrose", "red")
		flower.MustInsert(fmt.Sprintf("f%d", 5*i+1), "white rose", nil)
		flower.MustInsert(fmt.Sprintf("f%d", 5*i+2), nil, "rose red")
		flower.MustInsert(nil, "Rose garden", "ROSE")
		flower.MustInsert(fmt.Sprintf("f%d", 5*i+4), []string{"tulip", "NULL tulip"}[i%2], "5")
		bed.MustInsert("f1", fmt.Sprintf("r%d", i%2), "rose bed")
		bed.MustInsert(fmt.Sprintf("f%d", i), nil, "primrose bed")
		bed.MustInsert("f2", "r1", nil)
		code.MustInsert(fmt.Sprintf("c%d", 4*i), int64(5*i))
		code.MustInsert(fmt.Sprintf("c%d", 4*i+1), fmt.Sprint(5*i))
		code.MustInsert(fmt.Sprintf("c%d", 4*i+2), float64(i)+0.5)
		code.MustInsert(fmt.Sprintf("c%d", 4*i+3), fmt.Sprintf("%d.5 x", i))
	}
	return db
}

// TestMatcherDifferentialCorners runs the differential over cornerDB, frozen
// whole and grown through commits ExtendFrozenDatabase epochs whose
// dictionaries and keyword index are patched rather than rebuilt.
func TestMatcherDifferentialCorners(t *testing.T) {
	var terms []keyword.Term
	for _, text := range []string{"rose", "ROSE", "primrose", "rose red", "red", "bed", "5", "0", "1", ".5", "tulip", "garden", "null", "NULL"} {
		terms = append(terms, keyword.Term{Text: text, Kind: keyword.Basic}, keyword.Term{Text: text, Kind: keyword.Basic, Quoted: true})
	}
	full := cornerDB()
	g, err := orm.Build(full.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	full.Freeze()
	values, multi := requireRef(t, "frozen", match.New(full, full.Schemas(), g, nil), terms)
	if values == 0 || multi == 0 {
		t.Fatalf("%d value tags, %d counting several objects: the corners compared too little", values, multi)
	}
	db := prefix(t, full, 0)
	db.Freeze()
	db.Index() // built now, so each epoch patches it
	for k := 1; k <= commits; k++ {
		rows := make(map[string][]relation.Tuple)
		for _, tb := range full.Tables() {
			rows[strings.ToLower(tb.Schema.Name)] = added(tb, k)
		}
		if db, _, err = relation.ExtendFrozenDatabase(db, rows); err != nil {
			t.Fatal(err)
		}
		requireRef(t, fmt.Sprintf("epoch %d", k), match.New(db, db.Schemas(), g, nil), terms)
	}
	if got, want := db.Stats(), full.Stats(); got != want {
		t.Fatalf("grown database holds %s, want %s", got, want)
	}
}
