package match

import (
	"testing"

	"kwagg/internal/dataset/tpch"
	"kwagg/internal/keyword"
	"kwagg/internal/normalize"
	"kwagg/internal/orm"
)

// benchTags keeps the benchmarked calls' results live.
var benchTags []Tag

// BenchmarkMatchValueTerm measures Match on the value terms of T3-T8 over
// the denormalized TPCH' at the end-to-end benchmark's scale (tpch.Large,
// one wide relation of about 32k rows), where every value tag counts its
// objects in the stored relation. "supplier" and "part" also match relation
// and attribute names, and values in many rows.
func BenchmarkMatchValueTerm(b *testing.B) {
	db := tpch.Denormalize(tpch.New(tpch.Large()))
	view, err := normalize.BuildView(db, tpch.NameHints())
	if err != nil {
		b.Fatal(err)
	}
	g, err := orm.Build(view.Schemas)
	if err != nil {
		b.Fatal(err)
	}
	db.Freeze()
	m := New(db, view.Schemas, g, view.Sources)
	for _, text := range []string{"royal olive", "yellow tomato", "Indian black chocolate", "pink rose", "white rose", "supplier", "part"} {
		term := keyword.Term{Text: text, Kind: keyword.Basic}
		if len(m.Match(term)) == 0 {
			b.Fatalf("%q matches nothing", text)
		}
		b.Run(text, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchTags = m.Match(term)
			}
		})
	}
}
