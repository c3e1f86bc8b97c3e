package pattern

import (
	"testing"

	"kwagg/internal/dataset/tpch"
	"kwagg/internal/keyword"
	"kwagg/internal/match"
	"kwagg/internal/orm"
)

func tpchGenerator(b *testing.B) *Generator {
	b.Helper()
	db := tpch.New(tpch.Default())
	g, err := orm.Build(db.Schemas())
	if err != nil {
		b.Fatal(err)
	}
	db.Freeze()
	return NewGenerator(match.New(db, db.Schemas(), g, nil))
}

// BenchmarkGenerate measures pattern generation (matching, connection,
// annotation, disambiguation, ranking) for representative queries.
func BenchmarkGenerate(b *testing.B) {
	gen := tpchGenerator(b)
	queries := map[string]string{
		"single-node":  "order AVG amount",
		"two-node":     "COUNT part GROUPBY supplier",
		"value-fanout": `COUNT order "royal olive"`,
		"self-join":    `COUNT supplier "pink rose" "white rose"`,
		"nested":       "MAX COUNT order GROUPBY nation",
	}
	for name, q := range queries {
		kq, err := keyword.Parse(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gen.Generate(kq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
