// Benchmarks regenerating the paper's evaluation (Section 6), one benchmark
// per table/figure:
//
//   - BenchmarkFigure11aGenerationTPCH / BenchmarkFigure11bGenerationACMDL
//     time SQL generation only (pattern generation + translation for the
//     semantic approach, SQN construction for SQAK) — the quantity plotted
//     in Figure 11.
//   - BenchmarkTable5AnswerTPCH / BenchmarkTable6AnswerACMDL time the full
//     pipeline (interpretation + execution) on the normalized databases.
//   - BenchmarkTable8UnnormalizedTPCH / BenchmarkTable9UnnormalizedACMDL do
//     the same over the Table 7 denormalized variants, including the
//     normalized-view planning and Section 4.1 rewriting.
//   - BenchmarkAblation* quantify the design choices DESIGN.md calls out:
//     the Section 4.1 rewriting rules and the ORM-graph construction cost.
//
// Run: go test -bench=. -benchmem
package kwagg_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"kwagg"

	"kwagg/internal/core"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/keyword"
	"kwagg/internal/orm"
	"kwagg/internal/relation"
	"kwagg/internal/sqldb"
)

var (
	setupOnce sync.Once
	tpchN     *experiments.Setup
	tpchU     *experiments.Setup
	acmdlN    *experiments.Setup
	acmdlU    *experiments.Setup
)

func setups(b *testing.B) (tn, tu, an, au *experiments.Setup) {
	b.Helper()
	setupOnce.Do(func() {
		var err error
		if tpchN, err = experiments.NewTPCH(tpch.Default()); err != nil {
			b.Fatal(err)
		}
		if tpchU, err = experiments.NewTPCHUnnormalized(tpch.Default()); err != nil {
			b.Fatal(err)
		}
		if acmdlN, err = experiments.NewACMDL(acmdl.Default()); err != nil {
			b.Fatal(err)
		}
		if acmdlU, err = experiments.NewACMDLUnnormalized(acmdl.Default()); err != nil {
			b.Fatal(err)
		}
	})
	return tpchN, tpchU, acmdlN, acmdlU
}

// benchGeneration times SQL generation (no execution) for each query of the
// workload, for both systems — the Figure 11 measurement.
func benchGeneration(b *testing.B, s *experiments.Setup, queries []experiments.Query) {
	for _, q := range queries {
		b.Run(q.ID+"/semantic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Ours.Interpret(q.Keywords, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/sqak", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = s.SQAK.Translate(q.Keywords)
			}
		})
	}
}

// BenchmarkFigure11aGenerationTPCH regenerates Figure 11(a).
func BenchmarkFigure11aGenerationTPCH(b *testing.B) {
	tn, _, _, _ := setups(b)
	benchGeneration(b, tn, experiments.QueriesTPCH())
}

// BenchmarkFigure11bGenerationACMDL regenerates Figure 11(b).
func BenchmarkFigure11bGenerationACMDL(b *testing.B) {
	_, _, an, _ := setups(b)
	benchGeneration(b, an, experiments.QueriesACMDL())
}

// benchAnswers times interpretation plus execution of the selected
// interpretation for each query (the answers of Tables 5/6/8/9).
func benchAnswers(b *testing.B, s *experiments.Setup, queries []experiments.Query) {
	for _, q := range queries {
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable5AnswerTPCH regenerates the Table 5 answers.
func BenchmarkTable5AnswerTPCH(b *testing.B) {
	tn, _, _, _ := setups(b)
	benchAnswers(b, tn, experiments.QueriesTPCH())
}

// BenchmarkTable6AnswerACMDL regenerates the Table 6 answers.
func BenchmarkTable6AnswerACMDL(b *testing.B) {
	_, _, an, _ := setups(b)
	benchAnswers(b, an, experiments.QueriesACMDL())
}

// BenchmarkTable8UnnormalizedTPCH regenerates the Table 8 answers.
func BenchmarkTable8UnnormalizedTPCH(b *testing.B) {
	_, tu, _, _ := setups(b)
	benchAnswers(b, tu, experiments.QueriesTPCH())
}

// BenchmarkTable9UnnormalizedACMDL regenerates the Table 9 answers.
func BenchmarkTable9UnnormalizedACMDL(b *testing.B) {
	_, _, _, au := setups(b)
	benchAnswers(b, au, experiments.QueriesACMDL())
}

// BenchmarkAblationRewriteRules compares executing the Example 9 style
// statement with and without the Section 4.1 rewriting rules on the
// unnormalized TPCH' database, quantifying what Rule 1-3 buy.
func BenchmarkAblationRewriteRules(b *testing.B) {
	_, tu, _, _ := setups(b)
	sys := tu.Ours
	q := `COUNT supplier "Indian black chocolate"`

	ins, err := sys.Interpret(q, 1)
	if err != nil {
		b.Fatal(err)
	}
	rewritten := ins[0].SQL

	// Re-translate the same pattern with the rewriting rules disabled.
	raw := *sys.Translator
	raw.Rewrite = false
	patterns, err := sys.Generator.Generate(mustParse(b, q))
	if err != nil {
		b.Fatal(err)
	}
	unrewritten, err := raw.Translate(patterns[0])
	if err != nil {
		b.Fatal(err)
	}

	b.Run("rewritten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sqldb.ExecOpts(context.Background(), sys.Data, rewritten, sqldb.ExecConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrewritten", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sqldb.ExecOpts(context.Background(), sys.Data, unrewritten, sqldb.ExecConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationDedupProjection compares executing T6 with and without
// the Section 3.1.3 duplicate-elimination projection of Lineitem: the
// projection changes the answers (correctness) and also the join sizes.
func BenchmarkAblationDedupProjection(b *testing.B) {
	tn, _, _, _ := setups(b)
	sys := tn.Ours
	q := "COUNT part GROUPBY supplier"

	ins, err := sys.Interpret(q, 1)
	if err != nil {
		b.Fatal(err)
	}
	withRule := ins[0].SQL

	raw := *sys.Translator
	raw.DisableDedup = true
	patterns, err := sys.Generator.Generate(mustParse(b, q))
	if err != nil {
		b.Fatal(err)
	}
	withoutRule, err := raw.Translate(patterns[0])
	if err != nil {
		b.Fatal(err)
	}

	b.Run("with-projection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sqldb.ExecOpts(context.Background(), sys.Data, withRule, sqldb.ExecConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-projection", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := sqldb.ExecOpts(context.Background(), sys.Data, withoutRule, sqldb.ExecConfig{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOpen measures preparing a database for keyword search: normal
// form checking, ORM schema graph construction, and inverted-index build.
func BenchmarkOpen(b *testing.B) {
	dbs := map[string]func() *relation.Database{
		"tpch":         func() *relation.Database { return tpch.New(tpch.Default()) },
		"tpch-denorm":  func() *relation.Database { return tpch.Denormalize(tpch.New(tpch.Default())) },
		"acmdl":        func() *relation.Database { return acmdl.New(acmdl.Default()) },
		"acmdl-denorm": func() *relation.Database { return acmdl.Denormalize(acmdl.New(acmdl.Default())) },
	}
	for _, name := range []string{"tpch", "tpch-denorm", "acmdl", "acmdl-denorm"} {
		db := dbs[name]()
		hints := map[string]string{}
		switch name {
		case "tpch-denorm":
			hints = tpch.NameHints()
		case "acmdl-denorm":
			hints = acmdl.NameHints()
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Open(db, &core.Options{NameHints: hints}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaleSweepGeneration extends Figure 11 with a dataset-size
// sweep: SQL-generation time for T3 (the value-match-heavy query) at the
// small and default scales. Generation depends on the matched-object
// counts, not the raw data volume, so times should grow sublinearly.
func BenchmarkScaleSweepGeneration(b *testing.B) {
	configs := map[string]tpch.Config{
		"small":   tpch.Small(),
		"default": tpch.Default(),
	}
	for _, name := range []string{"small", "default"} {
		s, err := experiments.NewTPCH(configs[name])
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Ours.Interpret(`COUNT order "royal olive"`, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeScale runs the full pipeline (interpret + execute) for two
// representative queries on a ~50k-lineitem TPCH instance, demonstrating
// the engine stays interactive well beyond the experiment scale.
func BenchmarkLargeScale(b *testing.B) {
	db := tpch.New(tpch.Large())
	sys, err := core.Open(db, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range []struct{ name, query string }{
		{"T3-royal-olive", `COUNT order "royal olive"`},
		{"T6-parts-per-supplier", "COUNT part GROUPBY supplier"},
	} {
		b.Run(q.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Answer(q.query, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkORMGraphWalk measures the constrained walk search used to
// connect same-class pattern nodes (e.g. Student to Student via
// Enrol-Course-Enrol).
func BenchmarkORMGraphWalk(b *testing.B) {
	tn, _, _, _ := setups(b)
	g := tn.Ours.Graph
	b.Run("Part-Part", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.WalkPath("Part", "Part") == nil {
				b.Fatal("no walk")
			}
		}
	})
	b.Run("Region-Part", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if g.WalkPath("Region", "Part") == nil {
				b.Fatal("no walk")
			}
		}
	})
	_ = orm.Object // keep the orm import for documentation cross-reference
}

func mustParse(b *testing.B, q string) *keyword.Query {
	b.Helper()
	kq, err := keyword.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	return kq
}

// BenchmarkAnswerCached quantifies the interpretation cache: answering the
// same ACMDL query repeatedly through a caching engine against an engine
// with the cache disabled (Options.CacheSize < 0). The cached path should
// win by well over an order of magnitude since only execution remains.
func BenchmarkAnswerCached(b *testing.B) {
	const q = "COUNT paper GROUPBY proceeding SIGMOD"
	for _, cfg := range []struct {
		name      string
		cacheSize int
	}{
		{"cached", 0},
		{"uncached", -1},
	} {
		eng, err := kwagg.Open(kwagg.ACMDLDB(kwagg.ACMDLDefault), &kwagg.Options{CacheSize: cfg.cacheSize})
		if err != nil {
			b.Fatal(err)
		}
		// Warm once so the cached variant measures steady-state hits.
		if _, err := eng.Answer(q, 1); err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Answer(q, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnswerParallel8 measures executing every interpretation of an
// ACMDL query (k=0) with a single-worker pool against an 8-worker pool,
// driving core.ExecuteAll directly on pre-computed interpretations so the
// benchmark isolates the execution stage the pool parallelizes (through the
// Engine the answer cache would absorb the repeats).
func BenchmarkAnswerParallel8(b *testing.B) {
	_, _, an, _ := setups(b)
	sys := an.Ours
	ins, err := sys.Interpret("COUNT paper GROUPBY proceeding SIGMOD", 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		sys.Workers = workers
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sys.ExecuteAll(ctx, ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	sys.Workers = 0
}

// BenchmarkPaperColdPass is one pass over kwbench's 32 paper-cold pairs per
// iteration: T1-T8 on TPCH and TPCH' at tpch.Large, A1-A8 on ACMDL and
// ACMDL' with every entity count times five, seed 42, k=3, with the memo off
// (core.System has no answer cache). It reports bytes and allocations per
// pass, the figure the executor's row representation drives:
//
//	go test -run '^$' -bench PaperColdPass -benchmem .
func BenchmarkPaperColdPass(b *testing.B) {
	tc := tpch.Large()
	tc.Seed = 42
	ac := acmdl.Default()
	ac.Seed = 42
	ac.Authors *= 5
	ac.Editors *= 5
	ac.Proceedings *= 5
	ac.Papers *= 5
	type pair struct {
		sys   *core.System
		query string
	}
	var pairs []pair
	for _, s := range []struct {
		db      *relation.Database
		views   map[string]string
		queries []experiments.Query
	}{
		{tpch.New(tc), nil, experiments.QueriesTPCH()},
		{tpch.Denormalize(tpch.New(tc)), tpch.NameHints(), experiments.QueriesTPCH()},
		{acmdl.New(ac), nil, experiments.QueriesACMDL()},
		{acmdl.Denormalize(acmdl.New(ac)), acmdl.NameHints(), experiments.QueriesACMDL()},
	} {
		sys, err := core.Open(s.db, &core.Options{NameHints: s.views, MemoCells: -1})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range s.queries {
			pairs = append(pairs, pair{sys, q.Keywords})
		}
	}
	pass := func() {
		for _, p := range pairs {
			if _, err := p.sys.Answer(p.query, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass() // warm the dictionaries' remap caches, as a serving engine is
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
