package sqldb

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"kwagg/internal/dataset/tpch"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// benchDB returns the TPCH benchmark database frozen, as Open leaves it in
// production: frozen tables carry the dictionary encoding the batch kernels
// run over.
func benchDB(b *testing.B) *relation.Database {
	b.Helper()
	db := tpch.New(tpch.Default())
	db.Freeze()
	return db
}

// BenchmarkParse measures parsing the Example 7 nested statement.
func BenchmarkParse(b *testing.B) {
	sql := "SELECT AVG(R.numLid) AS avgnumLid FROM (SELECT C.Code, COUNT(L.Lid) AS numLid " +
		"FROM Lecturer L, Course C, (SELECT DISTINCT Lid, Code FROM Teach) T " +
		"WHERE T.Lid=L.Lid AND T.Code=C.Code GROUP BY C.Code) R"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStatement runs the statement through the batch kernels, single-shard,
// as the "batch" sub-benchmark.
func benchStatement(b *testing.B, db *relation.Database, sql string) {
	b.Helper()
	q, err := Parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := execQuery(db, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHashJoin3Way measures the T5-style join over the TPCH data.
func BenchmarkHashJoin3Way(b *testing.B) {
	benchStatement(b, benchDB(b),
		"SELECT COUNT(S.suppkey) AS n FROM Supplier S, Part P, "+
			"(SELECT DISTINCT suppkey, partkey FROM Lineitem) L "+
			"WHERE P.partkey=L.partkey AND L.suppkey=S.suppkey AND P.pname CONTAINS 'royal olive'")
}

// BenchmarkGroupByAggregate measures grouping all lineitems by supplier.
func BenchmarkGroupByAggregate(b *testing.B) {
	benchStatement(b, benchDB(b),
		"SELECT L.suppkey, COUNT(L.partkey) AS n FROM Lineitem L GROUP BY L.suppkey")
}

// BenchmarkDistinctProjection measures the Section 3.1.3 projection cost.
func BenchmarkDistinctProjection(b *testing.B) {
	benchStatement(b, benchDB(b),
		"SELECT DISTINCT L.partkey, L.suppkey FROM Lineitem L")
}

// BenchmarkEqualityFilter measures an equality-constant filter over the
// Lineitem table through the value index.
func BenchmarkEqualityFilter(b *testing.B) {
	db := benchDB(b)
	q, err := Parse("SELECT L.partkey FROM Lineitem L WHERE L.suppkey = 7")
	if err != nil {
		b.Fatal(err)
	}
	if res, err := execQuery(db, q); err != nil || len(res.Rows) == 0 {
		b.Fatalf("filter selects nothing: %v, %v", res, err)
	}
	b.Run("index", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := execQuery(db, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMemoSharedSubplans executes a batch of statements that share join
// fragments — the shape of a top-k interpretation list — with and without the
// shared-subplan memo.
func BenchmarkMemoSharedSubplans(b *testing.B) {
	db := benchDB(b)
	sqls := []string{
		"SELECT S.sname, COUNT(L.partkey) AS n FROM Supplier S, Lineitem L WHERE S.suppkey=L.suppkey GROUP BY S.sname",
		"SELECT S.sname, SUM(L.quantity) AS n FROM Supplier S, Lineitem L WHERE S.suppkey=L.suppkey GROUP BY S.sname",
		"SELECT S.sname, AVG(L.quantity) AS n FROM Supplier S, Lineitem L WHERE S.suppkey=L.suppkey GROUP BY S.sname",
		"SELECT S.sname, MAX(L.quantity) AS n FROM Supplier S, Lineitem L WHERE S.suppkey=L.suppkey GROUP BY S.sname",
	}
	queries := make([]*sqlast.Query, 0, len(sqls))
	for _, s := range sqls {
		q, err := Parse(s)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewMemo(1 << 22)
			for _, q := range queries {
				if _, _, err := ExecOpts(context.Background(), db, q, ExecConfig{Memo: m}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("nomemo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := execQuery(db, q); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- Per-kernel benchmarks ---------------------------------------------------
//
// The BenchmarkKernel* family isolates one kernel each by driving the
// executor's operators directly on prepared rowsets (the statement planner
// would otherwise bury the kernel under scans, planning and output
// materialization — and always probes hash joins with the smaller side, so a
// big-probe shape is unreachable through SQL). Relations span many BlockSize
// blocks plus a partial tail so the block loop's boundary handling is always
// on the path. Throughput is reported as input rows per second, the figure
// the bench-regression gate compares.

// kernelBenchRows sizes the synthetic kernel relations: 256 blocks plus a
// partial tail.
const kernelBenchRows = 256*relation.BlockSize + 517

// kernelDB builds the synthetic kernel-benchmark database: T carries a
// grouping key (64 values), a join key (16384 values) and a float filter
// column (512 values); U is a small build side covering 64 of T's join keys
// with one row each, so almost every probe misses; W covers every join key
// once, so every probe hits exactly once and emission dominates. The frozen
// database is immutable, so one instance is shared across all callers.
var kernelDBOnce = struct {
	sync.Once
	db *relation.Database
}{}

func kernelDB() *relation.Database {
	kernelDBOnce.Do(func() { kernelDBOnce.db = buildKernelDB() })
	return kernelDBOnce.db
}

func buildKernelDB() *relation.Database {
	db := relation.NewDatabase("kernelbench")
	tt := db.AddSchema(relation.NewSchema("T", "G INT", "V INT", "K INT", "F FLOAT").Key("V"))
	for i := 0; i < kernelBenchRows; i++ {
		tt.MustInsert(int64(i%64), int64(i), int64(i%16384), float64(i%1024)/2)
	}
	uu := db.AddSchema(relation.NewSchema("U", "K INT", "M INT").Key("K"))
	for i := 0; i < 64; i++ {
		uu.MustInsert(int64(i), int64(i*100))
	}
	ww := db.AddSchema(relation.NewSchema("W", "K INT", "M INT").Key("K"))
	for i := 0; i < 16384; i++ {
		ww.MustInsert(int64(i), int64(i*100))
	}
	db.Freeze()
	return db
}

// kernelSource builds the pristine scan rowset of a table.
func kernelSource(b *testing.B, e *executor, name string) *rowset {
	b.Helper()
	rs, err := e.source(sqlast.TableRef{Name: name, Alias: name})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// benchKernelModes runs op single-shard ("batch") and shard-parallel at
// GOMAXPROCS workers ("sharded"), reporting input rows per second per mode.
// op receives a fresh mode-configured executor per call. Run with -cpu 1,4
// the pair of sharded lines shows the multi-core scaling directly, and at
// -cpu 1 sharded collapses to batch (parFor caps workers at GOMAXPROCS).
func benchKernelModes(b *testing.B, inputRows int, op func(e *executor) error) {
	b.Helper()
	modes := []struct {
		name string
		par  int
	}{
		{"sharded", runtime.GOMAXPROCS(0)},
		{"batch", 0},
	}
	// One untimed warm-up op so the first timed mode does not pay the heap
	// ramp-up for large outputs that later modes then inherit for free.
	if err := op(&executor{}); err != nil {
		b.Fatal(err)
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(&executor{par: m.par}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(inputRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkKernelFilter isolates the equality-filter kernel on a pristine
// base scan with a float constant — the shape the value index cannot answer
// (it only keys strings and ints), so the batch path runs the contiguous
// eqBits kernel over the column blocks. 1/512 of the rows survive, keeping
// output cost marginal.
func BenchmarkKernelFilter(b *testing.B) {
	db := kernelDB()
	pred := sqlast.ComparePred{
		Col: sqlast.Col{Table: "T", Column: "F"}, Op: sqlast.OpEq, Value: float64(3.5)}
	benchKernelModes(b, kernelBenchRows, func(e *executor) error {
		e.db = db
		src := kernelSource(b, e, "T")
		out, err := e.filterRows(src, pred)
		// 256 full cycles of F plus the tail's one F=3.5 row.
		if err == nil && len(out.rows) != kernelBenchRows/1024+1 {
			b.Fatalf("filter kept %d rows", len(out.rows))
		}
		return err
	})
}

// BenchmarkKernelJoinProbe isolates the hash-join probe with the probe side
// 4096x the build side: T's 16384 join keys probe U's 64-key build (dense
// heads, chains of length one), so 255/256 of the probes miss and the probe
// loop — fused remap+survivor mask, head lookup — dominates emission.
func BenchmarkKernelJoinProbe(b *testing.B) {
	db := kernelDB()
	eqs := []sqlast.JoinPred{{
		Left:  sqlast.Col{Table: "T", Column: "K"},
		Right: sqlast.Col{Table: "U", Column: "K"},
	}}
	benchKernelModes(b, kernelBenchRows, func(e *executor) error {
		e.db = db
		left := kernelSource(b, e, "T")
		right := kernelSource(b, e, "U")
		out, err := e.join(left, right, eqs)
		// 16 full key cycles emit 64 matches each; the 517-row tail covers
		// keys 0..63 once more.
		if err == nil && len(out.rows) != (kernelBenchRows/16384)*64+64 {
			b.Fatalf("join emitted %d rows", len(out.rows))
		}
		return err
	})
}

// BenchmarkKernelJoinEmit isolates the join *emission* path: W covers every
// one of T's 16384 join keys exactly once, so every probe hits and the
// benchmark is dominated by carving output tuples out of arena blocks
// (~hundreds of ns per match when emission allocates per row; the arena
// amortizes that to one allocation per tupleArenaValues values, and the
// sharded path materializes at prefix-summed offsets with no append growth).
// Throughput is reported as emitted matches per second.
func BenchmarkKernelJoinEmit(b *testing.B) {
	db := kernelDB()
	eqs := []sqlast.JoinPred{{
		Left:  sqlast.Col{Table: "T", Column: "K"},
		Right: sqlast.Col{Table: "W", Column: "K"},
	}}
	benchKernelModes(b, kernelBenchRows, func(e *executor) error {
		e.db = db
		left := kernelSource(b, e, "T")
		right := kernelSource(b, e, "W")
		out, err := e.join(left, right, eqs)
		if err == nil && len(out.rows) != kernelBenchRows {
			b.Fatalf("emit join produced %d rows", len(out.rows))
		}
		return err
	})
}

// TestJoinEmitAllocs pins the emit path's allocation amortization: the
// every-probe-hits join from BenchmarkKernelJoinEmit must stay far below one
// allocation per emitted match on both the sequential batch path (arena
// carving) and the shard-parallel path (prefix-sum preallocation). A
// regression to per-row tuple boxing trips the 0.02 allocs/match budget by
// 50x.
func TestJoinEmitAllocs(t *testing.T) {
	db := kernelDB()
	eqs := []sqlast.JoinPred{{
		Left:  sqlast.Col{Table: "T", Column: "K"},
		Right: sqlast.Col{Table: "W", Column: "K"},
	}}
	for _, mode := range []struct {
		name string
		par  int
	}{
		{"batch", 0},
		{"sharded", runtime.GOMAXPROCS(0)},
	} {
		e := &executor{db: db, par: mode.par}
		left, err := e.source(sqlast.TableRef{Name: "T", Alias: "T"})
		if err != nil {
			t.Fatal(err)
		}
		right, err := e.source(sqlast.TableRef{Name: "W", Alias: "W"})
		if err != nil {
			t.Fatal(err)
		}
		// testing.AllocsPerRun pins GOMAXPROCS to 1 for its measurement,
		// which would collapse the sharded leg onto the sequential path —
		// count cumulative mallocs by hand instead. Mallocs is a
		// whole-process counter, so the budget leaves room for runtime
		// noise (it sits ~25x above the measured cost).
		const runs = 3
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			out, err := e.join(left, right, eqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.rows) != kernelBenchRows {
				t.Fatalf("emit join produced %d rows", len(out.rows))
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		if per := allocs / float64(kernelBenchRows); per > 0.02 {
			t.Errorf("%s: join emitted %d matches in %.0f allocs (%.4f allocs/match, budget 0.02)",
				mode.name, kernelBenchRows, allocs, per)
		}
	}
}

// BenchmarkKernelGroupBy isolates the grouping kernel through the whole
// statement (grouping is not reachable as a lone operator): one encoded key
// with 64 distinct values (dense slot table) and a COUNT that the batch path
// answers from the slot sizes without touching boxed values.
func BenchmarkKernelGroupBy(b *testing.B) {
	db := kernelDB()
	q, err := Parse("SELECT T.G, COUNT(T.V) AS n FROM T GROUP BY T.G")
	if err != nil {
		b.Fatal(err)
	}
	benchKernelModes(b, kernelBenchRows, func(e *executor) error {
		e.db = db
		_, err := e.query(q)
		return err
	})
}
