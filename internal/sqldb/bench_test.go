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

// BenchmarkSemiJoinDerived measures statements whose derived tables the
// semi-join pass restricts to a CONTAINS-filtered partner's keys, at
// tpch.Large: TPCH T8's first statement (two DISTINCT projections of
// Lineitem) and TPCH' T4's first (three normalized-view subqueries of the
// denormalized Ordering relation).
func BenchmarkSemiJoinDerived(b *testing.B) {
	normalized := tpch.New(tpch.Large())
	denormalized := tpch.Denormalize(normalized)
	normalized.Freeze()
	denormalized.Freeze()
	for _, c := range []struct {
		name string
		db   *relation.Database
		sql  string
	}{
		{"TPCH-T8", normalized,
			"SELECT P2.partkey, P3.partkey, COUNT(S1.suppkey) AS numsuppkey FROM Supplier S1, Part P2, Part P3, " +
				"(SELECT DISTINCT suppkey, partkey FROM Lineitem) L4, (SELECT DISTINCT suppkey, partkey FROM Lineitem) L5 " +
				"WHERE P2.partkey=L4.partkey AND L4.suppkey=S1.suppkey AND P3.partkey=L5.partkey AND L5.suppkey=S1.suppkey " +
				"AND P2.pname CONTAINS 'pink rose' AND P3.pname CONTAINS 'white rose' GROUP BY P2.partkey, P3.partkey"},
		{"TPCH'-T4", denormalized,
			"SELECT P2.partkey, MAX(S1.acctbal) AS maxacctbal FROM (SELECT DISTINCT suppkey, acctbal FROM Ordering) S1, " +
				"(SELECT DISTINCT partkey, pname FROM Ordering WHERE pname CONTAINS 'yellow tomato') P2, " +
				"(SELECT DISTINCT suppkey, partkey FROM Ordering) L3 " +
				"WHERE P2.partkey=L3.partkey AND L3.suppkey=S1.suppkey GROUP BY P2.partkey"},
	} {
		q, err := Parse(c.sql)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := execQuery(c.db, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
	rs, err := pristineScan(e, name)
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// pristineScan evaluates FROM entry name (aliased to itself) as a base scan.
func pristineScan(e *executor, name string) (*rowset, error) {
	tr := sqlast.TableRef{Name: name, Alias: name}
	cols, err := e.fromCols(tr)
	if err != nil {
		return nil, err
	}
	return e.source(tr, cols, nil, nil)
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

// BenchmarkKernelFilter isolates the equality-filter sweep (eqBitsStrided)
// on a rowset that is not a pristine scan, so the value index cannot answer
// it even though the constant's postings total far less than n/8. 1/512 of
// the rows survive, keeping output cost marginal.
func BenchmarkKernelFilter(b *testing.B) {
	db := kernelDB()
	pred := sqlast.ComparePred{
		Col: sqlast.Col{Table: "T", Column: "F"}, Op: sqlast.OpEq, Value: float64(3.5)}
	benchKernelModes(b, kernelBenchRows, func(e *executor) error {
		e.db = db
		src := unindexed(kernelSource(b, e, "T"))
		out, indexed, err := e.filterRows(src, pred)
		// 256 full cycles of F plus the tail's one F=3.5 row.
		if err == nil && (indexed || out.n != kernelBenchRows/1024+1) {
			b.Fatalf("filter kept %d rows (indexed %v)", out.n, indexed)
		}
		return err
	})
}

// benchKernelJoin runs the join of T's K with build table name's K through
// benchKernelModes twice: building on the pristine scan, whose value index
// serves, and under "chains" on the same rows unindexed, so buildChains
// threads them. want is the expected output row count.
func benchKernelJoin(b *testing.B, name string, want int) {
	db := kernelDB()
	eqs := []sqlast.JoinPred{{
		Left:  sqlast.Col{Table: "T", Column: "K"},
		Right: sqlast.Col{Table: name, Column: "K"},
	}}
	run := func(b *testing.B, chained bool) {
		benchKernelModes(b, kernelBenchRows, func(e *executor) error {
			e.db = db
			left := kernelSource(b, e, "T")
			right := kernelSource(b, e, name)
			if chained {
				right = unindexed(right)
			}
			out, indexed, err := e.join(left, right, eqs)
			if err == nil && (indexed == chained || out.n != want) {
				b.Fatalf("join emitted %d rows (indexed %v)", out.n, indexed)
			}
			return err
		})
	}
	run(b, false)
	b.Run("chains", func(b *testing.B) { run(b, true) })
}

// BenchmarkKernelJoinProbe isolates the hash-join probe with the probe side
// 4096x the build side: T's 16384 join keys probe U's 64 keys (one build
// row each), so 255/256 of the probes miss and the probe loop — fused
// remap+survivor mask, build lookup — dominates emission. 16 full key
// cycles emit 64 matches each; the 517-row tail covers keys 0..63 once more.
func BenchmarkKernelJoinProbe(b *testing.B) {
	benchKernelJoin(b, "U", (kernelBenchRows/16384)*64+64)
}

// BenchmarkKernelJoinEmit isolates the join *emission* path: W covers every
// one of T's 16384 join keys exactly once, so every probe hits and the
// benchmark is dominated by writing the matches' IDs, which every path
// places at prefix-summed offsets in one exactly sized allocation.
func BenchmarkKernelJoinEmit(b *testing.B) {
	benchKernelJoin(b, "W", kernelBenchRows)
}

// TestJoinEmitAllocs pins the emit path's allocation amortization: the
// every-probe-hits join from BenchmarkKernelJoinEmit must stay far below one
// allocation per emitted match, and at 4 bytes per output cell plus a fixed
// slack for the build side, on both the sequential batch path and the
// shard-parallel path (both count the matches first and allocate the output
// IDs once), building on W's value index and on chains threaded over W's
// rows. A regression to per-row tuple boxing trips the 0.02 allocs/match
// budget by 50x; carrying boxed values beside the IDs (a 16-byte interface
// per cell and a 24-byte row header) trips the byte budget about fivefold.
func TestJoinEmitAllocs(t *testing.T) {
	db := kernelDB()
	eqs := []sqlast.JoinPred{{
		Left:  sqlast.Col{Table: "T", Column: "K"},
		Right: sqlast.Col{Table: "W", Column: "K"},
	}}
	for _, mode := range []struct {
		name    string
		par     int
		chained bool
	}{
		{"batch", 0, false},
		{"sharded", runtime.GOMAXPROCS(0), false},
		{"batch-chains", 0, true},
		{"sharded-chains", runtime.GOMAXPROCS(0), true},
	} {
		e := &executor{db: db, par: mode.par}
		left, err := pristineScan(e, "T")
		if err != nil {
			t.Fatal(err)
		}
		right, err := pristineScan(e, "W")
		if err != nil {
			t.Fatal(err)
		}
		if mode.chained {
			right = unindexed(right)
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
			out, indexed, err := e.join(left, right, eqs)
			if err != nil {
				t.Fatal(err)
			}
			if out.n != kernelBenchRows || indexed == mode.chained {
				t.Fatalf("%s: emit join produced %d rows (indexed %v)", mode.name, out.n, indexed)
			}
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		if per := allocs / float64(kernelBenchRows); per > 0.02 {
			t.Errorf("%s: join emitted %d matches in %.0f allocs (%.4f allocs/match, budget 0.02)",
				mode.name, kernelBenchRows, allocs, per)
		}
		const slack = 1 << 20
		cells := kernelBenchRows * (len(left.cols) + len(right.cols))
		if bytes := (after.TotalAlloc - before.TotalAlloc) / runs; bytes > uint64(4*cells+slack) {
			t.Errorf("%s: join emitted %d cells in %d bytes, budget 4 bytes per cell plus %d",
				mode.name, cells, bytes, slack)
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
