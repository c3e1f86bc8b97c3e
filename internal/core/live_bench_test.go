package core

import (
	"context"
	"fmt"
	"testing"

	"kwagg/internal/relation"
)

// benchItemRows builds rows [lo, hi) of the bench table deterministically:
// unique integer keys, names over a bounded token vocabulary (realistic
// text — the inverted index's vocabulary stays O(language), not O(rows)),
// low-cardinality categories and periodically-NULL prices.
func benchItemRows(lo, hi int) []relation.Tuple {
	out := make([]relation.Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		var price relation.Value = float64(i%101) + 0.25
		if i%53 == 0 {
			price = nil
		}
		out = append(out, relation.Tuple{
			int64(i),
			fmt.Sprintf("widget alpha%d beta%d", i%97, i%89),
			fmt.Sprintf("cat%d", i%13),
			price,
		})
	}
	return out
}

func benchItemDB(b *testing.B, n int) *relation.Database {
	b.Helper()
	s := relation.NewSchema("Item", "Iid INT", "Name", "Cat", "Price FLOAT").Key("Iid")
	tb := relation.NewTable(s)
	if err := tb.AppendShared(benchItemRows(0, n)); err != nil {
		b.Fatal(err)
	}
	db := relation.NewDatabase("bench")
	db.Add(tb)
	return db
}

// BenchmarkEpochCommit measures building the next epoch across the N
// existing × M new rows grid, in two modes: Live.Commit's incremental delta
// freeze, and a from-scratch epoch (a fresh table over the old and new rows,
// then Open), which is the before/after comparison the incremental commit
// was built to win — committing a 1k-row batch into a 100k-row database must
// be ≥10x faster incrementally. rows/s counts committed (new) rows per
// wall-second of the build; generating and ingesting the batch happen
// outside the timer. The database grows by M rows per iteration in both
// modes, exactly as a live deployment's would.
func BenchmarkEpochCommit(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		for _, m := range []int{100, 1_000} {
			b.Run(fmt.Sprintf("rows=%d/batch=%d/incremental", n, m), func(b *testing.B) {
				live, err := OpenLive(benchItemDB(b, n), nil)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				next := n
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rows := benchItemRows(next, next+m)
					next += m
					if _, err := live.IngestTuples("Item", rows); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := live.Commit(ctx); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if live.Epoch() != uint64(b.N) {
					b.Fatalf("epoch %d after %d commits", live.Epoch(), b.N)
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
			b.Run(fmt.Sprintf("rows=%d/batch=%d/full", n, m), func(b *testing.B) {
				sys, err := Open(benchItemDB(b, n), nil)
				if err != nil {
					b.Fatal(err)
				}
				next := n
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					rows := benchItemRows(next, next+m)
					next += m
					old := sys.Data.Table("Item")
					b.StartTimer()
					tb := relation.NewTable(old.Schema.Clone())
					if err := tb.AppendShared(old.Tuples, rows); err != nil {
						b.Fatal(err)
					}
					db := relation.NewDatabase(sys.Data.Name)
					db.Add(tb)
					if sys, err = Open(db, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if got := sys.Data.Table("Item").Len(); got != next {
					b.Fatalf("%d rows after %d builds, want %d", got, b.N, next)
				}
				b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}
