package sqldb

import (
	"testing"

	"kwagg/internal/relation"
)

// allocDB builds a frozen single-table database big enough that per-row
// allocations dominate any fixed setup cost: n rows with 16 distinct group
// keys, 64 distinct join keys and 32 distinct float values (floats are not
// indexable, so equality on F exercises the scan-side filter kernel).
func allocDB(n int) *relation.Database {
	db := relation.NewDatabase("alloc")
	tt := db.AddSchema(relation.NewSchema("T", "G INT", "V INT", "K INT", "F FLOAT").Key("V"))
	for i := 0; i < n; i++ {
		tt.MustInsert(int64(i%16), int64(i), int64(i%64), float64(i%32)+0.5)
	}
	uu := db.AddSchema(relation.NewSchema("U", "K INT", "M INT").Key("K"))
	for i := 0; i < 16; i++ {
		uu.MustInsert(int64(i), int64(i*100))
	}
	db.Freeze()
	return db
}

// assertAllocsPerRow pins a hash hot path to (near) zero allocations per
// input row: the fixed per-statement overhead (rowsets, group lists, the
// output) is allowed, per-row key construction is not.
func assertAllocsPerRow(t *testing.T, label string, rows int, maxPerRow float64, fn func()) {
	t.Helper()
	fn() // warm the dictionaries' cached remap tables, as a serving engine is
	allocs := testing.AllocsPerRun(10, fn)
	perRow := allocs / float64(rows)
	t.Logf("%s: %.0f allocs/op over %d rows = %.4f allocs/row", label, allocs, rows, perRow)
	if perRow > maxPerRow {
		t.Errorf("%s allocates %.4f/row (%.0f total), want <= %.4f/row — a per-row allocation crept into the hash path",
			label, perRow, allocs, maxPerRow)
	}
}

// TestGroupKeyAllocs pins the GROUP BY key path: grouping rows by an encoded
// column must not allocate per row (dense slot table, no key strings).
func TestGroupKeyAllocs(t *testing.T) {
	const rows = 20000
	db := allocDB(rows)
	q, err := Parse("SELECT T.G, COUNT(T.V) AS n FROM T GROUP BY T.G")
	if err != nil {
		t.Fatal(err)
	}
	assertAllocsPerRow(t, "group-by", rows, 0.05, func() {
		if _, err := execQuery(db, q); err != nil {
			t.Fatal(err)
		}
	})
}

// TestJoinKeyAllocs pins the hash-join key path: building over the big side
// and probing must not allocate per row (ID chains, cached remap table).
func TestJoinKeyAllocs(t *testing.T) {
	const rows = 20000
	db := allocDB(rows)
	// U's 16 keys hit a quarter of T's 64, so the probe is low-match-rate and
	// the output (rows/4) stays small next to the build side.
	q, err := Parse("SELECT COUNT(T.V) AS n FROM T, U WHERE U.K = T.K")
	if err != nil {
		t.Fatal(err)
	}
	res, err := execQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	matches := int64(0)
	for i := 0; i < rows; i++ {
		if i%64 < 16 {
			matches++
		}
	}
	if res.Rows[0][0] != relation.Value(matches) {
		t.Fatalf("join cardinality %v, want %v", res.Rows[0][0], matches)
	}
	assertAllocsPerRow(t, "hash-join", rows, 0.05, func() {
		if _, err := execQuery(db, q); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDistinctKeyAllocs pins DISTINCT over two encoded columns (the packed
// uint64/bitset path).
func TestDistinctKeyAllocs(t *testing.T) {
	const rows = 20000
	db := allocDB(rows)
	q, err := Parse("SELECT DISTINCT T.G, T.K FROM T")
	if err != nil {
		t.Fatal(err)
	}
	assertAllocsPerRow(t, "distinct", rows, 0.05, func() {
		if _, err := execQuery(db, q); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFilterKernelAllocs pins the batch equality filter: floats are not
// indexable, so the predicate runs through the scan-side selection-vector
// kernel, whose only allocations are the bitset and the gathered output —
// near zero per input row when most rows are filtered out.
func TestFilterKernelAllocs(t *testing.T) {
	const rows = 20000
	db := allocDB(rows)
	q, err := Parse("SELECT T.V FROM T WHERE T.F = 7.5") // 1/32 of rows survive
	if err != nil {
		t.Fatal(err)
	}
	assertAllocsPerRow(t, "batch-filter", rows, 0.05, func() {
		if _, err := execQuery(db, q); err != nil {
			t.Fatal(err)
		}
	})
}
