package relation

import (
	"fmt"
	"testing"
)

// colTestTable builds and freezes a table with n rows whose three columns mix
// strings, ints and NULLs: A is "a<i%7>" (no NULLs), B is int64(i%5) with
// every 13th row NULL, C alternates the literal string "NULL" and a real nil,
// which must get different IDs.
func colTestTable(n int) *Table {
	t := NewTable(NewSchema("T", "A", "B INT", "C").Key("A"))
	for i := 0; i < n; i++ {
		var b Value = int64(i % 5)
		if i%13 == 0 {
			b = nil
		}
		var c Value = "NULL"
		if i%2 == 1 {
			c = nil
		}
		t.MustInsert(fmt.Sprintf("a%d", i%7), b, c)
	}
	t.Freeze()
	return t
}

func TestColDataMatchesRowMajorEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, BlockSize - 1, BlockSize, BlockSize + 1, 2*BlockSize + 517} {
		tab := colTestTable(n)
		dicts, enc, ok := tab.Encoding()
		if !ok {
			t.Fatalf("n=%d: Encoding not available after Freeze", n)
		}
		ncols := len(dicts)
		for j := 0; j < ncols; j++ {
			col := tab.Col(j)
			if col == nil {
				t.Fatalf("n=%d: Col(%d) nil after Freeze", n, j)
			}
			if col.Len() != n {
				t.Fatalf("n=%d col %d: Len %d", n, j, col.Len())
			}
			for i := 0; i < n; i++ {
				if col.IDs[i] != enc[i*ncols+j] {
					t.Fatalf("n=%d: col %d row %d: transpose ID %d != row-major %d",
						n, j, i, col.IDs[i], enc[i*ncols+j])
				}
			}
		}
	}
}

// TestColDataNullBitset checks how a column marks its NULL rows. (The name
// is historical: ColData used to carry a null bitset; NULL rows now hold
// the reserved NullID, and the dictionary's HasNull bit says whether any do.)
func TestColDataNullBitset(t *testing.T) {
	tab := colTestTable(2*BlockSize + 517)
	dicts, _, _ := tab.Encoding()
	for j := range tab.Schema.Attributes {
		col := tab.Col(j)
		sawNull := false
		for i, tu := range tab.Tuples {
			if isNull := Null(tu[j]); isNull != (col.IDs[i] == NullID) {
				t.Fatalf("col %d row %d: ID %d for boxed value %#v", j, i, col.IDs[i], tu[j])
			} else if isNull {
				sawNull = true
			}
		}
		if got := dicts[j].HasNull(); got != sawNull {
			t.Errorf("col %d: HasNull = %v, NULL rows present = %v", j, got, sawNull)
		}
	}
	// Column A never holds NULL, column B and C do (rows 0 and 1 resp.).
	if dicts[0].HasNull() || !dicts[1].HasNull() || !dicts[2].HasNull() {
		t.Error("want HasNull false for A and true for B and C")
	}
	// The literal string "NULL" is an ordinary value, not NULL.
	c := tab.Col(2)
	if c.IDs[0] == c.IDs[1] {
		t.Errorf(`"NULL" (row 0) and nil (row 1) share dictionary ID %d`, c.IDs[0])
	}
}

func TestColDataBlocks(t *testing.T) {
	n := 2*BlockSize + 517 // trailing partial block
	tab := colTestTable(n)
	col := tab.Col(0)
	if got, want := Blocks(n), 3; got != want {
		t.Fatalf("Blocks(%d) = %d, want %d", n, got, want)
	}
	total := 0
	for b := 0; b < Blocks(n); b++ {
		blk := col.Block(b)
		wantLen := BlockSize
		if b == Blocks(n)-1 {
			wantLen = 517
		}
		if len(blk) != wantLen {
			t.Fatalf("block %d: len %d, want %d", b, len(blk), wantLen)
		}
		for k, id := range blk {
			if id != col.IDs[b*BlockSize+k] {
				t.Fatalf("block %d offset %d: ID %d != IDs[%d]=%d",
					b, k, id, b*BlockSize+k, col.IDs[b*BlockSize+k])
			}
		}
		total += len(blk)
	}
	if total != n {
		t.Fatalf("blocks cover %d rows, want %d", total, n)
	}
	for _, tc := range []struct{ n, want int }{
		{0, 0}, {1, 1}, {BlockSize, 1}, {BlockSize + 1, 2}, {4 * BlockSize, 4},
	} {
		if got := Blocks(tc.n); got != tc.want {
			t.Errorf("Blocks(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestColNilBeforeFreezeAndOutOfRange(t *testing.T) {
	tab := NewTable(NewSchema("T", "A", "B").Key("A"))
	tab.MustInsert("x", "y")
	if tab.Col(0) != nil {
		t.Error("Col must be nil before Freeze")
	}
	tab.Freeze()
	if tab.Col(0) == nil || tab.Col(1) == nil {
		t.Error("Col must be available after Freeze")
	}
	if tab.Col(-1) != nil || tab.Col(2) != nil {
		t.Error("out-of-range Col must be nil")
	}
}

// TestDatabaseFreezeAndAccessors exercises the database-level freeze
// lifecycle the executor relies on — Freeze propagating to every table,
// Frozen's all-tables semantics, Schemas registration order — plus the
// tuple/lookup accessors around the frozen dictionary index.
func TestDatabaseFreezeAndAccessors(t *testing.T) {
	db := NewDatabase("colblocks")
	tab := db.AddSchema(NewSchema("T", "A", "B INT").Key("A"))
	tab.MustInsert("x", int64(1))
	tab.MustInsert("y", nil)
	db.AddSchema(NewSchema("U", "K").Key("K"))
	if db.Frozen() {
		t.Fatal("database reports frozen before Freeze")
	}
	db.Freeze()
	if !db.Frozen() || !tab.Frozen() {
		t.Fatal("Freeze must freeze every table")
	}
	schemas := db.Schemas()
	if len(schemas) != 2 || schemas[0].Name != "T" || schemas[1].Name != "U" {
		t.Fatalf("Schemas out of registration order: %v", schemas)
	}
	row := tab.Tuples[0].Clone()
	row[0] = "z"
	if tab.Value(0, "A") != "x" {
		t.Fatal("Tuple.Clone must not alias the original backing array")
	}
	if v := tab.Value(1, "B"); v != nil {
		t.Fatalf("Value(1, B) = %v, want NULL", v)
	}
	if ids := tab.Lookup("A", "x"); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("frozen Lookup(A, x) = %v, want [0]", ids)
	}
	if ids := tab.Lookup("A", "missing"); ids != nil {
		t.Fatalf("frozen Lookup of absent value = %v, want nil", ids)
	}
	// NULL and int lookups go through the same dictionary path.
	if ids := tab.Lookup("B", int64(1)); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("frozen Lookup(B, 1) = %v, want [0]", ids)
	}
}
