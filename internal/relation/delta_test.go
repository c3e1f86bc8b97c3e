package relation

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// deltaSchema covers every attribute type plus a NULL-capable float and a
// string column that can store the literal "NULL" (which must keep an ID of
// its own, apart from NullID).
func deltaSchema() *Schema {
	return NewSchema("Item", "Iid INT", "Name", "Cat", "Price FLOAT").Key("Iid")
}

// deltaRow builds row i deterministically: repeating categories, a shared
// token plus per-row tokens in Name, periodic NULL prices and the literal
// string "NULL" in Name.
func deltaRow(i int) Tuple {
	var price Value = float64(i%7) + 0.5
	if i%9 == 0 {
		price = nil
	}
	name := fmt.Sprintf("item %d alpha%d", i, i%13)
	if i%11 == 0 {
		name = "NULL"
	}
	return Tuple{int64(i), name, fmt.Sprintf("cat%d", i%3), price}
}

func deltaRows(lo, hi int) []Tuple {
	out := make([]Tuple, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, deltaRow(i))
	}
	return out
}

// fullFreeze builds the reference table the slow way: all rows from scratch.
func fullFreeze(t *testing.T, s *Schema, batches ...[]Tuple) *Table {
	t.Helper()
	nt := NewTable(s.Clone())
	if err := nt.AppendShared(batches...); err != nil {
		t.Fatalf("AppendShared: %v", err)
	}
	nt.Freeze()
	return nt
}

// requireTableEqual asserts the delta-built table is indistinguishable from
// the full freeze: tuples, dictionaries (IDs, values and the HasNull bit),
// row-major encoding, column blocks and value-index postings.
func requireTableEqual(t *testing.T, got, want *Table) {
	t.Helper()
	if !got.Frozen() {
		t.Fatal("delta table is not frozen")
	}
	if got.Len() != want.Len() {
		t.Fatalf("rows: got %d, want %d", got.Len(), want.Len())
	}
	ncols := len(want.Schema.Attributes)
	for i := range want.Tuples {
		for j := 0; j < ncols; j++ {
			if Format(got.Tuples[i][j]) != Format(want.Tuples[i][j]) {
				t.Fatalf("tuple %d col %d: got %v, want %v", i, j, got.Tuples[i][j], want.Tuples[i][j])
			}
		}
	}
	if len(got.enc) != len(want.enc) {
		t.Fatalf("enc length: got %d, want %d", len(got.enc), len(want.enc))
	}
	for k := range want.enc {
		if got.enc[k] != want.enc[k] {
			t.Fatalf("enc[%d]: got %d, want %d", k, got.enc[k], want.enc[k])
		}
	}
	for j := 0; j < ncols; j++ {
		gd, wd := got.dicts[j], want.dicts[j]
		if gd.Len() != wd.Len() {
			t.Fatalf("dict %d: got %d entries, want %d", j, gd.Len(), wd.Len())
		}
		if gd.AllStrings() != wd.AllStrings() {
			t.Fatalf("dict %d AllStrings: got %v, want %v", j, gd.AllStrings(), wd.AllStrings())
		}
		if gd.HasNull() != wd.HasNull() {
			t.Fatalf("dict %d HasNull: got %v, want %v", j, gd.HasNull(), wd.HasNull())
		}
		for id := int(NullID) + 1; id < wd.Len(); id++ {
			if Format(gd.Value(uint32(id))) != Format(wd.Value(uint32(id))) {
				t.Fatalf("dict %d id %d: got %v, want %v", j, id, gd.Value(uint32(id)), wd.Value(uint32(id)))
			}
			if gid, ok := gd.ID(wd.Value(uint32(id))); !ok || gid != uint32(id) {
				t.Fatalf("dict %d reverse lookup of %v: got (%d,%v), want (%d,true)",
					j, wd.Value(uint32(id)), gid, ok, id)
			}
		}
		gc, wc := got.Col(j), want.Col(j)
		if !reflect.DeepEqual(gc.IDs, wc.IDs) {
			t.Fatalf("col %d IDs differ", j)
		}
		if len(got.post[j]) != len(want.post[j]) {
			t.Fatalf("post %d: got %d lists, want %d", j, len(got.post[j]), len(want.post[j]))
		}
		for id := range want.post[j] {
			if !reflect.DeepEqual(got.post[j][id], want.post[j][id]) {
				t.Fatalf("post %d id %d: got %v, want %v", j, id, got.post[j][id], want.post[j][id])
			}
		}
	}
}

// The commit-shape grid the incremental freeze must get right: growing
// within the partial tail block, spilling into fresh blocks, starting from
// empty, and starting exactly at a block boundary.
func TestExtendFrozenMatchesFullFreeze(t *testing.T) {
	cases := []struct {
		name   string
		n0, n1 int
	}{
		{"partial tail only", 100, 140},                                  // no new block allocated
		{"fill tail exactly", BlockSize - 40, BlockSize},                 // tail block becomes full
		{"spill into fresh blocks", BlockSize + 100, 3*BlockSize + 17},   // new full + partial blocks
		{"empty base", 0, 200},                                           // delta from an empty frozen table
		{"block-aligned base", 2 * BlockSize, 2*BlockSize + BlockSize/2}, // tail starts a fresh block
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := deltaSchema()
			base := fullFreeze(t, s, deltaRows(0, tc.n0))
			got, stats, err := ExtendFrozen(base, deltaRows(tc.n0, tc.n1))
			if err != nil {
				t.Fatalf("ExtendFrozen: %v", err)
			}
			if stats.NewRows != tc.n1-tc.n0 {
				t.Fatalf("NewRows: got %d, want %d", stats.NewRows, tc.n1-tc.n0)
			}
			requireTableEqual(t, got, fullFreeze(t, s, deltaRows(0, tc.n1)))
			// The base must be untouched: still the old rows, old postings.
			if base.Len() != tc.n0 {
				t.Fatalf("base mutated: %d rows, want %d", base.Len(), tc.n0)
			}
			requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, tc.n0)))
		})
	}
}

// An all-NULL batch landing in a fresh tail block: it interns no new value,
// but it is the column's first NULL, so the extended column needs a
// dictionary whose HasNull bit is set while the base's stays clear.
func TestExtendFrozenAllNullFreshTailBlock(t *testing.T) {
	s := NewSchema("N", "Id INT", "Score FLOAT").Key("Id")
	rows := make([]Tuple, BlockSize)
	for i := range rows {
		rows[i] = Tuple{int64(i), float64(i)}
	}
	base := fullFreeze(t, s, rows)
	add := make([]Tuple, 90)
	for i := range add {
		add[i] = Tuple{int64(BlockSize + i), nil} // every new Score is NULL
	}
	got, _, err := ExtendFrozen(base, add)
	if err != nil {
		t.Fatalf("ExtendFrozen: %v", err)
	}
	requireTableEqual(t, got, fullFreeze(t, s, rows, add))
	if !got.dicts[1].HasNull() {
		t.Fatal("extended column's dictionary does not report its NULLs")
	}
	if base.dicts[1].HasNull() {
		t.Fatal("base column's dictionary gained HasNull")
	}
}

// Delta-on-delta: the second commit extends a table that was itself built
// incrementally (the in-place claim path, since the first delta allocated
// private arrays with headroom).
func TestExtendFrozenDeltaOnDelta(t *testing.T) {
	s := deltaSchema()
	base := fullFreeze(t, s, deltaRows(0, 300))
	d1, _, err := ExtendFrozen(base, deltaRows(300, 400))
	if err != nil {
		t.Fatalf("first ExtendFrozen: %v", err)
	}
	d2, stats, err := ExtendFrozen(d1, deltaRows(400, 480))
	if err != nil {
		t.Fatalf("second ExtendFrozen: %v", err)
	}
	if stats.CopiedBlocks != 0 {
		t.Fatalf("delta-on-delta copied %d blocks; want in-place extension", stats.CopiedBlocks)
	}
	requireTableEqual(t, d2, fullFreeze(t, s, deltaRows(0, 480)))
	// Both intermediates stay valid snapshots.
	requireTableEqual(t, d1, fullFreeze(t, s, deltaRows(0, 400)))
	requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, 300)))
}

// Branched base: two deltas built from the same frozen table. Only one can
// claim the spare capacity; the other must copy — and both must match their
// own full freezes.
func TestExtendFrozenBranchedBase(t *testing.T) {
	s := deltaSchema()
	base := fullFreeze(t, s, deltaRows(0, 200))
	left, _, err := ExtendFrozen(base, deltaRows(200, 260))
	if err != nil {
		t.Fatalf("left ExtendFrozen: %v", err)
	}
	right, _, err := ExtendFrozen(base, deltaRows(500, 540))
	if err != nil {
		t.Fatalf("right ExtendFrozen: %v", err)
	}
	requireTableEqual(t, left, fullFreeze(t, s, deltaRows(0, 200), deltaRows(200, 260)))
	requireTableEqual(t, right, fullFreeze(t, s, deltaRows(0, 200), deltaRows(500, 540)))
	requireTableEqual(t, base, fullFreeze(t, s, deltaRows(0, 200)))
}

func TestExtendFrozenErrors(t *testing.T) {
	s := deltaSchema()
	unfrozen := NewTable(s)
	if _, _, err := ExtendFrozen(unfrozen, deltaRows(0, 1)); err == nil {
		t.Fatal("expected error extending an unfrozen table")
	}
	base := fullFreeze(t, s, deltaRows(0, 10))
	if _, _, err := ExtendFrozen(base, []Tuple{{int64(1), "x"}}); err == nil {
		t.Fatal("expected arity error")
	}
	db := NewDatabase("d")
	db.Add(base)
	if _, _, err := ExtendFrozenDatabase(db, map[string][]Tuple{"nosuch": deltaRows(0, 1)}); err == nil {
		t.Fatal("expected unknown-table error")
	}
}

// Tables without new rows are carried into the next epoch by pointer, and
// their blocks count as reused.
func TestExtendFrozenDatabaseSharesUnchangedTables(t *testing.T) {
	s1 := deltaSchema()
	s2 := NewSchema("Other", "Oid INT", "Label").Key("Oid")
	db := NewDatabase("d")
	t1 := NewTable(s1)
	if err := t1.AppendShared(deltaRows(0, 50)); err != nil {
		t.Fatal(err)
	}
	t2 := NewTable(s2)
	for i := 0; i < 30; i++ {
		t2.MustInsert(int64(i), fmt.Sprintf("label %d", i))
	}
	db.Add(t1)
	db.Add(t2)
	db.Freeze()
	next, stats, err := ExtendFrozenDatabase(db, map[string][]Tuple{"item": deltaRows(50, 80)})
	if err != nil {
		t.Fatalf("ExtendFrozenDatabase: %v", err)
	}
	if next.Table("Other") != t2 {
		t.Fatal("unchanged table was rebuilt instead of shared")
	}
	if next.Table("Item") == t1 {
		t.Fatal("changed table was not rebuilt")
	}
	if stats.SharedTables != 1 {
		t.Fatalf("SharedTables: got %d, want 1", stats.SharedTables)
	}
	if stats.ReusedBlocks == 0 {
		t.Fatal("expected reused blocks from the shared table")
	}
	if !next.Frozen() {
		t.Fatal("extended database is not frozen")
	}
	// No new rows at all: the same database value comes back table-for-table.
	same, _, err := ExtendFrozenDatabase(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tb := range same.Tables() {
		if tb != next.Tables()[i] {
			t.Fatalf("table %d not shared on empty commit", i)
		}
	}
}

// indexDB builds an unfrozen two-table database whose string tokens
// overlap across tables: "item" and "alpha<k>" occur in both Item and
// Other, so merged posting lists interleave them.
func indexDB(t *testing.T, n1, n2 int) *Database {
	t.Helper()
	db := NewDatabase("d")
	t1 := NewTable(deltaSchema())
	if err := t1.AppendShared(deltaRows(0, n1)); err != nil {
		t.Fatal(err)
	}
	t2 := NewTable(NewSchema("Other", "Oid INT", "Label").Key("Oid"))
	for i := 0; i < n2; i++ {
		t2.MustInsert(int64(i), fmt.Sprintf("item alpha%d other%d", i%13, i))
	}
	db.Add(t1)
	db.Add(t2)
	return db
}

// requireIndexEqual fails unless got and want hold the same postings in the
// same order.
func requireIndexEqual(t *testing.T, got, want *InvertedIndex) {
	t.Helper()
	if reflect.DeepEqual(got.postings, want.postings) {
		return
	}
	for tok, ps := range want.postings {
		if !reflect.DeepEqual(got.postings[tok], ps) {
			t.Fatalf("token %q: got %v, want %v", tok, got.postings[tok], ps)
		}
	}
	for tok := range got.postings {
		if _, ok := want.postings[tok]; !ok {
			t.Fatalf("token %q present in the patched index only", tok)
		}
	}
}

// The patched inverted index must equal a from-scratch BuildIndex — same
// postings in the same order — including tokens that span old and new rows
// of different tables.
func TestAppendRowsMatchesBuildIndex(t *testing.T) {
	prefixIdx := BuildIndex(indexDB(t, 120, 40))
	full := indexDB(t, 180, 70)
	patched, touched := prefixIdx.AppendRows(full, map[string]int{"item": 120, "other": 40})
	if touched == 0 {
		t.Fatal("expected touched posting lists")
	}
	want := BuildIndex(full)
	requireIndexEqual(t, patched, want)
	// Patching with nothing new returns the index itself.
	same, touched := want.AppendRows(full, map[string]int{"item": 180, "other": 70})
	if same != want || touched != 0 {
		t.Fatalf("no-op AppendRows: got (%p,%d), want (%p,0)", same, touched, want)
	}
}

// ExtendFrozenDatabase carries a built keyword index into the next epoch,
// patched with only the new rows, and leaves an unbuilt one unbuilt (so an
// epoch chain nobody matches against never pays for tokenizing).
func TestExtendFrozenDatabaseCarriesIndex(t *testing.T) {
	base, full := indexDB(t, 120, 40), indexDB(t, 180, 70)
	base.Freeze()
	add := map[string][]Tuple{
		"item":  full.Table("Item").Tuples[120:],
		"other": full.Table("Other").Tuples[40:],
	}
	unindexed, _, err := ExtendFrozenDatabase(base, add)
	if err != nil {
		t.Fatal(err)
	}
	if unindexed.idx != nil {
		t.Fatal("extending an unindexed base built an index")
	}
	baseIdx := base.Index()
	next, _, err := ExtendFrozenDatabase(base, add)
	if err != nil {
		t.Fatal(err)
	}
	carried := next.idx
	if carried == nil || next.Index() != carried {
		t.Fatal("the base's built index was not carried into the next epoch")
	}
	requireIndexEqual(t, carried, BuildIndex(full))
	requireIndexEqual(t, base.Index(), BuildIndex(indexDB(t, 120, 40)))
	if base.Index() != baseIdx {
		t.Fatal("extension replaced the base's cached index")
	}
	same, _, err := ExtendFrozenDatabase(next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same.Index() != carried {
		t.Fatal("an epoch with no new rows did not share its base's index")
	}
}

// Database.Index builds a frozen database's index once, under concurrent
// first calls, and caches it; an unfrozen database gets a fresh index per
// call, and registering a table drops the cached one.
func TestDatabaseIndexConcurrent(t *testing.T) {
	db := indexDB(t, 300, 90)
	if a, b := db.Index(), db.Index(); a == b {
		t.Fatal("an unfrozen database cached its index")
	}
	db.Freeze()
	got := make([]*InvertedIndex, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = db.Index()
		}()
	}
	wg.Wait()
	for i, idx := range got {
		if idx != got[0] {
			t.Fatalf("goroutine %d got index %p, goroutine 0 got %p", i, idx, got[0])
		}
	}
	requireIndexEqual(t, got[0], BuildIndex(db))
	if db.Index() != got[0] {
		t.Fatal("a later call rebuilt the cached index")
	}
	extra := NewTable(NewSchema("Extra", "Eid INT", "Note").Key("Eid"))
	extra.MustInsert(int64(1), "item zeta")
	extra.Freeze()
	db.Add(extra)
	if idx := db.Index(); idx == got[0] || len(idx.LookupToken("zeta")) != 1 {
		t.Fatal("Add kept serving the index cached before the new table")
	}
}

// Dictionary layering details: pointer identity is preserved for columns
// with no new distinct values, size-tiered merging keeps every chain at most
// log2(Len) layers deep, and the remap cache stays correct and capped across
// epochs.
func TestDictExtendLayering(t *testing.T) {
	s := NewSchema("L", "Id INT", "Cat").Key("Id")
	rows := []Tuple{}
	for i := 0; i < 40; i++ {
		rows = append(rows, Tuple{int64(i), fmt.Sprintf("cat%d", i%4)})
	}
	base := fullFreeze(t, s, rows)
	// New rows reuse only existing categories: the Cat dictionary must be
	// the same pointer in the extended table.
	add := []Tuple{{int64(40), "cat1"}, {int64(41), "cat2"}}
	got, stats, err := ExtendFrozen(base, add)
	if err != nil {
		t.Fatal(err)
	}
	if got.dicts[1] != base.dicts[1] {
		t.Fatal("unchanged dictionary lost pointer identity")
	}
	if got.dicts[0] == base.dicts[0] {
		t.Fatal("Id dictionary gained values but kept pointer identity")
	}
	if stats.NewDictEntries != 2 {
		t.Fatalf("NewDictEntries: got %d, want 2", stats.NewDictEntries)
	}
	// Walk a long chain of single-row extensions: depth must stay bounded
	// and lookups exact.
	cur := got
	n := cur.Len()
	for e := 0; e < 32; e++ {
		cur, _, err = ExtendFrozen(cur, []Tuple{{int64(1000 + e), fmt.Sprintf("cat%d", e%6)}})
		if err != nil {
			t.Fatal(err)
		}
		n++
		for j, d := range cur.dicts {
			if bound := bits.Len(uint(d.Len())); d.depth >= bound {
				t.Fatalf("extension %d: dict %d chain depth %d, want < log2(%d)+1 = %d", e, j, d.depth, d.Len(), bound)
			}
		}
	}
	if cur.Len() != n {
		t.Fatalf("rows: got %d, want %d", cur.Len(), n)
	}
	for id := int(NullID) + 1; id < cur.dicts[0].Len(); id++ {
		v := cur.dicts[0].Value(uint32(id))
		if got, ok := cur.dicts[0].ID(v); !ok || got != uint32(id) {
			t.Fatalf("layered dict round-trip failed for id %d (%v)", id, v)
		}
	}
	// Remap across the layered dictionaries agrees with element-wise ID.
	remap := cur.dicts[1].Remap(cur.dicts[0])
	if len(remap) != cur.dicts[1].Len() {
		t.Fatalf("remap length %d, want %d", len(remap), cur.dicts[1].Len())
	}
	for id, tid := range remap {
		wid, ok := cur.dicts[0].ID(cur.dicts[1].Value(uint32(id)))
		if !ok {
			wid = NoID
		}
		if tid != wid {
			t.Fatalf("remap[%d] = %d, want %d", id, tid, wid)
		}
	}
	if cached := cur.dicts[1].RemapCached(cur.dicts[0]); !reflect.DeepEqual(cached, remap) {
		t.Fatal("RemapCached disagrees with Remap")
	}
}

// TestDictExtendTieredMerge pins size-tiered merging over 64 single-value
// extensions of a 10,000-value base: no extension copies the base (its
// layer stays the bottom of every chain, by pointer), and every lookup in
// both directions agrees with a full freeze of the same rows.
func TestDictExtendTieredMerge(t *testing.T) {
	s := NewSchema("M", "Id INT").Key("Id")
	rows := make([]Tuple, 10000)
	for i := range rows {
		rows[i] = Tuple{int64(i)}
	}
	cur := fullFreeze(t, s, rows)
	base := cur.dicts[0]
	for e := 0; e < 64; e++ {
		rows = append(rows, Tuple{int64(len(rows))})
		var err error
		if cur, _, err = ExtendFrozen(cur, rows[len(rows)-1:]); err != nil {
			t.Fatal(err)
		}
		bottom := cur.dicts[0]
		for bottom.base != nil {
			bottom = bottom.base
		}
		if bottom != base {
			t.Fatalf("extension %d rewrote the 10,000-value base", e)
		}
	}
	want := fullFreeze(t, s, rows).dicts[0]
	got := cur.dicts[0]
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	for id := 1; id < want.Len(); id++ {
		v := want.Value(uint32(id))
		if gv := got.Value(uint32(id)); gv != v {
			t.Fatalf("Value(%d) = %v, want %v", id, gv, v)
		}
		if gid, ok := got.ID(v); !ok || gid != uint32(id) {
			t.Fatalf("ID(%v) = %d,%v, want %d", v, gid, ok, id)
		}
	}
	if _, ok := got.ID(int64(-1)); ok {
		t.Fatal("ID of an absent value reported ok")
	}
}

// The remap cache stops growing at its cap but stays correct past it.
func TestRemapCacheCap(t *testing.T) {
	d := newDict()
	for i := 0; i < 10; i++ {
		d.encode(int64(i))
	}
	targets := make([]*Dict, remapCacheMax+10)
	for i := range targets {
		to := newDict()
		to.encode(int64(i % 10))
		targets[i] = to
		got := d.RemapCached(to)
		want := d.Remap(to)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("RemapCached target %d: got %v, want %v", i, got, want)
		}
	}
	if n := d.remapN.Load(); n > remapCacheMax {
		t.Fatalf("remap cache grew to %d, cap is %d", n, remapCacheMax)
	}
}

func TestExtendFrozenStatsBlocks(t *testing.T) {
	s := NewSchema("B", "Id INT", "Label").Key("Id")
	rows := make([]Tuple, 4*BlockSize)
	for i := range rows {
		rows[i] = Tuple{int64(i), fmt.Sprintf("label %d", i)}
	}
	base := fullFreeze(t, s, rows)
	add := []Tuple{{int64(len(rows)), "label tail"}}
	// First delta from a full freeze copies the columns (the freeze's
	// backing has no spare capacity) ...
	d1, st1, err := ExtendFrozen(base, add)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CopiedBlocks == 0 {
		t.Fatal("first delta should copy the full-freeze columns")
	}
	// ... and the second extends the copies in place, reusing every block.
	d2, st2, err := ExtendFrozen(d1, []Tuple{{int64(len(rows) + 1), "label tail2"}})
	if err != nil {
		t.Fatal(err)
	}
	if st2.CopiedBlocks != 0 || st2.ReusedBlocks == 0 {
		t.Fatalf("second delta: copied %d, reused %d; want 0 copied", st2.CopiedBlocks, st2.ReusedBlocks)
	}
	_ = d2
	if st1.TouchedPostings == 0 || st2.TouchedPostings == 0 {
		t.Fatal("expected touched posting lists")
	}
}

// Plain AppendShared edge cases (the bulk-append the full-refreeze baseline
// and the delta tests' reference path rely on).
func TestAppendSharedEdgeCases(t *testing.T) {
	s := deltaSchema()
	// Empty source table, empty batches, then real rows.
	tb := NewTable(s)
	if err := tb.AppendShared(); err != nil {
		t.Fatalf("empty AppendShared: %v", err)
	}
	if err := tb.AppendShared(nil, []Tuple{}); err != nil {
		t.Fatalf("nil-batch AppendShared: %v", err)
	}
	if tb.Len() != 0 {
		t.Fatalf("rows after empty appends: %d", tb.Len())
	}
	if err := tb.AppendShared(deltaRows(0, 5), nil, deltaRows(5, 8)); err != nil {
		t.Fatalf("AppendShared: %v", err)
	}
	if tb.Len() != 8 {
		t.Fatalf("rows: got %d, want 8", tb.Len())
	}
	for i := 0; i < 8; i++ {
		if Format(tb.Tuples[i][0]) != fmt.Sprint(i) {
			t.Fatalf("row %d out of order: %v", i, tb.Tuples[i])
		}
	}
	// Arity errors reject the whole batch atomically.
	if err := tb.AppendShared(deltaRows(8, 9), []Tuple{{int64(9)}}); err == nil {
		t.Fatal("expected arity error")
	}
	if tb.Len() != 8 {
		t.Fatalf("failed append mutated the table: %d rows", tb.Len())
	}
	// Frozen tables reject the append.
	tb.Freeze()
	if err := tb.AppendShared(deltaRows(8, 9)); err == nil ||
		!strings.Contains(err.Error(), "frozen") {
		t.Fatalf("frozen AppendShared: got %v, want frozen error", err)
	}
}
