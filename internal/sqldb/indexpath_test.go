package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// pathRow draws one row for the access-path differential: an int key from
// keys (NULL one time in ten, the hot key 7 one time in four, so its
// postings exceed n/8), a string from a small vocabulary with NULLs and a
// long tail, and a float with NULL, 0 and -0.
func pathRow(r *rand.Rand, id int, keys [2]int) relation.Tuple {
	var k relation.Value
	switch x := r.Intn(20); {
	case x < 2:
	case x < 7:
		k = int64(7)
	default:
		k = int64(keys[0] + r.Intn(keys[1]-keys[0]))
	}
	words := []relation.Value{nil, "alpha", "beta", "gamma delta", "Green", "green tea", "NULL"}
	var s relation.Value = fmt.Sprintf("tail %d", r.Intn(400))
	if r.Intn(3) > 0 {
		s = words[r.Intn(len(words))]
	}
	floats := []relation.Value{nil, 0.0, math.Copysign(0, -1), 1.5, 2.0, 7.0, 7.5}
	return relation.Tuple{int64(id), k, s, floats[r.Intn(len(floats))]}
}

// pathDB builds L and R with nl and nr rows of pathRow. Besides the hot key
// 7, L's keys lie in [0, 40) and R's in [20, 60), so each side holds keys
// the other lacks.
func pathDB(r *rand.Rand, nl, nr int) *relation.Database {
	db := relation.NewDatabase("paths")
	l := db.AddSchema(relation.NewSchema("L", "id INT", "k INT", "s", "f FLOAT").Key("id"))
	rt := db.AddSchema(relation.NewSchema("R", "id INT", "k INT", "s", "f FLOAT").Key("id"))
	for i := 0; i < nl; i++ {
		if err := l.Insert(pathRow(r, i, [2]int{0, 40})); err != nil {
			panic(err)
		}
	}
	for i := 0; i < nr; i++ {
		if err := rt.Insert(pathRow(r, i, [2]int{20, 60})); err != nil {
			panic(err)
		}
	}
	db.Freeze()
	return db
}

// extendPathDB appends rows to both tables of a pathDB through
// ExtendFrozenDatabase, with keys up to 70 that neither epoch-0 side held.
func extendPathDB(t *testing.T, r *rand.Rand, db *relation.Database, nl, nr int) *relation.Database {
	t.Helper()
	add := map[string][]relation.Tuple{}
	for i := 0; i < nl; i++ {
		add["l"] = append(add["l"], pathRow(r, db.Table("L").Len()+i, [2]int{30, 70}))
	}
	for i := 0; i < nr; i++ {
		add["r"] = append(add["r"], pathRow(r, db.Table("R").Len()+i, [2]int{30, 70}))
	}
	next, _, err := relation.ExtendFrozenDatabase(db, add)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

// sameRowset reports where a and b differ in columns, dictionaries, row
// count or IDs, or "" when they are byte-identical.
func sameRowset(a, b *rowset) string {
	switch {
	case !slices.Equal(a.cols, b.cols):
		return fmt.Sprintf("columns %v vs %v", a.cols, b.cols)
	case !slices.Equal(a.dicts, b.dicts):
		return "dictionaries differ"
	case a.n != b.n:
		return fmt.Sprintf("%d rows vs %d", a.n, b.n)
	case !slices.Equal(a.enc[:a.n*len(a.cols)], b.enc[:b.n*len(b.cols)]):
		return "row IDs differ"
	}
	return ""
}

// TestIndexPathDifferential runs every join and per-entry filter the value
// index can answer twice, on a pristine scan and on the same rows with base
// cleared (unindexed), and requires byte-identical rowsets: equality
// (string, int and float constants, present and absent), range comparisons,
// CONTAINS and semi-join key sets on the filter side, and single-key joins
// on int and string columns — pristine, filtered and unindexed probe sides
// — on the join side. Data has duplicate keys, NULL keys and keys absent on
// either side; it runs on frozen tables and on tables extended by
// ExtendFrozenDatabase, sequentially and shard-parallel. A pristine filter
// must take the postings exactly when they total at most n/8 rows, and both
// sides of that bound must occur.
func TestIndexPathDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	negZero := math.Copysign(0, -1)
	consts := []struct {
		col  string
		vals []relation.Value
	}{
		{"k", []relation.Value{int64(7), int64(3), int64(25), int64(45), int64(999), 7.0, 3.5}},
		{"s", []relation.Value{"alpha", "Green", "green tea", "NULL", "tail 17", "zzz", int64(3)}},
		{"f", []relation.Value{1.5, 0.0, negZero, int64(2), 7.5, 9.25}},
	}
	var preds []sqlast.Pred
	for _, cs := range consts {
		c := sqlast.Col{Table: "L", Column: cs.col}
		for _, v := range cs.vals {
			for _, op := range []sqlast.CmpOp{sqlast.OpEq, sqlast.OpNe, sqlast.OpLt, sqlast.OpGe} {
				preds = append(preds, sqlast.ComparePred{Col: c, Op: op, Value: v})
			}
		}
	}
	for _, needle := range []string{"a", "green", "gamma", "tail 1", "tail 23", "zz"} {
		preds = append(preds, sqlast.ContainsPred{Col: sqlast.Col{Table: "L", Column: "s"}, Needle: needle})
	}
	joins := [][]sqlast.JoinPred{
		{{Left: sqlast.Col{Table: "L", Column: "k"}, Right: sqlast.Col{Table: "R", Column: "k"}}},
		{{Left: sqlast.Col{Table: "L", Column: "s"}, Right: sqlast.Col{Table: "R", Column: "s"}}},
		{{Left: sqlast.Col{Table: "L", Column: "id"}, Right: sqlast.Col{Table: "R", Column: "k"}}},
		{{Left: sqlast.Col{Table: "L", Column: "f"}, Right: sqlast.Col{Table: "R", Column: "f"}}},
	}
	narrow := sqlast.ContainsPred{Col: sqlast.Col{Table: "L", Column: "s"}, Needle: "a"}

	var indexed, swept int
	check := func(mode string, e *executor) {
		t.Helper()
		scan := func(name string) *rowset {
			rs, err := pristineScan(e, name)
			if err != nil {
				t.Fatal(err)
			}
			return rs
		}
		l, rt := scan("L"), scan("R")
		for _, p := range preds {
			got, idx, err := e.filterRows(l, p)
			if err != nil {
				t.Fatal(err)
			}
			want, uidx, err := e.filterRows(unindexed(l), p)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameRowset(got, want); d != "" {
				t.Fatalf("%s: filter %s: pristine and unindexed differ: %s", mode, p, d)
			}
			if uidx || idx != (got.n <= l.n/8) {
				t.Fatalf("%s: filter %s keeps %d of %d rows: indexed %v, unindexed %v", mode, p, got.n, l.n, idx, uidx)
			}
			if idx {
				indexed++
			} else {
				swept++
			}
		}
		// Semi-join key sets over L.k: one key, a few, and about half.
		d := l.dicts[1]
		for _, size := range []int{1, 3, 8, d.Len() / 2} {
			keys := make([]uint64, (d.Len()+63)/64)
			for _, id := range r.Perm(d.Len())[:min(size, d.Len())] {
				if id != int(relation.NullID) {
					keys[id>>6] |= 1 << (uint(id) & 63)
				}
			}
			got, idx, err := e.semiFilter(l, 1, keys)
			if err != nil {
				t.Fatal(err)
			}
			want, uidx, err := e.semiFilter(unindexed(l), 1, keys)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameRowset(got, want); diff != "" {
				t.Fatalf("%s: semi-join of %d keys: pristine and unindexed differ: %s", mode, size, diff)
			}
			if uidx || idx != (got.n <= l.n/8) {
				t.Fatalf("%s: semi-join of %d keys keeps %d of %d rows: indexed %v, unindexed %v", mode, size, got.n, l.n, idx, uidx)
			}
		}
		filtered, _, err := e.filterRows(l, narrow)
		if err != nil {
			t.Fatal(err)
		}
		for _, eqs := range joins {
			for _, left := range []*rowset{l, filtered, unindexed(l)} {
				got, idx, err := e.join(left, rt, eqs)
				if err != nil {
					t.Fatal(err)
				}
				want, cidx, err := e.join(left, unindexed(rt), eqs)
				if err != nil {
					t.Fatal(err)
				}
				if !idx || cidx {
					t.Fatalf("%s: join on %v: value index used %v on the pristine side, %v on the unindexed", mode, eqs, idx, cidx)
				}
				if diff := sameRowset(got, want); diff != "" {
					t.Fatalf("%s: join on %v (%d probe rows): value index and chains differ: %s", mode, eqs, left.n, diff)
				}
			}
		}
	}
	for _, size := range [][2]int{{0, 0}, {1, 3}, {37, 50}, {900, 300}, {2600, 4100}} {
		db := pathDB(r, size[0], size[1])
		next := extendPathDB(t, r, db, 1+size[0]/3, 700)
		for _, in := range []struct {
			label string
			db    *relation.Database
		}{{"frozen", db}, {"extended", next}} {
			for _, e := range []*executor{{db: in.db}, {db: in.db, par: 4, shardRows: relation.BlockSize}} {
				check(fmt.Sprintf("%s %v par %d", in.label, size, e.par), e)
			}
		}
	}
	t.Logf("pristine filters: %d from postings, %d swept", indexed, swept)
	if indexed == 0 || swept == 0 {
		t.Fatalf("the n/8 bound was not crossed: %d filters from postings, %d swept", indexed, swept)
	}
}

// naiveDistinct is the DISTINCT kernel's reference: the selected IDs of the
// first row of every distinct tuple, by a linear scan over the rows kept so
// far.
func naiveDistinct(rs *rowset, cols []int) (ids []uint32, n int) {
	var kept [][]uint32
	for ri := 0; ri < rs.n; ri++ {
		t := make([]uint32, len(cols))
		for k, c := range cols {
			t[k] = rs.row(ri)[c]
		}
		if !slices.ContainsFunc(kept, func(k []uint32) bool { return slices.Equal(k, t) }) {
			kept = append(kept, t)
			ids = append(ids, t...)
		}
	}
	return ids, len(kept)
}

// TestDistinctKernel checks distinctRows against naiveDistinct over random
// rowsets of one to four columns, each a per-result dictionary as aggregate
// outputs get (relation.EncodeColumn) holding NULLs, a few values (so many
// tuples collide in the table) or many, and over a frozen table's scan with
// its column dictionaries. The selected columns are a random subset in
// random order, possibly repeating a column.
func TestDistinctKernel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	e := &executor{}
	check := func(rs *rowset, cols []int) {
		t.Helper()
		out := &rowset{}
		if err := e.distinctRows(rs, cols, out); err != nil {
			t.Fatal(err)
		}
		want, n := naiveDistinct(rs, cols)
		if out.n != n || !slices.Equal(out.enc[:out.n*len(cols)], want) {
			t.Fatalf("DISTINCT over columns %v of %d rows: kept %d rows %v, want %d rows %v", cols, rs.n, out.n, out.enc, n, want)
		}
	}
	pick := func(width int) []int {
		cols := make([]int, 1+r.Intn(width))
		for k := range cols {
			cols[k] = r.Intn(width)
		}
		return cols
	}
	for trial := 0; trial < 300; trial++ {
		width, n := 1+r.Intn(4), r.Intn(600)
		rs := &rowset{cols: make([]boundCol, width), dicts: make([]*relation.Dict, width), enc: make([]uint32, n*width), n: n}
		for c := 0; c < width; c++ {
			card := []int{1, 2, 3, 50, 1000}[r.Intn(5)]
			vals := make([]relation.Value, n)
			for i := range vals {
				if r.Intn(8) > 0 {
					vals[i] = int64(r.Intn(card))
					if card == 3 {
						vals[i] = []relation.Value{"x", 1.5, int64(1)}[r.Intn(3)]
					}
				}
			}
			d, ids := relation.EncodeColumn(vals)
			rs.dicts[c] = d
			for i, id := range ids {
				rs.enc[i*width+c] = id
			}
		}
		check(rs, pick(width))
	}
	e.db = pathDB(r, 3000, 0)
	l, err := pristineScan(e, "L")
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		check(l, pick(len(l.cols)))
	}
}

// indexJoinDB builds Paper, 64 papers of which 4 have "graph" in the title,
// and Write, 4096·scale rows: the first 256 give every paper four writers
// and the rest reference papers without "graph", so a join of the matching
// papers with Write has the same 16 rows at every scale.
func indexJoinDB(scale int) *relation.Database {
	db := relation.NewDatabase("indexjoin")
	paper := db.AddSchema(relation.NewSchema("Paper", "paperid INT", "ptitle").Key("paperid"))
	for p := 0; p < 64; p++ {
		title := fmt.Sprintf("paper %d", p)
		if p%16 == 3 {
			title = fmt.Sprintf("graph mining %d", p)
		}
		paper.MustInsert(int64(p), title)
	}
	write := db.AddSchema(relation.NewSchema("Write", "authorid INT", "paperid INT").Key("authorid"))
	for w := 0; w < 4096*scale; w++ {
		p := w % 64
		if w >= 256 && p%16 == 3 {
			p++
		}
		write.MustInsert(int64(w), int64(p))
	}
	db.Freeze()
	return db
}

// TestIndexJoinAllocsFlat pins that a join building on a pristine table
// reads its value index instead of threading chains over its rows: the
// bytes a statement allocates (a TotalAlloc delta after warm-up) stay flat
// as Write grows 8x under the same 16-row answer. Chains cost 8 bytes per
// Write row.
func TestIndexJoinAllocsFlat(t *testing.T) {
	q, err := Parse("SELECT P.ptitle, W.authorid FROM Paper P, Write W " +
		"WHERE P.paperid = W.paperid AND P.ptitle CONTAINS 'graph'")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 20
	var bytes [2]uint64
	var answers [2]string
	for k, scale := range []int{1, 8} {
		db := indexJoinDB(scale)
		res, err := execQuery(db, q) // also warms the cached remap table
		if err != nil {
			t.Fatal(err)
		}
		answers[k] = strings.Join(rowsAsStrings(res), ";")
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := execQuery(db, q); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		bytes[k] = (after.TotalAlloc - before.TotalAlloc) / runs
	}
	if answers[0] != answers[1] || strings.Count(answers[0], ";") != 15 {
		t.Fatalf("the answer must have 16 rows and be the same at both scales:\n1x: %s\n8x: %s", answers[0], answers[1])
	}
	t.Logf("bytes/statement: %d at 1x, %d at 8x", bytes[0], bytes[1])
	if bytes[1] > bytes[0]+bytes[0]/4+4096 {
		t.Errorf("allocated bytes grew with the Write rows: %d at 1x, %d at 8x", bytes[0], bytes[1])
	}
}
