package relation

import (
	"fmt"
	"math"
	"testing"
)

func TestDictEncodeSharesIDByFormat(t *testing.T) {
	d := newDict()
	a := d.encode(int64(5))
	b := d.encode("5")
	if a != b {
		t.Fatalf("int64(5) and \"5\" format equally but got ids %d and %d", a, b)
	}
	z := d.encode(0.0)
	if nz := d.encode(math.Copysign(0, -1)); nz != z {
		t.Fatalf("0 and -0 got ids %d and %d", z, nz)
	}
	n := d.encode(nil)
	s := d.encode("NULL")
	if n != NullID || s == NullID {
		t.Fatalf("nil got id %d and \"NULL\" id %d; want NullID (%d) only for nil", n, s, NullID)
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (NullID, 5, 0, \"NULL\")", d.Len())
	}
	// Decoding returns the first value encoded with the ID.
	if v := d.Value(a); v != int64(5) {
		t.Fatalf("Value(%d) = %#v, want int64(5)", a, v)
	}
	if v := d.Value(n); v != nil {
		t.Fatalf("Value(%d) = %#v, want nil", n, v)
	}
}

// TestDictIdentityIsCompare pins the dictionary as the single definition of
// "same value": within one column, two values share an ID exactly when both
// are NULL, or neither is and Compare returns 0. NULL never matches through
// ID or Remap, and incremental growth assigns a from-scratch build's IDs.
func TestDictIdentityIsCompare(t *testing.T) {
	columns := []struct {
		decl string
		vals []Value
	}{
		{"V INT", []Value{int64(1 << 53), int64(1<<53 + 1), int64(0), int64(-1), int64(math.MaxInt64), int64(math.MinInt64), int64(1<<53 - 1)}},
		{"V FLOAT", []Value{0.0, math.Copysign(0, -1), 1.5, -1.5, 0.1 + 0.2, 0.3, 1e21, 1e-300, math.MaxFloat64, 9007199254740993.0}},
		{"V", []Value{"NULL", "null", "", "a", "a\x1fb", "0", "-0"}},
		// int64 and float64 mixed, magnitudes at most 2^53, non-integral
		// floats included: one ID exactly when Compare says equal.
		{"V FLOAT", []Value{int64(5), 5.0, 5.5, int64(-2), -2.0, -2.5, int64(1 << 53), float64(1 << 53), int64(1<<53 - 1), float64(1<<53 - 1), 0.5, int64(0), math.Copysign(0, -1)}},
	}
	for _, c := range columns {
		// Each value twice, then NULLs: the base half below holds no NULL,
		// so the extension interns the column's first one.
		var rows []Tuple
		for k := 0; k < 2; k++ {
			for i, v := range c.vals {
				rows = append(rows, Tuple{int64(k*len(c.vals) + i), v})
			}
		}
		rows = append(rows, Tuple{int64(len(rows)), nil}, Tuple{int64(len(rows) + 1), nil})
		s := NewSchema("T", "Id INT", c.decl).Key("Id")
		full := fullFreeze(t, s, rows)
		d, col := full.dicts[1], full.Col(1).IDs
		for i, ri := range rows {
			for k, rk := range rows {
				a, b := ri[1], rk[1]
				want := (a == nil && b == nil) || (a != nil && b != nil && Compare(a, b) == 0)
				if got := col[i] == col[k]; got != want {
					t.Errorf("%s: %#v and %#v share an ID = %v, want %v", c.decl, a, b, got, want)
				}
			}
		}
		if id, ok := d.ID(nil); ok {
			t.Errorf("%s: ID(nil) = %d, want a miss", c.decl, id)
		}
		for _, to := range []*Dict{d, full.dicts[0]} {
			if m := d.Remap(to); m[NullID] != NoID {
				t.Errorf("%s: Remap sends NullID to %d, want NoID", c.decl, m[NullID])
			}
		}
		base := fullFreeze(t, s, rows[:len(c.vals)+1])
		grown, _, err := ExtendFrozen(base, rows[len(c.vals)+1:])
		if err != nil {
			t.Fatal(err)
		}
		requireTableEqual(t, grown, full)
	}
}

func TestDictIDLookup(t *testing.T) {
	d := newDict()
	d.encode("alice")
	d.encode(int64(42))
	d.encode(3.5)

	if id, ok := d.ID("alice"); !ok || d.Value(id) != "alice" {
		t.Fatalf("ID(alice) = %d,%v", id, ok)
	}
	if id, ok := d.ID(int64(42)); !ok || d.Value(id) != int64(42) {
		t.Fatalf("ID(42) = %d,%v", id, ok)
	}
	if id, ok := d.ID("42"); !ok || d.Value(id) != int64(42) {
		t.Fatalf("ID(\"42\") should alias int64(42), got %d,%v", id, ok)
	}
	if id, ok := d.ID(3.5); !ok || d.Value(id) != 3.5 {
		t.Fatalf("ID(3.5) = %d,%v", id, ok)
	}
	if _, ok := d.ID("absent"); ok {
		t.Fatal("ID(absent) reported ok")
	}
}

func TestDictAllStrings(t *testing.T) {
	d := newDict()
	d.encode("a")
	d.encode("b")
	if !d.AllStrings() {
		t.Fatal("string-only dict should report AllStrings")
	}
	d.encode(nil)
	if !d.AllStrings() {
		t.Fatal("a NULL must not clear AllStrings: NULL rows hold NullID")
	}
	d.encode(int64(1))
	if d.AllStrings() {
		t.Fatal("dict with an int must not report AllStrings")
	}
}

// TestDictContainsFold: the per-entry CONTAINS bitset sets exactly the IDs
// whose rendering contains the needle, never NullID (even for a needle the
// NULL rendering would contain), and answers by rendering on a mixed
// column, where one ID stands for both int64(5) and "5".
func TestDictContainsFold(t *testing.T) {
	d := newDict()
	rose := d.encode("Primrose")
	d.encode("tulip")
	d.encode(nil)
	five := d.encode(int64(5))
	if d.encode("5") != five {
		t.Fatal(`"5" should share int64(5)'s ID`)
	}
	x := d.Extend()
	wild := x.encode("wild ROSE")
	check := func(dd *Dict, needle string, want ...uint32) {
		t.Helper()
		bits := dd.ContainsFold(needle)
		if len(bits) != (dd.Len()+63)/64 {
			t.Fatalf("%q: %d words for %d IDs", needle, len(bits), dd.Len())
		}
		var got []uint32
		for id := 0; id < dd.Len(); id++ {
			if bits[id>>6]&(1<<(uint(id)&63)) != 0 {
				got = append(got, uint32(id))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("ContainsFold(%q) = IDs %v, want %v", needle, got, want)
		}
	}
	check(d, "rose", rose)
	check(x, "rose", rose, wild)
	check(x, "", 1, 2, 3, 4) // every ID but NullID
	check(x, "null")
	check(x, "5", five)
}

func TestDictRemap(t *testing.T) {
	from := newDict()
	a := from.encode("a")
	b := from.encode("b")
	only := from.encode("only-here")

	to := newDict()
	to.encode("b")
	to.encode("a")
	to.encode(nil)

	m := from.Remap(to)
	if m[NullID] != NoID {
		t.Fatalf("remap(NullID) = %d, want NoID", m[NullID])
	}
	if got, _ := to.ID("a"); m[a] != got {
		t.Fatalf("remap(a) = %d, want %d", m[a], got)
	}
	if got, _ := to.ID("b"); m[b] != got {
		t.Fatalf("remap(b) = %d, want %d", m[b], got)
	}
	if m[only] != NoID {
		t.Fatalf("remap(only-here) = %d, want NoID", m[only])
	}
}

func TestFreezeBuildsEncoding(t *testing.T) {
	s := NewSchema("T", "id:int", "name:string")
	tb := NewTable(s)
	tb.MustInsert(int64(1), "alice")
	tb.MustInsert(int64(2), "bob")
	tb.MustInsert(int64(3), "alice")

	if _, _, ok := tb.Encoding(); ok {
		t.Fatal("Encoding must report !ok before Freeze")
	}
	tb.Freeze()
	tb.Freeze() // idempotent
	dicts, enc, ok := tb.Encoding()
	if !ok {
		t.Fatal("Encoding !ok after Freeze")
	}
	if len(dicts) != 2 || len(enc) != 6 {
		t.Fatalf("got %d dicts, %d cells", len(dicts), len(enc))
	}
	if enc[0*2+1] != enc[2*2+1] {
		t.Fatal("rows 0 and 2 share name 'alice' but got different ids")
	}
	if enc[0*2+1] == enc[1*2+1] {
		t.Fatal("'alice' and 'bob' share an id")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			got := dicts[j].Value(enc[i*2+j])
			want := tb.Tuples[i][j]
			if got != want {
				t.Fatalf("decode(row %d, col %d) = %#v, want %#v", i, j, got, want)
			}
		}
	}
}

func TestFrozenLookupMatchesUnfrozen(t *testing.T) {
	build := func() *Table {
		s := NewSchema("T", "id:int", "name:string", "score:float")
		tb := NewTable(s)
		tb.MustInsert(int64(1), "alice", 3.5)
		tb.MustInsert(int64(2), "NULL", 2.0)
		tb.MustInsert(int64(3), nil, 2.0)
		tb.MustInsert(int64(4), "alice", nil)
		return tb
	}
	mut, fro := build(), build()
	fro.Freeze()

	probes := []struct {
		attr string
		v    Value
	}{
		{"name", "alice"}, {"name", "NULL"}, {"name", nil}, {"name", "bob"},
		{"id", int64(2)}, {"id", "2"}, {"id", int64(99)},
		{"score", 2.0}, {"score", "2"}, {"score", nil},
		{"nosuchattr", "x"},
	}
	for _, p := range probes {
		a := mut.Lookup(p.attr, p.v)
		b := fro.Lookup(p.attr, p.v)
		if len(a) != len(b) {
			t.Fatalf("Lookup(%s, %#v): unfrozen %v vs frozen %v", p.attr, p.v, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Lookup(%s, %#v): unfrozen %v vs frozen %v", p.attr, p.v, a, b)
			}
		}
	}
}
