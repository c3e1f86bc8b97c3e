package sqldb

import (
	"bytes"
	"math"
	"testing"

	"kwagg/internal/relation"
)

// wantKey is the canonical key encoding built the slow way: materialize the
// Format string, then append its length and bytes; NULL is the lone length
// 0xFFFFFFFF. The key builders of columns without a dictionary must stay
// byte-identical to it — hash buckets and join groups are keyed on these
// bytes, so any divergence silently changes results.
func wantKey(buf []byte, v relation.Value) []byte {
	if v == nil {
		return appendLE32(buf, math.MaxUint32)
	}
	s := relation.Format(v)
	buf = appendLE32(buf, uint32(len(s)))
	return append(buf, s...)
}

// TestAppendFormattedKeyBytes pins appendHashKey's key for unencoded
// columns: NULL gets a key of its own, apart from the string "NULL", and
// -0 renders as 0.
func TestAppendFormattedKeyBytes(t *testing.T) {
	row := relation.Tuple{
		nil, relation.Str("NULL"),
		relation.Int(0), relation.Int(-99), relation.Int(123456789),
		relation.Float(2.5), relation.Float(-0.125), relation.Float(math.Copysign(0, -1)),
		relation.Str(""), relation.Str("Green"), relation.Str("a|b|c"),
	}
	rs := &rowset{cols: make([]boundCol, len(row)), rows: []relation.Tuple{row}}
	idx := make([]int, len(row))
	var want []byte
	for i, v := range row {
		idx[i] = i
		want = wantKey(want, v)
	}
	if got := rs.appendHashKey(nil, 0, idx); !bytes.Equal(got, want) {
		t.Fatalf("appendHashKey diverges from the canonical key encoding:\n got %q\nwant %q", got, want)
	}
	if bytes.Equal(wantKey(nil, nil), wantKey(nil, relation.Str("NULL"))) {
		t.Fatal("NULL and the string \"NULL\" share a key")
	}
}

// TestAppendJoinKeyBytes pins the full join-key builder, NULL short-circuit
// included, against the canonical per-value encoding.
func TestAppendJoinKeyBytes(t *testing.T) {
	row := relation.Tuple{relation.Int(7), relation.Str("Green"), relation.Float(1.5)}
	got, ok := appendJoinKey(nil, row, []int{0, 1, 2})
	if !ok {
		t.Fatal("appendJoinKey reported NULL on a NULL-free row")
	}
	var want []byte
	for _, v := range row {
		want = wantKey(want, v)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendJoinKey = %q, want %q", got, want)
	}
	if _, ok := appendJoinKey(nil, relation.Tuple{relation.Int(7), nil}, []int{0, 1}); ok {
		t.Fatal("appendJoinKey must report false for a NULL key value")
	}
}

// TestAppendFormattedNoAlloc verifies the key builder allocates nothing per
// row: keying an unencoded integer column into a buffer with capacity.
func TestAppendFormattedNoAlloc(t *testing.T) {
	buf := make([]byte, 0, 64)
	rs := &rowset{cols: make([]boundCol, 1), rows: []relation.Tuple{{relation.Int(123456)}}}
	idx := []int{0}
	if n := testing.AllocsPerRun(100, func() {
		buf = rs.appendHashKey(buf[:0], 0, idx)
	}); n != 0 {
		t.Errorf("appendHashKey(int) allocates %.1f times per run", n)
	}
}
