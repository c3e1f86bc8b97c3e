package relation

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// TestAppendFormat pins AppendFormat to Format: for every value class the
// appended bytes must equal append(dst, Format(v)...), including onto a
// non-empty prefix. The sqldb key builders depend on this equivalence.
func TestAppendFormat(t *testing.T) {
	values := []Value{
		nil,
		Int(0), Int(42), Int(-7), Int(1<<62 + 3),
		Float(0), Float(math.Copysign(0, -1)), Float(3.14), Float(-0.5), Float(1e21),
		Str(""), Str("Green"), Str("2024-01-31"),
		true, // falls through to the %v default, like Format
	}
	for _, v := range values {
		want := append([]byte("prefix|"), Format(v)...)
		got := AppendFormat([]byte("prefix|"), v)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendFormat(%#v) = %q, want %q", v, got, want)
		}
	}
}

// TestAppendFormatNoAlloc verifies the point of the helper: appending into a
// buffer with capacity does not allocate for the common value classes.
func TestAppendFormatNoAlloc(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, v := range []Value{nil, Int(123456), Str("Green"), Float(2.5)} {
		v := v
		if n := testing.AllocsPerRun(100, func() {
			buf = AppendFormat(buf[:0], v)
		}); n != 0 {
			t.Errorf("AppendFormat(%#v) allocates %.1f times per run", v, n)
		}
	}
}

// TestAppendKey pins the canonical key: a 4-byte little-endian length and
// the Format rendering, NULL as the lone length 0xFFFFFFFF. So NULL and the
// string "NULL" differ, 0 and -0 agree, and concatenated keys cannot alias
// across a would-be separator.
func TestAppendKey(t *testing.T) {
	key := func(vs ...Value) string {
		var b []byte
		for _, v := range vs {
			b = AppendKey(b, v)
		}
		return string(b)
	}
	for _, v := range []Value{Int(-7), Float(2.5), Str(""), Str("a\x1fb")} {
		want := binary.LittleEndian.AppendUint32([]byte("p"), uint32(len(Format(v))))
		want = append(want, Format(v)...)
		if got := AppendKey([]byte("p"), v); !bytes.Equal(got, want) {
			t.Errorf("AppendKey(%#v) = %q, want %q", v, got, want)
		}
	}
	if got := key(nil); got != "\xff\xff\xff\xff" {
		t.Errorf("AppendKey(nil) = %q", got)
	}
	if key(nil) == key(Str("NULL")) {
		t.Error("NULL and \"NULL\" share a key")
	}
	if key(Float(0)) != key(Float(math.Copysign(0, -1))) || key(Float(0)) != key(Int(0)) {
		t.Error("0, -0 and int 0 must share a key")
	}
	if key(Str("a\x1fb"), Str("c")) == key(Str("a"), Str("b\x1fc")) {
		t.Error("composite keys alias across the separator")
	}
	buf := make([]byte, 0, 64)
	for _, v := range []Value{nil, Int(123456), Str("Green"), Float(2.5)} {
		v := v
		if n := testing.AllocsPerRun(100, func() { buf = AppendKey(buf[:0], v) }); n != 0 {
			t.Errorf("AppendKey(%#v) allocates %.1f times per run", v, n)
		}
	}
}
