// Package relation implements the relational substrate used throughout the
// library: typed schemas, primary and foreign keys, functional dependencies,
// in-memory tables, and the secondary indexes (hash and inverted keyword
// indexes) that keyword matching and SQL execution are built on.
package relation

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Type identifies the declared type of an attribute.
type Type int

// Attribute types. Dates are stored as ISO-8601 strings so that their
// lexicographic order coincides with chronological order.
const (
	TypeString Type = iota
	TypeInt
	TypeFloat
	TypeDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "VARCHAR"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DECIMAL"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single attribute value in a tuple. The dynamic type is one of
// int64, float64, string, or nil (SQL NULL). Dates are strings.
type Value interface{}

// Null reports whether v is the SQL NULL value.
func Null(v Value) bool { return v == nil }

// Int constructs an integer Value.
func Int(i int64) Value { return i }

// Float constructs a floating-point Value.
func Float(f float64) Value { return f }

// Str constructs a string Value.
func Str(s string) Value { return s }

// AsFloat converts a numeric Value to float64. The second result is false if
// the value is NULL or non-numeric.
func AsFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case string:
		f, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// Compare orders two values. NULL sorts before every non-NULL value. Two
// int64s compare exactly; any other numeric pair, an int64/float64 mix
// included, compares as float64; everything else compares by its Format
// rendering. The result is -1, 0, or +1.
func Compare(a, b Value) int {
	switch {
	case Null(a) && Null(b):
		return 0
	case Null(a):
		return -1
	case Null(b):
		return 1
	}
	if ai, ok := a.(int64); ok {
		if bi, ok := b.(int64); ok {
			return cmp.Compare(ai, bi)
		}
	}
	af, aok := numeric(a)
	bf, bok := numeric(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(Format(a), Format(b))
}

func numeric(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Format renders a value the way the engine prints result rows: integers
// without a decimal point, floats with minimal digits (negative zero as 0,
// the value it equals), NULL as "NULL". For non-NULL values it is also the
// canonical rendering equality keys are built from (see AppendKey and Dict).
func Format(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == 0 {
			return "0"
		}
		return strconv.FormatFloat(x, 'f', -1, 64)
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// AppendFormat appends the Format rendering of v to dst and returns the
// extended slice, without materializing an intermediate string: integers and
// floats append their digits directly (strconv.Append*), strings and NULL
// append their bytes. AppendKey builds per-row hash and join keys on it
// allocation-free; AppendFormat(dst, v) is byte-identical to
// append(dst, Format(v)...) for every value (pinned by TestAppendFormat).
func AppendFormat(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, "NULL"...)
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		if x == 0 {
			return append(dst, '0')
		}
		return strconv.AppendFloat(dst, x, 'f', -1, 64)
	case string:
		return append(dst, x...)
	default:
		return fmt.Appendf(dst, "%v", x)
	}
}

// nullKey is AppendKey's encoding of NULL: a length no rendering can have.
const nullKey = ^uint32(0)

// AppendKey appends v's canonical equality key to dst: the 4-byte
// little-endian length of its Format rendering followed by the rendering,
// or, for NULL, the lone length 0xFFFFFFFF. Two values get equal keys
// exactly when both are NULL or neither is and their renderings are equal —
// the identity a Dict gives its IDs — and the length prefix keeps
// concatenated keys unambiguous, so composite keys
// — multi-column GROUP BY, DISTINCT and join keys over columns without a
// dictionary, primary keys — are a plain concatenation. Appending into a
// buffer with capacity does not allocate for the common value classes.
func AppendKey(dst []byte, v Value) []byte {
	if v == nil {
		return binary.LittleEndian.AppendUint32(dst, nullKey)
	}
	n0 := len(dst)
	dst = AppendFormat(binary.LittleEndian.AppendUint32(dst, 0), v)
	binary.LittleEndian.PutUint32(dst[n0:], uint32(len(dst)-n0-4))
	return dst
}

// Literal renders a value as a SQL literal: strings are single-quoted with
// embedded quotes doubled.
func Literal(v Value) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	default:
		return Format(v)
	}
}

// Coerce parses the string s into a Value of type t. An empty string becomes
// NULL for the numeric types. NaN and ±Inf are rejected: Compare cannot
// order NaN, and SQL has no literal for either.
func Coerce(s string, t Type) (Value, error) {
	switch t {
	case TypeString, TypeDate:
		return s, nil
	case TypeInt:
		if s == "" {
			return nil, nil
		}
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("relation: %q is not an integer: %w", s, err)
		}
		return i, nil
	case TypeFloat:
		if s == "" {
			return nil, nil
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("relation: %q is not a number: %w", s, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("relation: %q is not a finite number", s)
		}
		return f, nil
	default:
		return nil, fmt.Errorf("relation: unknown type %v", t)
	}
}

// ContainsFold reports whether haystack contains needle, ignoring ASCII case:
// A-Z match a-z, and every other byte, each byte of a non-ASCII character
// included, matches only itself. That is SQLite's instr(lower(x), lower(y))
// on UTF-8 text, since lower() folds ASCII only ('ÉCOLE' does not contain
// 'école'). It implements the paper's "a contains t" predicate used for
// value matches and allocates nothing.
func ContainsFold(haystack, needle string) bool {
	if len(needle) == 0 {
		return true
	}
	first := lowerASCII(needle[0])
	for i, last := 0, len(haystack)-len(needle); i <= last; i++ {
		if lowerASCII(haystack[i]) != first {
			continue
		}
		j := 1
		for j < len(needle) && lowerASCII(haystack[i+j]) == lowerASCII(needle[j]) {
			j++
		}
		if j == len(needle) {
			return true
		}
	}
	return false
}

// lowerASCII maps A-Z to a-z and leaves every other byte alone.
func lowerASCII(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}
