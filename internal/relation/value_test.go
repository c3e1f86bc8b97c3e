package relation

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(1), 1},
		{Int(2), Int(2), 0},
		{Float(1.5), Int(2), -1},
		{Int(2), Float(1.5), 1},
		{Float(2.0), Int(2), 0},
		{nil, Int(0), -1},
		{Int(0), nil, 1},
		{nil, nil, 0},
		// int64 pairs compare exactly, beyond float64's 2^53 precision
		{Int(1 << 53), Int(1<<53 + 1), -1},
		{Int(1<<53 + 1), Int(1 << 53), 1},
		{Int(math.MaxInt64 - 1), Int(math.MaxInt64), -1},
		{Float(0), Float(math.Copysign(0, -1)), 0},
		// int64/float64 pairs compare exactly too, beyond 2^53 and at the
		// ends of the int64 range
		{Int(1<<53 + 1), Float(1 << 53), 1},
		{Float(1 << 53), Int(1<<53 + 1), -1},
		{Int(math.MaxInt64), Float(0x1p63), -1},
		{Float(0x1p63), Int(math.MaxInt64), 1},
		{Int(math.MinInt64), Float(-0x1p63), 0},
		{Int(-3), Float(-2.5), -1},
		{Int(-2), Float(-2.5), 1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareStrings(t *testing.T) {
	if Compare(Str("apple"), Str("banana")) >= 0 {
		t.Error("apple should sort before banana")
	}
	// Dates stored as ISO strings compare chronologically.
	if Compare(Str("2011-06-13"), Str("2011-06-14")) >= 0 {
		t.Error("earlier date should sort first")
	}
	if Compare(Str("1999-12-31"), Str("2000-01-01")) >= 0 {
		t.Error("earlier year should sort first")
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(Int(a), Int(b)) == -Compare(Int(b), Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return Compare(Str(a), Str(b)) == -Compare(Str(b), Str(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitiveOnInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		x, y, z := Int(a), Int(b), Int(c)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Int(42), "42"},
		{Int(-7), "-7"},
		{Float(1.5), "1.5"},
		{Float(2), "2"},
		{Float(math.Copysign(0, -1)), "0"},
		{Str("hello"), "hello"},
		{nil, "NULL"},
	}
	for _, c := range cases {
		if got := Format(c.v); got != c.want {
			t.Errorf("Format(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestLiteralQuoting(t *testing.T) {
	if got := Literal(Str("O'Brien")); got != "'O''Brien'" {
		t.Errorf("Literal escaping: got %s", got)
	}
	if got := Literal(Int(5)); got != "5" {
		t.Errorf("Literal int: got %s", got)
	}
	if got := Literal(nil); got != "NULL" {
		t.Errorf("Literal nil: got %s", got)
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce("42", TypeInt)
	if err != nil || v.(int64) != 42 {
		t.Errorf("Coerce int: %v, %v", v, err)
	}
	v, err = Coerce("3.25", TypeFloat)
	if err != nil || v.(float64) != 3.25 {
		t.Errorf("Coerce float: %v, %v", v, err)
	}
	v, err = Coerce("abc", TypeString)
	if err != nil || v.(string) != "abc" {
		t.Errorf("Coerce string: %v, %v", v, err)
	}
	// Empty string is NULL for numeric types, empty string for VARCHAR.
	v, err = Coerce("", TypeInt)
	if err != nil || !Null(v) {
		t.Errorf("Coerce empty int should be NULL: %v, %v", v, err)
	}
	v, err = Coerce("", TypeString)
	if err != nil || v.(string) != "" {
		t.Errorf("Coerce empty string: %v, %v", v, err)
	}
	if _, err = Coerce("not-a-number", TypeInt); err == nil {
		t.Error("Coerce should reject non-numeric INT")
	}
	if _, err = Coerce("1.2.3", TypeFloat); err == nil {
		t.Error("Coerce should reject malformed FLOAT")
	}
	// Non-finite floats parse but have no total order under Compare (NaN)
	// and no SQL literal, so the input boundary rejects them.
	for _, s := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "-Infinity", "1e400"} {
		if v, err := Coerce(s, TypeFloat); err == nil {
			t.Errorf("Coerce(%q, FLOAT) = %v, want an error", s, v)
		}
	}
}

func TestCoerceFormatRoundTrip(t *testing.T) {
	f := func(x int64) bool {
		v, err := Coerce(Format(Int(x)), TypeInt)
		return err == nil && v.(int64) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAsFloat(t *testing.T) {
	if f, ok := AsFloat(Int(3)); !ok || f != 3 {
		t.Errorf("AsFloat int: %v %v", f, ok)
	}
	if f, ok := AsFloat(Float(2.5)); !ok || f != 2.5 {
		t.Errorf("AsFloat float: %v %v", f, ok)
	}
	if f, ok := AsFloat(Str("7.5")); !ok || f != 7.5 {
		t.Errorf("AsFloat numeric string: %v %v", f, ok)
	}
	if _, ok := AsFloat(Str("xyz")); ok {
		t.Error("AsFloat should fail on non-numeric string")
	}
	if _, ok := AsFloat(nil); ok {
		t.Error("AsFloat should fail on NULL")
	}
}

func TestContainsFold(t *testing.T) {
	cases := []struct {
		hay, needle string
		want        bool
	}{
		{"Royal Olive", "royal olive", true},
		{"royal olive", "ROYAL", true},
		{"database tuning in practice", "database tuning", true},
		{"data", "database", false},
		{"", "", true},
		{"abc", "", true},
		{"ab", "abc", false},
		{"primrose", "ROSE", true},
		// Only ASCII letters fold, as in SQLite's lower(): É and é differ,
		// and İ does not lower to i plus a combining dot.
		{"ÉCOLE", "école", false},
		{"école", "ÉCOLE", false},
		{"xÉCOLEy", "École", true},
		{"İ", "i", false},
		{"@[`{", "`{@[", false}, // neighbours of the letter ranges never fold
	}
	for _, c := range cases {
		if got := ContainsFold(c.hay, c.needle); got != c.want {
			t.Errorf("ContainsFold(%q, %q) = %v, want %v", c.hay, c.needle, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { ContainsFold("Royal Olive Ribbon", "OLIVE RIB") }); n != 0 {
		t.Errorf("ContainsFold allocates %v times per call, want 0", n)
	}
}

func TestTypeString(t *testing.T) {
	for ty, want := range map[Type]string{
		TypeString: "VARCHAR", TypeInt: "INTEGER", TypeFloat: "DECIMAL", TypeDate: "DATE",
	} {
		if ty.String() != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, ty.String(), want)
		}
	}
}
