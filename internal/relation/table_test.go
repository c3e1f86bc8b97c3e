package relation

import (
	"bytes"
	"strings"
	"testing"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tb := NewTable(studentSchema())
	tb.MustInsert("s1", "George", int64(22))
	tb.MustInsert("s2", "Green", int64(24))
	tb.MustInsert("s3", "Green", int64(21))
	return tb
}

func TestInsertArity(t *testing.T) {
	tb := NewTable(studentSchema())
	if err := tb.Insert(Tuple{"s1"}); err == nil {
		t.Error("short tuple should be rejected")
	}
	if err := tb.Insert(Tuple{"s1", "A", int64(1), "extra"}); err == nil {
		t.Error("long tuple should be rejected")
	}
}

func TestAppendShared(t *testing.T) {
	src := sampleTable(t)
	extra := []Tuple{{"s4", "Brown", int64(25)}}
	tb := NewTable(studentSchema())
	if err := tb.AppendShared(src.Tuples, nil, extra); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 4 {
		t.Fatalf("appended table has %d rows", tb.Len())
	}
	// Shared by reference, not copied.
	if &tb.Tuples[0][0] != &src.Tuples[0][0] {
		t.Error("tuples were copied, not shared")
	}
	if v := tb.Value(3, "Sname"); v != "Brown" {
		t.Errorf("tail row: %v", v)
	}

	// A bad-arity tuple anywhere rejects the whole call, appending nothing.
	if err := tb.AppendShared([]Tuple{{"s5", "X", int64(1)}, {"s6"}}); err == nil {
		t.Error("short tuple should be rejected")
	}
	if tb.Len() != 4 {
		t.Errorf("failed append mutated the table: %d rows", tb.Len())
	}

	tb.Freeze()
	if err := tb.AppendShared(extra); err == nil {
		t.Error("frozen table should reject AppendShared")
	}
}

func TestInsertRowCoercion(t *testing.T) {
	tb := NewTable(studentSchema())
	if err := tb.InsertRow("s1", "George", "22"); err != nil {
		t.Fatal(err)
	}
	if v := tb.Value(0, "Age"); v.(int64) != 22 {
		t.Errorf("Age coerced wrong: %v", v)
	}
	if err := tb.InsertRow("s2", "X", "not-an-int"); err == nil {
		t.Error("bad INT field should be rejected")
	}
	if err := tb.InsertRow("s2", "X"); err == nil {
		t.Error("wrong field count should be rejected")
	}
}

func TestLookup(t *testing.T) {
	tb := sampleTable(t)
	rows := tb.Lookup("Sname", Str("Green"))
	if len(rows) != 2 || rows[0] != 1 || rows[1] != 2 {
		t.Errorf("Lookup Green: %v", rows)
	}
	if got := tb.Lookup("Sname", Str("Nobody")); got != nil {
		t.Errorf("Lookup miss should be empty, got %v", got)
	}
	if got := tb.Lookup("NoAttr", Str("x")); got != nil {
		t.Errorf("Lookup on unknown attr should be empty, got %v", got)
	}
	// The index is invalidated by inserts.
	tb.MustInsert("s4", "Green", int64(30))
	if got := tb.Lookup("Sname", Str("Green")); len(got) != 3 {
		t.Errorf("Lookup after insert should see new row: %v", got)
	}
}

func TestKeyOf(t *testing.T) {
	tb := sampleTable(t)
	if tb.KeyOf(0) == tb.KeyOf(1) {
		t.Error("distinct rows must have distinct keys")
	}
	enrol := NewTable(NewSchema("Enrol", "Sid", "Code").Key("Sid", "Code"))
	enrol.MustInsert("s1", "c1")
	enrol.MustInsert("s1", "c2")
	if enrol.KeyOf(0) == enrol.KeyOf(1) {
		t.Error("composite keys must distinguish rows")
	}
	// Values containing a would-be separator cannot alias across columns,
	// and NULL is not the string "NULL".
	enrol.MustInsert("a\x1fb", "c")
	enrol.MustInsert("a", "b\x1fc")
	enrol.MustInsert(nil, "c")
	enrol.MustInsert("NULL", "c")
	if enrol.KeyOf(2) == enrol.KeyOf(3) {
		t.Error(`keys ("a\x1fb","c") and ("a","b\x1fc") collide`)
	}
	if enrol.KeyOf(4) == enrol.KeyOf(5) {
		t.Error(`keys (NULL,"c") and ("NULL","c") collide`)
	}
}

func TestDatabaseRegistry(t *testing.T) {
	db := NewDatabase("test")
	db.AddSchema(studentSchema())
	db.AddSchema(NewSchema("Course", "Code").Key("Code"))
	if db.Table("student") == nil || db.Table("STUDENT") == nil {
		t.Error("table lookup should be case-insensitive")
	}
	if db.Table("nosuch") != nil {
		t.Error("unknown table should be nil")
	}
	names := make([]string, 0)
	for _, tb := range db.Tables() {
		names = append(names, tb.Schema.Name)
	}
	if strings.Join(names, ",") != "Student,Course" {
		t.Errorf("registration order lost: %v", names)
	}
	// Replacing keeps the original position.
	db.AddSchema(NewSchema("Student", "Sid", "New").Key("Sid"))
	if got := db.Tables()[0].Schema.Attributes[1].Name; got != "New" {
		t.Errorf("replacement not applied: %v", got)
	}
	if len(db.Tables()) != 2 {
		t.Errorf("replacement must not duplicate: %d tables", len(db.Tables()))
	}
}

func TestDatabaseStats(t *testing.T) {
	db := NewDatabase("test")
	tb := db.AddSchema(studentSchema())
	tb.MustInsert("s1", "A", int64(1))
	if got := db.Stats(); got != "Student=1" {
		t.Errorf("Stats: %q", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := sampleTable(t)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewTable(studentSchema())
	if err := back.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if back.Len() != tb.Len() {
		t.Fatalf("row count: %d vs %d", back.Len(), tb.Len())
	}
	for i := range tb.Tuples {
		for j := range tb.Tuples[i] {
			if !Equal(tb.Tuples[i][j], back.Tuples[i][j]) {
				t.Errorf("row %d col %d: %v vs %v", i, j, tb.Tuples[i][j], back.Tuples[i][j])
			}
		}
	}
}

func TestCSVHeaderReorder(t *testing.T) {
	in := "Age,Sid,Sname\n22,s1,George\n"
	tb := NewTable(studentSchema())
	if err := tb.ReadCSV(strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if tb.Value(0, "Sid") != Str("s1") || tb.Value(0, "Age").(int64) != 22 {
		t.Errorf("reordered header mishandled: %v", tb.Tuples[0])
	}
}

func TestCSVBadHeader(t *testing.T) {
	tb := NewTable(studentSchema())
	if err := tb.ReadCSV(strings.NewReader("Nope\nx\n")); err == nil {
		t.Error("unknown CSV column should be rejected")
	}
}
