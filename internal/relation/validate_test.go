package relation

import (
	"strings"
	"testing"
)

func validDB() *Database {
	db := NewDatabase("v")
	db.AddSchema(NewSchema("Student", "Sid", "Sname").Key("Sid"))
	db.AddSchema(NewSchema("Enrol", "Sid", "Code").Key("Sid", "Code").
		Ref([]string{"Sid"}, "Student"))
	return db
}

func TestValidateDatabaseOK(t *testing.T) {
	if errs := ValidateDatabase(validDB()); len(errs) != 0 {
		t.Errorf("valid schema rejected: %v", errs)
	}
}

func expectError(t *testing.T, errs []error, frag string) {
	t.Helper()
	for _, e := range errs {
		if strings.Contains(e.Error(), frag) {
			return
		}
	}
	t.Errorf("no error containing %q in %v", frag, errs)
}

func TestValidateMissingKeyAttr(t *testing.T) {
	db := NewDatabase("v")
	db.AddSchema(NewSchema("T", "a").Key("nosuch"))
	expectError(t, ValidateDatabase(db), "key attribute")
}

func TestValidateDuplicateAttr(t *testing.T) {
	db := NewDatabase("v")
	db.AddSchema(NewSchema("T", "a", "A").Key("a"))
	expectError(t, ValidateDatabase(db), "duplicate attribute")
}

func TestValidateUnknownFKTarget(t *testing.T) {
	db := NewDatabase("v")
	db.AddSchema(NewSchema("T", "a").Key("a").Ref([]string{"a"}, "Missing"))
	expectError(t, ValidateDatabase(db), "unknown relation")
}

func TestValidateFKArity(t *testing.T) {
	db := validDB()
	s := db.Table("Enrol").Schema
	s.ForeignKeys = append(s.ForeignKeys, ForeignKey{
		Attrs: []string{"Sid", "Code"}, RefRelation: "Student", RefAttrs: []string{"Sid"},
	})
	expectError(t, ValidateDatabase(db), "mismatched arity")
}

func TestValidateFKMissingAttrs(t *testing.T) {
	db := NewDatabase("v")
	db.AddSchema(NewSchema("Student", "Sid").Key("Sid"))
	db.AddSchema(NewSchema("T", "x").Key("x").
		Ref([]string{"nosuch"}, "Student", "Sid"))
	expectError(t, ValidateDatabase(db), "does not exist")
	db2 := NewDatabase("v")
	db2.AddSchema(NewSchema("Student", "Sid").Key("Sid"))
	db2.AddSchema(NewSchema("T", "x").Key("x").
		Ref([]string{"x"}, "Student", "nosuch"))
	expectError(t, ValidateDatabase(db2), "missing attribute")
}

func TestValidateFDAttrs(t *testing.T) {
	db := NewDatabase("v")
	db.AddSchema(NewSchema("T", "a", "b").Key("a").Dep([]string{"a"}, "nosuch"))
	expectError(t, ValidateDatabase(db), "FD")
}

func TestValidateDataKeyUniqueness(t *testing.T) {
	db := validDB()
	st := db.Table("Student")
	st.MustInsert("s1", "A")
	st.MustInsert("s1", "B")
	expectError(t, ValidateData(db), "duplicate key")
}

func TestValidateDataDanglingFK(t *testing.T) {
	db := validDB()
	db.Table("Student").MustInsert("s1", "A")
	db.Table("Enrol").MustInsert("s2", "c1") // s2 does not exist
	expectError(t, ValidateData(db), "dangling")
}

func TestValidateDataOK(t *testing.T) {
	db := validDB()
	db.Table("Student").MustInsert("s1", "A")
	db.Table("Student").MustInsert("a", "B")
	db.Table("Student").MustInsert("a\x1fb", "C")
	db.Table("Enrol").MustInsert("s1", "c1")
	// Distinct composite keys that a separator-joined key would merge.
	db.Table("Enrol").MustInsert("a\x1fb", "c")
	db.Table("Enrol").MustInsert("a", "b\x1fc")
	if errs := ValidateData(db); len(errs) != 0 {
		t.Errorf("valid data rejected: %v", errs)
	}
}
