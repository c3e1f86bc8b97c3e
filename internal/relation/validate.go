package relation

import (
	"fmt"
	"strings"
)

// ValidateDatabase checks the structural consistency of a database schema
// before any semantic processing: primary-key and FD attributes must exist,
// foreign keys must reference existing relations and their key attributes
// with matching arity, and relation names must not collide. It returns every
// problem found, so callers can report them all at once.
func ValidateDatabase(db *Database) []error {
	var errs []error
	for _, t := range db.Tables() {
		errs = append(errs, ValidateSchema(t.Schema, db)...)
	}
	return errs
}

// ValidateSchema checks one schema against the database it belongs to.
func ValidateSchema(s *Schema, db *Database) []error {
	var errs []error
	seen := make(map[string]bool)
	for _, a := range s.Attributes {
		k := strings.ToLower(a.Name)
		if seen[k] {
			errs = append(errs, fmt.Errorf("relation %s: duplicate attribute %q", s.Name, a.Name))
		}
		seen[k] = true
	}
	for _, k := range s.PrimaryKey {
		if !s.HasAttr(k) {
			errs = append(errs, fmt.Errorf("relation %s: key attribute %q does not exist", s.Name, k))
		}
	}
	for _, fk := range s.ForeignKeys {
		if len(fk.Attrs) != len(fk.RefAttrs) {
			errs = append(errs, fmt.Errorf("relation %s: foreign key %s has mismatched arity", s.Name, fk))
			continue
		}
		for _, a := range fk.Attrs {
			if !s.HasAttr(a) {
				errs = append(errs, fmt.Errorf("relation %s: foreign key attribute %q does not exist", s.Name, a))
			}
		}
		ref := db.Table(fk.RefRelation)
		if ref == nil {
			errs = append(errs, fmt.Errorf("relation %s: foreign key %s references unknown relation", s.Name, fk))
			continue
		}
		// Note: RefAttrs need not be the referenced relation's key —
		// denormalized schemas carry informal join references (e.g.
		// PaperAuthor.procid into EditorProceeding), which the SQAK schema
		// graph must see.
		for _, a := range fk.RefAttrs {
			if !ref.Schema.HasAttr(a) {
				errs = append(errs, fmt.Errorf("relation %s: foreign key %s references missing attribute %q",
					s.Name, fk, a))
			}
		}
	}
	for _, fd := range s.FDs {
		for _, a := range append(append([]string(nil), fd.LHS...), fd.RHS...) {
			if !s.HasAttr(a) {
				errs = append(errs, fmt.Errorf("relation %s: FD %s mentions unknown attribute %q", s.Name, fd, a))
			}
		}
	}
	return errs
}

// ValidateData checks referential integrity and key uniqueness of the stored
// tuples. It is O(total tuples) and intended for dataset generators and
// tests rather than the hot path.
func ValidateData(db *Database) []error {
	var errs []error
	for _, t := range db.Tables() {
		if len(t.Schema.PrimaryKey) > 0 {
			seen := make(map[string]bool, t.Len())
			for i := range t.Tuples {
				k := t.KeyOf(i)
				if seen[k] {
					errs = append(errs, fmt.Errorf("relation %s row %d: duplicate key", t.Schema.Name, i))
					break
				}
				seen[k] = true
			}
		}
		for _, fk := range t.Schema.ForeignKeys {
			ref := db.Table(fk.RefRelation)
			if ref == nil {
				continue // reported by ValidateDatabase
			}
			for i := range t.Tuples {
				dangling := false
				for k, a := range fk.Attrs {
					v := t.Value(i, a)
					if Null(v) {
						continue
					}
					if len(ref.Lookup(fk.RefAttrs[k], v)) == 0 {
						dangling = true
					}
				}
				if dangling {
					errs = append(errs, fmt.Errorf("relation %s row %d: dangling reference %s", t.Schema.Name, i, fk))
					break
				}
			}
		}
	}
	return errs
}
