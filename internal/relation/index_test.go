package relation

import (
	"reflect"
	"slices"
	"testing"
)

// refLookupPhrase is LookupPhrase by brute force: every string-typed column,
// in table then attribute order, holding a value that contains the phrase
// and has the phrase's first token among its own tokens.
func refLookupPhrase(db *Database, phrase string) []Column {
	toks := Tokenize(phrase)
	if len(toks) == 0 {
		return nil
	}
	var out []Column
	for _, t := range db.Tables() {
		for j, a := range t.Schema.Attributes {
			if a.Type != TypeString && a.Type != TypeDate {
				continue
			}
			for _, tu := range t.Tuples {
				s, ok := tu[j].(string)
				if ok && ContainsFold(s, phrase) && slices.Contains(Tokenize(s), toks[0]) {
					out = append(out, Column{Relation: t.Schema.Name, Attr: a.Name})
					break
				}
			}
		}
	}
	return out
}

// TestLookupPhraseColumns: LookupPhrase returns each column holding the
// phrase once, in index order, including columns whose only passing value
// comes after first-token postings that fail the phrase check, and finds no
// column through a substring that is not a token of any value.
func TestLookupPhraseColumns(t *testing.T) {
	db := NewDatabase("flowers")
	a := db.AddSchema(NewSchema("A", "Id", "Title", "Note").Key("Id"))
	a.MustInsert("a1", "Wild rose", "red")
	a.MustInsert("a2", "primrose path", "a rose")
	a.MustInsert("a3", "rose", "the rose garden")
	b := db.AddSchema(NewSchema("B", "Id", "Name").Key("Id"))
	b.MustInsert("b1", "Rose hip")
	b.MustInsert("b2", nil)
	idx := BuildIndex(db)
	for phrase, want := range map[string][]Column{
		"rose":        {{"A", "Title"}, {"A", "Note"}, {"B", "Name"}},
		"rose garden": {{"A", "Note"}},
		"ROSE H":      {{"B", "Name"}},
		"primrose":    {{"A", "Title"}},
		"imrose":      nil, // a substring, but no value's token
		"tulip":       nil,
		"--":          nil,
	} {
		if got := idx.LookupPhrase(db, phrase); !reflect.DeepEqual(got, want) {
			t.Errorf("LookupPhrase(%q) = %v, want %v", phrase, got, want)
		}
	}
}

// TestLookupPhraseAfterAppendRows: on an index patched through AppendRows
// (fresh rows spliced into the middle of posting lists) LookupPhrase agrees
// with the brute-force column scan.
func TestLookupPhraseAfterAppendRows(t *testing.T) {
	full := indexDB(t, 180, 70)
	patched, _ := BuildIndex(indexDB(t, 120, 40)).AppendRows(full, map[string]int{"item": 120, "other": 40})
	hits := 0
	for _, phrase := range []string{"alpha3", "item 17", "item 150 alpha7", "other 41", "NULL", "other55", "item", "zzz"} {
		want := refLookupPhrase(full, phrase)
		if got := patched.LookupPhrase(full, phrase); !reflect.DeepEqual(got, want) {
			t.Errorf("LookupPhrase(%q) = %v, want %v", phrase, got, want)
		}
		hits += len(want)
	}
	if hits < 4 {
		t.Fatalf("only %d columns matched across the phrases; the test data drifted", hits)
	}
}
