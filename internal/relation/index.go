package relation

import (
	"sort"
	"strings"
	"sync/atomic"
	"unicode"
)

// InvertedIndex maps lower-cased tokens to their occurrences in string-typed
// attribute values across a database. It answers the question "which
// relations / attributes / tuples does keyword t match?" (term matching,
// Section 2 of the paper). Every token's postings are ordered by table
// (registration order), then attribute (declaration order), then row, so one
// column's postings form one contiguous run; BuildIndex and AppendRows both
// keep that order, and LookupPhrase relies on it.
type InvertedIndex struct {
	postings map[string][]Posting

	// claimed is a one-shot claim on the spare capacity of this index's
	// posting slices, same discipline as Table.tailClaimed: the first
	// AppendRows may extend buckets in place (addresses beyond their
	// lengths, which readers of this epoch never touch); any later call
	// sees the claim taken and copies instead.
	claimed atomic.Bool
}

// Posting is one occurrence of a token: the value of attribute Attr in row
// Row of relation Relation contains the token.
type Posting struct {
	Relation string
	Attr     string
	Row      int
}

// Tokenize splits s into lower-cased alphanumeric tokens.
func Tokenize(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// BuildIndex scans every string-typed attribute of every table in db and
// builds the inverted index over their tokens. Readers of a frozen database
// use Database.Index, which builds it once and caches it.
func BuildIndex(db *Database) *InvertedIndex {
	idx := &InvertedIndex{postings: make(map[string][]Posting)}
	for _, t := range db.Tables() {
		for j, a := range t.Schema.Attributes {
			if a.Type != TypeString && a.Type != TypeDate {
				continue
			}
			for i, tu := range t.Tuples {
				s, ok := tu[j].(string)
				if !ok {
					continue
				}
				seen := make(map[string]bool)
				for _, tok := range Tokenize(s) {
					if seen[tok] {
						continue
					}
					seen[tok] = true
					idx.postings[tok] = append(idx.postings[tok], Posting{
						Relation: t.Schema.Name, Attr: a.Name, Row: i,
					})
				}
			}
		}
	}
	return idx
}

// AppendRows builds the next epoch's inverted index from this one plus only
// the rows appended since it was built: idx must equal BuildIndex over the
// prefix of db holding the first from[lower-cased table name] rows of each
// table, and the result equals BuildIndex(db) — same postings, same order.
// Untouched posting lists are shared by reference (the map itself is copied,
// O(vocabulary) slice headers); a token gaining occurrences gets an extended
// list, so old-epoch readers never observe a mutation. Because appended rows
// carry higher row ids than every existing row, a touched token's fresh
// postings almost always sort entirely after its old ones — that common case
// is a tail append, in place under the index's one-shot capacity claim
// (O(new postings) amortized) or into a copy when the claim is taken. Only a
// token that also occurs in a table or attribute ranked later than the fresh
// rows' needs the element-wise splice merge. Returns the number of touched
// posting lists; when no new row contains any token the index itself is
// returned.
func (idx *InvertedIndex) AppendRows(db *Database, from map[string]int) (*InvertedIndex, int) {
	fresh := make(map[string][]Posting)
	for _, t := range db.Tables() {
		lo := from[strings.ToLower(t.Schema.Name)]
		for j, a := range t.Schema.Attributes {
			if a.Type != TypeString && a.Type != TypeDate {
				continue
			}
			for i := lo; i < len(t.Tuples); i++ {
				s, ok := t.Tuples[i][j].(string)
				if !ok {
					continue
				}
				seen := make(map[string]bool)
				for _, tok := range Tokenize(s) {
					if seen[tok] {
						continue
					}
					seen[tok] = true
					fresh[tok] = append(fresh[tok], Posting{
						Relation: t.Schema.Name, Attr: a.Name, Row: i,
					})
				}
			}
		}
	}
	if len(fresh) == 0 {
		return idx, 0
	}
	// BuildIndex emits postings in (table registration order, attribute
	// order, row order); both the old and the fresh lists follow it, so a
	// rank-keyed merge reproduces the full rebuild's order exactly.
	tableRank := make(map[string]int)
	attrRank := make(map[string]int)
	for ti, t := range db.Tables() {
		key := strings.ToLower(t.Schema.Name)
		tableRank[key] = ti
		for j, a := range t.Schema.Attributes {
			attrRank[key+"\x00"+a.Name] = j
		}
	}
	rank := func(p Posting) (int, int) {
		key := strings.ToLower(p.Relation)
		return tableRank[key], attrRank[key+"\x00"+p.Attr]
	}
	less := func(p, q Posting) bool {
		tp, ap := rank(p)
		tq, aq := rank(q)
		return tp < tq || (tp == tq && (ap < aq || (ap == aq && p.Row < q.Row)))
	}
	claim := idx.claimed.CompareAndSwap(false, true)
	out := &InvertedIndex{postings: make(map[string][]Posting, len(idx.postings)+len(fresh))}
	for tok, ps := range idx.postings {
		out.postings[tok] = ps
	}
	for tok, news := range fresh {
		old := out.postings[tok]
		switch {
		case len(old) == 0:
			out.postings[tok] = news
		case less(old[len(old)-1], news[0]):
			// Every fresh posting sorts after the old tail (row ids of
			// appended rows exceed all existing ones, and equal full keys
			// are impossible). Extend in place when this call owns the
			// claim; otherwise leave old's spare capacity alone.
			if claim {
				out.postings[tok] = append(old, news...)
			} else {
				out.postings[tok] = append(old[:len(old):len(old)], news...)
			}
		default:
			merged := make([]Posting, 0, len(old)+len(news))
			i, j := 0, 0
			for i < len(old) && j < len(news) {
				if less(old[i], news[j]) {
					merged = append(merged, old[i])
					i++
				} else {
					merged = append(merged, news[j])
					j++
				}
			}
			merged = append(merged, old[i:]...)
			merged = append(merged, news[j:]...)
			out.postings[tok] = merged
		}
	}
	return out, len(fresh)
}

// LookupToken returns the postings of a single token.
func (idx *InvertedIndex) LookupToken(tok string) []Posting {
	return idx.postings[strings.ToLower(tok)]
}

// Column names one attribute of one relation.
type Column struct {
	Relation string
	Attr     string
}

// LookupPhrase returns the columns holding a value that contains the whole
// phrase (ContainsFold), each once, in index order: the columns among the
// postings of the phrase's first token where some posted value passes a
// substring check of the complete phrase. Each column's postings form one
// run (see InvertedIndex), so the table and attribute are resolved once per
// run and a run is read only up to its first passing value. db supplies the
// values.
func (idx *InvertedIndex) LookupPhrase(db *Database, phrase string) []Column {
	toks := Tokenize(phrase)
	if len(toks) == 0 {
		return nil
	}
	ps := idx.postings[toks[0]]
	var out []Column
	for len(ps) > 0 {
		c := Column{Relation: ps[0].Relation, Attr: ps[0].Attr}
		run := ps[:sort.Search(len(ps), func(i int) bool {
			return ps[i].Relation != c.Relation || ps[i].Attr != c.Attr
		})]
		ps = ps[len(run):]
		t := db.Table(c.Relation)
		if t == nil {
			continue
		}
		j := t.Schema.AttrIndex(c.Attr)
		if j < 0 {
			continue
		}
		for _, p := range run {
			if s, ok := t.Tuples[p.Row][j].(string); ok && ContainsFold(s, phrase) {
				out = append(out, c)
				break
			}
		}
	}
	return out
}

// Vocabulary returns the number of distinct tokens indexed.
func (idx *InvertedIndex) Vocabulary() int { return len(idx.postings) }
