// Package match resolves basic query terms to their interpretations (tags):
// a term can match a relation name, an attribute name, or tuple values of
// some attribute (Section 2). Matching is performed against the metadata of
// the schema the ORM graph was built on — the database schema itself, or the
// normalized view D' when the database is unnormalized (Algorithm 2, lines
// 15-19) — while tuple values are always looked up in the stored data.
package match

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"kwagg/internal/keyword"
	"kwagg/internal/orm"
	"kwagg/internal/relation"
)

// Kind says what a term matched.
type Kind int

// Match kinds.
const (
	// RelationName: the term equals the name of a relation.
	RelationName Kind = iota
	// AttrName: the term equals the name of an attribute.
	AttrName
	// Value: the term is contained in values of some attribute.
	Value
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case RelationName:
		return "relation"
	case AttrName:
		return "attribute"
	case Value:
		return "value"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Tag is one interpretation of one basic term.
type Tag struct {
	Term     string
	Node     string // ORM graph node the interpretation refers to
	Relation string // the (view) relation matched: the node's relation or one of its components
	Kind     Kind
	Attr     string // matched attribute (AttrName and Value kinds)
	// NumObjects is the number of distinct objects/relationships whose
	// attribute value contains the term (Value kind only). Pattern
	// disambiguation forks a GROUPBY(id) copy when NumObjects > 1.
	NumObjects int
}

// String renders the tag for diagnostics.
func (t Tag) String() string {
	switch t.Kind {
	case RelationName:
		return fmt.Sprintf("%s=relation:%s", t.Term, t.Relation)
	case AttrName:
		return fmt.Sprintf("%s=attribute:%s.%s", t.Term, t.Relation, t.Attr)
	default:
		return fmt.Sprintf("%s=value:%s.%s(x%d)", t.Term, t.Relation, t.Attr, t.NumObjects)
	}
}

// Matcher matches terms against one database (and, for unnormalized
// databases, its normalized view).
type Matcher struct {
	data    *relation.Database
	meta    []*relation.Schema
	graph   *orm.Graph
	sources map[string]string // lower(view relation) -> data relation
	byData  map[string][]*relation.Schema
	idx     *relation.InvertedIndex
}

// New creates a matcher. meta lists the schemas terms are matched against
// (the schemas the ORM graph g was built from); data holds the stored
// tuples, and its inverted index (data.Index()) answers value terms.
// sources maps each meta relation to the data relation its tuples are
// projected from — pass nil when meta and data relations coincide
// (normalized databases).
//
// data must be frozen before Match is called (core.Open freezes it before
// building the matcher): value terms are counted over the tables'
// dictionary encodings, and Match panics on an unfrozen table.
func New(data *relation.Database, meta []*relation.Schema, g *orm.Graph, sources map[string]string) *Matcher {
	m := &Matcher{
		data:    data,
		meta:    meta,
		graph:   g,
		sources: make(map[string]string),
		byData:  make(map[string][]*relation.Schema),
		idx:     data.Index(),
	}
	for _, s := range meta {
		src := s.Name
		if sources != nil {
			if d, ok := sources[strings.ToLower(s.Name)]; ok {
				src = d
			}
		}
		m.sources[strings.ToLower(s.Name)] = src
		m.byData[strings.ToLower(src)] = append(m.byData[strings.ToLower(src)], s)
	}
	return m
}

// Graph returns the ORM graph the matcher resolves nodes against.
func (m *Matcher) Graph() *orm.Graph { return m.graph }

// Data returns the database holding the stored tuples.
func (m *Matcher) Data() *relation.Database { return m.data }

// SourceOf returns the data relation holding the tuples of the given meta
// relation.
func (m *Matcher) SourceOf(metaRel string) string {
	if s, ok := m.sources[strings.ToLower(metaRel)]; ok {
		return s
	}
	return metaRel
}

// nameMatches reports whether term matches name, tolerating a trailing
// plural 's' on either side (e.g. term "order" matches relation "Orders").
func nameMatches(term, name string) bool {
	if strings.EqualFold(term, name) {
		return true
	}
	lt, ln := strings.ToLower(term), strings.ToLower(name)
	return lt+"s" == ln || lt == ln+"s"
}

// Match returns every interpretation of a basic term, deterministically
// ordered: relation-name matches first, then attribute-name matches, then
// value matches, each in schema declaration order. Quoted terms skip
// metadata matching (they are value phrases by construction).
func (m *Matcher) Match(t keyword.Term) []Tag {
	if t.Kind != keyword.Basic {
		return nil
	}
	var tags []Tag
	if !t.Quoted {
		for _, s := range m.meta {
			node := m.graph.NodeOfRelation(s.Name)
			if node == nil {
				continue
			}
			if nameMatches(t.Text, s.Name) {
				tags = append(tags, Tag{Term: t.Text, Node: node.Name, Relation: s.Name, Kind: RelationName})
			}
			for _, a := range s.Attributes {
				if nameMatches(t.Text, a.Name) {
					tags = append(tags, Tag{Term: t.Text, Node: node.Name, Relation: s.Name, Kind: AttrName, Attr: a.Name})
				}
			}
		}
	}
	tags = append(tags, m.valueTags(t.Text)...)
	return tags
}

// valueTags finds the attributes whose stored values contain the term and
// counts the distinct objects per (view relation, attribute).
func (m *Matcher) valueTags(term string) []Tag {
	cols := m.idx.LookupPhrase(m.data, term)
	sort.Slice(cols, func(i, j int) bool {
		ri, rj := strings.ToLower(cols[i].Relation), strings.ToLower(cols[j].Relation)
		if ri != rj {
			return ri < rj
		}
		return strings.ToLower(cols[i].Attr) < strings.ToLower(cols[j].Attr)
	})
	var tags []Tag
	for _, c := range cols {
		for _, vs := range m.byData[strings.ToLower(c.Relation)] {
			ai := vs.AttrIndex(c.Attr)
			if ai < 0 {
				continue
			}
			node := m.graph.NodeOfRelation(vs.Name)
			if node == nil {
				continue
			}
			attrName := vs.Attributes[ai].Name
			tags = append(tags, Tag{
				Term:       term,
				Node:       node.Name,
				Relation:   vs.Name,
				Kind:       Value,
				Attr:       attrName,
				NumObjects: m.CountObjects(vs, attrName, term),
			})
		}
	}
	return tags
}

// CountObjects counts the distinct objects of the (view) relation vs whose
// attribute attr contains term, reading tuples from the relation's frozen
// data source. "Contains" is the generated CONTAINS predicate's: a string
// value holding term as a substring, ignoring ASCII case (so a "primrose"
// part counts for "rose"); NULLs and values of other types never count.
// Objects are told apart by the dictionary IDs of their primary-key values,
// which is relation.AppendKey identity. This implements the |T| > 1 test of
// Algorithm 3 line 18.
func (m *Matcher) CountObjects(vs *relation.Schema, attr, term string) int {
	t := m.data.Table(m.SourceOf(vs.Name))
	if t == nil {
		return 0
	}
	ai := t.Schema.AttrIndex(attr)
	if ai < 0 {
		return 0
	}
	dicts, _, ok := t.Encoding()
	if !ok {
		panic("match: relation " + t.Schema.Name + " is not frozen")
	}
	keyIdx := make([]int, len(vs.PrimaryKey))
	for i, ka := range vs.PrimaryKey {
		if keyIdx[i] = t.Schema.AttrIndex(ka); keyIdx[i] < 0 {
			return 0
		}
	}
	// The term is tested once per distinct value of attr (Dict.ContainsFold),
	// and only the rows holding a passing value are read, through the
	// column's value index, so the cost does not grow with the rows that
	// fail.
	keep, strOnly := dicts[ai].ContainsFold(term), dicts[ai].AllStrings()
	each := func(fn func(r int)) {
		forEachID(keep, func(id uint32) {
			for _, r := range t.LookupID(ai, id) {
				if !strOnly {
					if _, ok := t.Tuples[r][ai].(string); !ok {
						continue // one ID can stand for int64(5) and "5"
					}
				}
				fn(r)
			}
		})
	}
	if len(keyIdx) == 1 {
		// One key column: mark its IDs in a bitset over its dictionary.
		ids := t.Col(keyIdx[0]).IDs
		seen := make([]uint64, (dicts[keyIdx[0]].Len()+63)/64)
		objects := 0
		each(func(r int) {
			if w, b := ids[r]>>6, uint64(1)<<(ids[r]&63); seen[w]&b == 0 {
				seen[w] |= b
				objects++
			}
		})
		return objects
	}
	// Composite (or empty) key: sort the passing rows by their key ID tuples
	// and count the distinct tuples.
	n := 0
	forEachID(keep, func(id uint32) { n += len(t.LookupID(ai, id)) })
	rows := make([]int, 0, n)
	each(func(r int) { rows = append(rows, r) })
	keys := make([][]uint32, len(keyIdx))
	for i, ki := range keyIdx {
		keys[i] = t.Col(ki).IDs
	}
	cmpKeys := func(a, b int) int {
		for _, ids := range keys {
			if c := cmp.Compare(ids[a], ids[b]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortFunc(rows, cmpKeys)
	objects := 0
	for i, r := range rows {
		if i == 0 || cmpKeys(rows[i-1], r) != 0 {
			objects++
		}
	}
	return objects
}

// forEachID calls fn with every ID whose bit is set, in ascending order.
func forEachID(set []uint64, fn func(id uint32)) {
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			fn(uint32(w*64 + bits.TrailingZeros64(word)))
		}
	}
}
