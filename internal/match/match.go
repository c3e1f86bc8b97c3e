// Package match resolves basic query terms to their interpretations (tags):
// a term can match a relation name, an attribute name, or tuple values of
// some attribute (Section 2). Matching is performed against the metadata of
// the schema the ORM graph was built on — the database schema itself, or the
// normalized view D' when the database is unnormalized (Algorithm 2, lines
// 15-19) — while tuple values are always looked up in the stored data.
package match

import (
	"fmt"
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
	postings := m.idx.LookupPhrase(m.data, term)
	// (data relation, attr) -> rows
	type key struct{ rel, attr string }
	rows := make(map[key][]int)
	var order []key
	for _, p := range postings {
		k := key{strings.ToLower(p.Relation), strings.ToLower(p.Attr)}
		if _, ok := rows[k]; !ok {
			order = append(order, k)
		}
		rows[k] = append(rows[k], p.Row)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].rel != order[j].rel {
			return order[i].rel < order[j].rel
		}
		return order[i].attr < order[j].attr
	})
	var tags []Tag
	for _, k := range order {
		dataTable := m.data.Table(k.rel)
		if dataTable == nil {
			continue
		}
		for _, vs := range m.byData[k.rel] {
			if !vs.HasAttr(k.attr) {
				continue
			}
			node := m.graph.NodeOfRelation(vs.Name)
			if node == nil {
				continue
			}
			attrName := vs.Attributes[vs.AttrIndex(k.attr)].Name
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
// attribute attr contains term, reading tuples from the relation's data
// source; objects are told apart by their canonical primary-key values
// (relation.AppendKey). This implements the |T| > 1 test of Algorithm 3
// line 18.
func (m *Matcher) CountObjects(vs *relation.Schema, attr, term string) int {
	dataTable := m.data.Table(m.SourceOf(vs.Name))
	if dataTable == nil {
		return 0
	}
	ai := dataTable.Schema.AttrIndex(attr)
	if ai < 0 {
		return 0
	}
	keyIdx := make([]int, 0, len(vs.PrimaryKey))
	for _, ka := range vs.PrimaryKey {
		ki := dataTable.Schema.AttrIndex(ka)
		if ki < 0 {
			return 0
		}
		keyIdx = append(keyIdx, ki)
	}
	seen := make(map[string]bool)
	var key []byte
	for _, tu := range dataTable.Tuples {
		s, ok := tu[ai].(string)
		if !ok || !relation.ContainsFold(s, term) {
			continue
		}
		key = key[:0]
		for _, ki := range keyIdx {
			key = relation.AppendKey(key, tu[ki])
		}
		seen[string(key)] = true
	}
	return len(seen)
}
