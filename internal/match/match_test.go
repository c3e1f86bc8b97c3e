package match

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/keyword"
	"kwagg/internal/normalize"
	"kwagg/internal/orm"
	"kwagg/internal/relation"
)

func uniMatcher(t *testing.T) *Matcher {
	t.Helper()
	db := university.New()
	g, err := orm.Build(db.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return New(db, db.Schemas(), g, nil)
}

func basic(text string) keyword.Term { return keyword.Term{Text: text, Kind: keyword.Basic} }
func quoted(text string) keyword.Term {
	return keyword.Term{Text: text, Kind: keyword.Basic, Quoted: true}
}

func kinds(tags []Tag) map[Kind]int {
	out := make(map[Kind]int)
	for _, tg := range tags {
		out[tg.Kind]++
	}
	return out
}

func TestMatchRelationName(t *testing.T) {
	m := uniMatcher(t)
	tags := m.Match(basic("Student"))
	found := false
	for _, tg := range tags {
		if tg.Kind == RelationName && tg.Relation == "Student" {
			found = true
		}
	}
	if !found {
		t.Errorf("Student should match the relation name: %v", tags)
	}
}

func TestMatchPlural(t *testing.T) {
	m := uniMatcher(t)
	tags := m.Match(basic("students"))
	if len(tags) == 0 || tags[0].Kind != RelationName {
		t.Errorf("plural should match relation name: %v", tags)
	}
}

func TestMatchAttributeName(t *testing.T) {
	m := uniMatcher(t)
	tags := m.Match(basic("Credit"))
	if len(tags) != 1 || tags[0].Kind != AttrName || tags[0].Relation != "Course" || tags[0].Attr != "Credit" {
		t.Errorf("Credit tags: %v", tags)
	}
}

func TestMatchValueCountsObjects(t *testing.T) {
	m := uniMatcher(t)
	tags := m.Match(basic("Green"))
	if len(tags) != 1 {
		t.Fatalf("Green tags: %v", tags)
	}
	tg := tags[0]
	if tg.Kind != Value || tg.Relation != "Student" || tg.Attr != "Sname" {
		t.Errorf("Green tag: %+v", tg)
	}
	if tg.NumObjects != 2 {
		t.Errorf("two students are called Green, got %d", tg.NumObjects)
	}
}

func TestMatchAmbiguousTerm(t *testing.T) {
	m := uniMatcher(t)
	// George is a student name and a lecturer name.
	tags := m.Match(basic("George"))
	if len(tags) != 2 {
		t.Fatalf("George should have two value tags: %v", tags)
	}
	rels := map[string]bool{}
	for _, tg := range tags {
		rels[tg.Relation] = true
		if tg.NumObjects != 1 {
			t.Errorf("one object per relation for George, got %+v", tg)
		}
	}
	if !rels["Student"] || !rels["Lecturer"] {
		t.Errorf("George relations: %v", rels)
	}
}

func TestMatchQuotedSkipsMetadata(t *testing.T) {
	m := uniMatcher(t)
	// Quoted "Student" must not match the relation name, only values (none).
	tags := m.Match(quoted("Student"))
	if k := kinds(tags); k[RelationName] != 0 || k[AttrName] != 0 {
		t.Errorf("quoted term matched metadata: %v", tags)
	}
}

func TestMatchPhrase(t *testing.T) {
	m := uniMatcher(t)
	tags := m.Match(quoted("Programming Language"))
	if len(tags) != 1 || tags[0].Relation != "Textbook" || tags[0].Attr != "Tname" {
		t.Errorf("phrase tags: %v", tags)
	}
}

func TestMatchOperatorsExcluded(t *testing.T) {
	m := uniMatcher(t)
	if tags := m.Match(keyword.Term{Text: "COUNT", Kind: keyword.Aggregate}); tags != nil {
		t.Errorf("operator terms should not match: %v", tags)
	}
}

func TestMatchNothing(t *testing.T) {
	m := uniMatcher(t)
	if tags := m.Match(basic("zzzznothing")); len(tags) != 0 {
		t.Errorf("expected no tags: %v", tags)
	}
}

func TestCountObjectsSubstring(t *testing.T) {
	m := uniMatcher(t)
	// "Data" matches both the course "Database" title and the textbook
	// "Database Management": per-relation counts must be separate.
	tags := m.Match(basic("Database"))
	byRel := map[string]int{}
	for _, tg := range tags {
		byRel[tg.Relation] = tg.NumObjects
	}
	if byRel["Course"] != 1 || byRel["Textbook"] != 1 {
		t.Errorf("per-relation object counts: %v", byRel)
	}
}

// TestCountObjectsCompositeKeySeparator: composite keys whose values
// contain a would-be separator stay distinct objects.
func TestCountObjectsCompositeKeySeparator(t *testing.T) {
	db := relation.NewDatabase("sep")
	r := db.AddSchema(relation.NewSchema("R", "A", "B", "Note").Key("A", "B"))
	r.MustInsert("a\x1fb", "c", "green")
	r.MustInsert("a", "b\x1fc", "green")
	g, err := orm.Build(db.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	m := New(db, db.Schemas(), g, nil)
	if n := m.CountObjects(r.Schema, "Note", "green"); n != 2 {
		t.Errorf("keys (\"a\\x1fb\",\"c\") and (\"a\",\"b\\x1fc\") counted as %d objects, want 2", n)
	}
}

// TestMatchUnnormalizedView: matching against the Figure 8 database resolves
// terms to the normalized view's relations while counting objects in the
// stored Enrolment relation.
func TestMatchUnnormalizedView(t *testing.T) {
	db := university.NewEnrolment()
	view, err := normalize.BuildView(db, university.EnrolmentHints())
	if err != nil {
		t.Fatal(err)
	}
	g, err := orm.Build(view.Schemas)
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	m := New(db, view.Schemas, g, view.Sources)

	// Metadata terms match the view relation names (Student, Course, Enrol).
	tags := m.Match(basic("Student"))
	if len(tags) == 0 || tags[0].Kind != RelationName || tags[0].Relation != "Student" {
		t.Errorf("Student should match the view relation: %v", tags)
	}

	// Value terms are found in the stored relation but reported against the
	// view relation holding the attribute, with per-object counts.
	tags = m.Match(basic("Green"))
	var studentTag *Tag
	for i := range tags {
		if tags[i].Relation == "Student" {
			studentTag = &tags[i]
		}
	}
	if studentTag == nil {
		t.Fatalf("Green should map to the Student view relation: %v", tags)
	}
	if studentTag.NumObjects != 2 {
		t.Errorf("two distinct Sid match Green, got %d", studentTag.NumObjects)
	}
	if m.SourceOf("Student") != "Enrolment" {
		t.Errorf("SourceOf(Student) = %q", m.SourceOf("Student"))
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{RelationName: "relation", AttrName: "attribute", Value: "value"} {
		if k.String() != want {
			t.Errorf("Kind(%d) = %q", k, k.String())
		}
	}
}

// TestComponentRelationMatching: terms matching a component relation's name
// or attributes resolve to the owner node.
func TestComponentRelationMatching(t *testing.T) {
	db := university.New()
	tags := db.AddSchema(relation.NewSchema("CourseTag", "Code", "Tag").
		Key("Code", "Tag").Ref([]string{"Code"}, "Course"))
	tags.MustInsert("c1", "programming")
	g, err := orm.Build(db.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	m := New(db, db.Schemas(), g, nil)

	// The component relation name maps to the owner node.
	got := m.Match(basic("CourseTag"))
	if len(got) == 0 || got[0].Node != "Course" || got[0].Relation != "CourseTag" {
		t.Errorf("component name tags: %v", got)
	}
	// A component attribute maps to the owner node too.
	got = m.Match(basic("Tag"))
	found := false
	for _, tg := range got {
		if tg.Kind == AttrName && tg.Node == "Course" && tg.Relation == "CourseTag" {
			found = true
		}
	}
	if !found {
		t.Errorf("component attribute tags: %v", got)
	}
	// Values stored in the component match with the owner node.
	got = m.Match(basic("programming"))
	found = false
	for _, tg := range got {
		if tg.Kind == Value && tg.Node == "Course" && tg.Relation == "CourseTag" {
			found = true
		}
	}
	if !found {
		t.Errorf("component value tags: %v", got)
	}
}

// TestNewWithIndexReusesIndex pins the epoch-reopen seam: a Matcher over a
// frozen database matches through the database's own cached index
// (relation.Database.Index, which an incremental commit patches instead of
// rebuilding), while one over an unfrozen database, whose rows can still
// change, gets a private fresh index.
func TestNewWithIndexReusesIndex(t *testing.T) {
	db := university.New()
	g, err := orm.Build(db.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	if m := New(db, db.Schemas(), g, nil); m.idx == nil || m.idx == db.Index() {
		t.Fatal("matcher over an unfrozen database did not get a private index")
	}
	db.Freeze()
	idx := db.Index()
	m := New(db, db.Schemas(), g, nil)
	if m.idx != idx {
		t.Fatal("matcher over a frozen database did not reuse its cached index")
	}
	if got := kinds(m.Match(basic("Green")))[Value]; got == 0 {
		t.Fatal("matcher over the cached index found no value match for Green")
	}
}

// TestMatchValueTermAllocsFlat: a value-term Match tests each distinct value
// once and reads only the rows holding a passing one, so on frozen tables
// with the same distinct values it makes as many allocations at 16k rows as
// at 1k, however many rows pass.
func TestMatchValueTermAllocsFlat(t *testing.T) {
	names := []string{"red rose", "white rose", "primrose", "tulip", "daisy", "lily", "iris", "aster"}
	allocs := func(n int) float64 {
		db := relation.NewDatabase("flowers")
		r := db.AddSchema(relation.NewSchema("Flower", "Fid", "Name").Key("Fid"))
		for i := 0; i < n; i++ {
			r.MustInsert(fmt.Sprintf("f%d", i), names[i%len(names)])
		}
		g, err := orm.Build(db.Schemas())
		if err != nil {
			t.Fatal(err)
		}
		db.Freeze()
		m := New(db, db.Schemas(), g, nil)
		term := basic("rose")
		if tags := m.Match(term); len(tags) != 1 || tags[0].NumObjects != n*3/len(names) {
			t.Fatalf("%d rows: tags %v, want one counting %d objects", n, tags, n*3/len(names))
		}
		return testing.AllocsPerRun(20, func() { m.Match(term) })
	}
	if small, large := allocs(1<<10), allocs(1<<14); small != large {
		t.Errorf("Match allocates %v times over 1k rows and %v over 16k", small, large)
	}
}

// RefMatch is the reference Match is checked against (see the differential
// in differential_test.go): the same metadata tags, then value tags found by
// checking every posting of the term's first token against its stored value
// and counted by refCountObjects' scan of every stored row.
func RefMatch(m *Matcher, t keyword.Term) []Tag {
	var tags []Tag
	for _, tg := range m.Match(t) {
		if tg.Kind != Value {
			tags = append(tags, tg)
		}
	}
	if t.Kind != keyword.Basic {
		return tags
	}
	toks := relation.Tokenize(t.Text)
	if len(toks) == 0 {
		return tags
	}
	type key struct{ rel, attr string }
	seen := make(map[key]bool)
	var order []key
	for _, p := range m.idx.LookupToken(toks[0]) {
		s, ok := m.data.Table(p.Relation).Value(p.Row, p.Attr).(string)
		k := key{strings.ToLower(p.Relation), strings.ToLower(p.Attr)}
		if ok && relation.ContainsFold(s, t.Text) && !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].rel != order[j].rel {
			return order[i].rel < order[j].rel
		}
		return order[i].attr < order[j].attr
	})
	for _, k := range order {
		for _, vs := range m.byData[k.rel] {
			node := m.graph.NodeOfRelation(vs.Name)
			if !vs.HasAttr(k.attr) || node == nil {
				continue
			}
			attr := vs.Attributes[vs.AttrIndex(k.attr)].Name
			tags = append(tags, Tag{Term: t.Text, Node: node.Name, Relation: vs.Name, Kind: Value,
				Attr: attr, NumObjects: refCountObjects(m, vs, attr, t.Text)})
		}
	}
	return tags
}

// refCountObjects counts the distinct objects of vs whose attribute attr
// contains term by scanning every stored row of the data source, telling
// objects apart by the AppendKey encoding of their primary-key values.
func refCountObjects(m *Matcher, vs *relation.Schema, attr, term string) int {
	tb := m.data.Table(m.SourceOf(vs.Name))
	if tb == nil {
		return 0
	}
	ai := tb.Schema.AttrIndex(attr)
	if ai < 0 {
		return 0
	}
	keyIdx := make([]int, 0, len(vs.PrimaryKey))
	for _, ka := range vs.PrimaryKey {
		ki := tb.Schema.AttrIndex(ka)
		if ki < 0 {
			return 0
		}
		keyIdx = append(keyIdx, ki)
	}
	seen := make(map[string]bool)
	var key []byte
	for _, tu := range tb.Tuples {
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
