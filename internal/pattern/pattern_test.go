package pattern

import (
	"strings"
	"testing"

	"kwagg/internal/dataset/university"
	"kwagg/internal/keyword"
	"kwagg/internal/match"
	"kwagg/internal/orm"
	"kwagg/internal/sqlast"
)

func uniGenerator(t *testing.T) *Generator {
	t.Helper()
	db := university.New()
	g, err := orm.Build(db.Schemas())
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return NewGenerator(match.New(db, db.Schemas(), g, nil))
}

func generate(t *testing.T, gen *Generator, query string) []*Pattern {
	t.Helper()
	q, err := keyword.Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := gen.Generate(q)
	if err != nil {
		t.Fatal(err)
	}
	return ps
}

// classesOf returns the multiset of node classes as a sorted-ish signature.
func classesOf(p *Pattern) map[string]int {
	out := make(map[string]int)
	for _, n := range p.Nodes {
		out[n.Class]++
	}
	return out
}

func findPattern(t *testing.T, ps []*Pattern, pred func(*Pattern) bool) *Pattern {
	t.Helper()
	for _, p := range ps {
		if pred(p) {
			return p
		}
	}
	var all []string
	for _, p := range ps {
		all = append(all, p.String())
	}
	t.Fatalf("no pattern matches predicate; got:\n%s", strings.Join(all, "\n"))
	return nil
}

// TestFigure4Shape reproduces Figure 4: {Green George Code} yields a pattern
// with two Student nodes, two Enrol nodes and one shared Course node.
func TestFigure4Shape(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green George Code")
	p := findPattern(t, ps, func(p *Pattern) bool {
		c := classesOf(p)
		return c["Student"] == 2 && c["Enrol"] == 2 && c["Course"] == 1 && len(p.Nodes) == 5
	})
	if len(p.Edges) != 4 {
		t.Errorf("Figure 4 has 4 edges, got %d", len(p.Edges))
	}
	// Both Student nodes carry their value conditions.
	conds := map[string]bool{}
	for _, n := range p.Nodes {
		if n.HasCond() {
			conds[n.CondTerm] = true
		}
	}
	if !conds["Green"] || !conds["George"] {
		t.Errorf("conditions: %v", conds)
	}
}

// TestExample1Annotation: {Green George COUNT Code} annotates the Course
// node with COUNT(Code) (pattern P1 of Figure 5).
func TestExample1Annotation(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green George COUNT Code")
	p := findPattern(t, ps, func(p *Pattern) bool {
		for _, n := range p.Nodes {
			if n.Class == "Course" && len(n.Aggs) == 1 &&
				n.Aggs[0].Func == sqlast.AggCount && n.Aggs[0].Ref.Attr == "Code" {
				return true
			}
		}
		return false
	})
	_ = p
}

// TestExample2Annotation: {COUNT Lecturer GROUPBY Course} annotates
// Lecturer with COUNT(Lid) and Course with GROUPBY(Code) (pattern P2).
func TestExample2Annotation(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "COUNT Lecturer GROUPBY Course")
	findPattern(t, ps, func(p *Pattern) bool {
		okL, okC := false, false
		for _, n := range p.Nodes {
			if n.Class == "Lecturer" && len(n.Aggs) == 1 && n.Aggs[0].Ref.Attr == "Lid" {
				okL = true
			}
			if n.Class == "Course" && len(n.GroupBys) == 1 && n.GroupBys[0].Attr == "Code" {
				okC = true
			}
		}
		return okL && okC && classesOf(p)["Teach"] == 1
	})
}

// TestExample3Disambiguation: the condition Sname=Green matches two students,
// so a GROUPBY(Sid) copy is generated (pattern P3 of Figure 6); George
// matches one student only and is never disambiguated on the Student node.
func TestExample3Disambiguation(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green George COUNT Code")
	var plain, disamb *Pattern
	for _, p := range ps {
		greenDis, georgeDis := false, false
		student := false
		for _, n := range p.Nodes {
			if n.Class != "Student" {
				continue
			}
			student = true
			if n.CondTerm == "Green" && n.Disamb {
				greenDis = true
			}
			if n.CondTerm == "George" && n.Disamb {
				georgeDis = true
			}
		}
		if !student {
			continue
		}
		if georgeDis {
			t.Fatalf("George matches a single student and must not fork: %s", p)
		}
		if greenDis {
			disamb = p
		} else if plain == nil && classesOf(p)["Student"] == 2 {
			plain = p
		}
	}
	if disamb == nil || plain == nil {
		t.Fatal("both the distinguishing and the merged interpretation must exist")
	}
	// The distinguishing copy ranks first (the paper reports it as the
	// best-match answer).
	if ps[0].DisambCount() == 0 {
		t.Errorf("top pattern should be disambiguated, got %s", ps[0])
	}
}

// TestContextMerging: {Lecturer George} merges the value term into the
// preceding relation-name node, yielding a single Lecturer node.
func TestContextMerging(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Lecturer George")
	p := ps[0]
	c := classesOf(p)
	if c["Lecturer"] != 1 || len(p.Nodes) != 1 {
		t.Fatalf("context should merge into one Lecturer node: %s", p)
	}
	if p.Nodes[0].CondTerm != "George" {
		t.Errorf("merged node should carry the condition: %s", p)
	}
}

// TestAttrReuse: {order AVG amount}-style queries reuse the node created by
// the relation-name term for the attribute term.
func TestAttrReuse(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Course AVG Credit")
	p := ps[0]
	if len(p.Nodes) != 1 || p.Nodes[0].Class != "Course" {
		t.Fatalf("single Course node expected: %s", p)
	}
	if len(p.Nodes[0].Aggs) != 1 || p.Nodes[0].Aggs[0].Func != sqlast.AggAvg {
		t.Errorf("AVG annotation missing: %s", p)
	}
}

// TestNestedAnnotation: {AVG COUNT Lecturer GROUPBY Course} records AVG as a
// nested aggregate (Figure 7).
func TestNestedAnnotation(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "AVG COUNT Lecturer GROUPBY Course")
	p := ps[0]
	if len(p.Nested) != 1 || p.Nested[0] != sqlast.AggAvg {
		t.Errorf("Nested = %v", p.Nested)
	}
}

// TestSelfJoinConnection: two value terms on the same class connect through
// a shared neighbour with fresh relationship instances (no FK reuse).
func TestSelfJoinConnection(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, `COUNT Lecturer "Programming Language" "Discrete Mathematics"`)
	findPattern(t, ps, func(p *Pattern) bool {
		c := classesOf(p)
		return c["Textbook"] == 2 && c["Teach"] == 2 && c["Lecturer"] == 1
	})
}

// TestRankingPrefersFewerNodes: for {George Code}, the Student reading
// (Student-Enrol-Course, 2 object nodes) outranks the Lecturer reading
// (Lecturer-Teach-Course with more object/mixed nodes on the path).
func TestRankingPrefersFewerNodes(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "George Code")
	if len(ps) < 2 {
		t.Fatalf("expected both readings, got %d", len(ps))
	}
	counts := make([]int, len(ps))
	for i, p := range ps {
		counts[i] = p.ObjectMixedCount()
	}
	for i := 1; i < len(counts); i++ {
		if counts[i-1] > counts[i] {
			t.Errorf("patterns not ordered by object/mixed count: %v", counts)
		}
	}
}

// TestRankingPrefersMetadata: reading "Lecturer" as the relation name beats
// reading it as a value (ValueTerms ordering).
func TestRankingPrefersMetadata(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Course GROUPBY Lecturer COUNT Code")
	if ps[0].ValueTerms != 0 {
		t.Errorf("top pattern should use no value tags: %s", ps[0])
	}
}

func TestUnmatchedTermFails(t *testing.T) {
	gen := uniGenerator(t)
	q, err := keyword.Parse("zzznothing COUNT Code")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(q); err == nil {
		t.Error("unmatched term should fail generation")
	}
}

// TestOperatorOnValueRejected: an aggregate whose operand resolves only to a
// value term has no valid interpretation.
func TestOperatorOnValueRejected(t *testing.T) {
	gen := uniGenerator(t)
	q, err := keyword.Parse("SUM Green")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(q); err == nil {
		t.Error("SUM over a pure value term should have no interpretation")
	}
}

// TestMinOverRelationNameRejected: MIN/MAX/AVG/SUM require an attribute;
// only COUNT accepts a relation name.
func TestMinOverRelationNameRejected(t *testing.T) {
	gen := uniGenerator(t)
	q, err := keyword.Parse("MIN Student")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Generate(q); err == nil {
		t.Error("MIN over a relation name should be rejected")
	}
	// COUNT over a relation name is fine and counts identifiers.
	ps := generate(t, gen, "COUNT Student GROUPBY Course")
	found := false
	for _, n := range ps[0].Nodes {
		for _, a := range n.Aggs {
			if a.Func == sqlast.AggCount && a.Ref.Attr == "Sid" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("COUNT Student should count Sid: %s", ps[0])
	}
}

func TestCanonicalDeduplication(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green SUM Credit")
	seen := map[string]bool{}
	for _, p := range ps {
		key := p.Canonical()
		if seen[key] {
			t.Fatalf("duplicate pattern surfaced: %s", p)
		}
		seen[key] = true
	}
}

func TestCloneIndependence(t *testing.T) {
	gen := uniGenerator(t)
	p := generate(t, gen, "Green SUM Credit")[0]
	c := p.Clone()
	c.Nodes[0].GroupBys = append(c.Nodes[0].GroupBys, AttrRef{Relation: "X", Attr: "Y"})
	c.Nodes[0].CondTerm = "changed"
	if p.Nodes[0].CondTerm == "changed" {
		t.Error("Clone shares node state")
	}
	for _, g := range p.Nodes[0].GroupBys {
		if g.Relation == "X" {
			t.Error("Clone shares GroupBys slice")
		}
	}
}

func TestAggAliasNames(t *testing.T) {
	cases := map[AggAnnot]string{
		{Func: sqlast.AggCount, Ref: AttrRef{Attr: "Lid"}}:   "numLid",
		{Func: sqlast.AggSum, Ref: AttrRef{Attr: "Credit"}}:  "sumCredit",
		{Func: sqlast.AggAvg, Ref: AttrRef{Attr: "pages"}}:   "avgpages",
		{Func: sqlast.AggMin, Ref: AttrRef{Attr: "date"}}:    "mindate",
		{Func: sqlast.AggMax, Ref: AttrRef{Attr: "acctbal"}}: "maxacctbal",
	}
	for a, want := range cases {
		if a.Alias() != want {
			t.Errorf("Alias(%v) = %q, want %q", a, a.Alias(), want)
		}
	}
}

func TestDescribeMentionsEverything(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green SUM Credit")
	d := ps[0].Describe()
	for _, frag := range []string{"SUM", "Green"} {
		if !strings.Contains(d, frag) {
			t.Errorf("Describe missing %q: %s", frag, d)
		}
	}
}

// TestSumOverNonNumericRejected: SUM/AVG interpretations over VARCHAR
// attributes are invalid (e.g. {SUM Grade}); MIN/MAX remain valid since
// strings and dates are ordered.
func TestSumOverNonNumericRejected(t *testing.T) {
	gen := uniGenerator(t)
	for _, q := range []string{"SUM Grade", "AVG Sname Student"} {
		kq, err := keyword.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := gen.Generate(kq); err == nil {
			t.Errorf("Generate(%q) should reject non-numeric SUM/AVG", q)
		}
	}
	// MAX over a string attribute is fine.
	ps := generate(t, gen, "MAX Sname Student")
	if len(ps) == 0 {
		t.Fatal("MAX over strings should be valid")
	}
}

// TestDisambiguationAblationFlag: the generator flag suppresses forking.
func TestDisambiguationAblationFlag(t *testing.T) {
	gen := uniGenerator(t)
	gen.DisableDisambiguation = true
	ps := generate(t, gen, "Green SUM Credit")
	for _, p := range ps {
		if p.DisambCount() != 0 {
			t.Fatalf("flag set, yet disambiguated pattern produced: %s", p)
		}
	}
}

// TestDotOutput renders a pattern as DOT and checks the annotations appear.
func TestDotOutput(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green SUM Credit")
	dot := ps[0].Dot()
	for _, frag := range []string{"graph pattern {", "SUM(Credit)", "Sname=Green", " -- "} {
		if !strings.Contains(dot, frag) {
			t.Errorf("Dot missing %q:\n%s", frag, dot)
		}
	}
}

// TestTiedAttachmentsBranch: when a new node can attach to two existing
// nodes at the same distance, both topologies are generated. Steven and
// George (read as lecturers) are equidistant from a Database textbook: the
// book may be linked to either lecturer's teaching.
func TestTiedAttachmentsBranch(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, `Steven George "Discrete Mathematics"`)
	// Among the interpretations with two Lecturer nodes, the Textbook must
	// attach to Steven's side in one pattern and George's side in another.
	sides := map[string]bool{}
	for _, p := range ps {
		var lects, books []*Node
		for _, n := range p.Nodes {
			switch n.Class {
			case "Lecturer":
				lects = append(lects, n)
			case "Textbook":
				books = append(books, n)
			}
		}
		if len(lects) != 2 || len(books) != 1 {
			continue
		}
		// Which lecturer is two hops from the book?
		for _, l := range lects {
			if p.distance(books[0].ID, l.ID) == 2 && l.HasCond() {
				sides[l.CondTerm] = true
			}
		}
	}
	if !sides["Steven"] || !sides["George"] {
		t.Errorf("both attachment topologies should exist, got %v", sides)
	}
}

// TestAvgTargetConditionDistance: Example-5-style patterns measure the
// distance between the aggregate target and the condition nodes.
func TestAvgTargetConditionDistance(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green COUNT Code")
	p := findPattern(t, ps, func(p *Pattern) bool {
		for _, n := range p.Nodes {
			if n.Class == "Course" && n.IsTarget() && p.DisambCount() > 0 {
				return true
			}
		}
		return false
	})
	// Student (condition) to Course (target) is 2 hops via Enrol; the
	// grouped Student node is both condition and target-adjacent, so the
	// average is 2.
	if d := p.AvgTargetConditionDistance(); d != 2 {
		t.Errorf("avg distance = %v, want 2 (Student-Enrol-Course)", d)
	}
	// Patterns without operators have no targets: distance 0.
	plain := generate(t, gen, "Green Code")[0]
	if d := plain.AvgTargetConditionDistance(); d != 0 {
		t.Errorf("no-target distance = %v", d)
	}
}

// TestRankingDistanceTieBreak: with node counts equal, shorter
// target-condition distance ranks first.
func TestRankingDistanceTieBreak(t *testing.T) {
	gen := uniGenerator(t)
	ps := generate(t, gen, "Green COUNT Code")
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1], ps[i]
		if a.ObjectMixedCount() == b.ObjectMixedCount() &&
			a.ValueTerms == b.ValueTerms &&
			a.AvgTargetConditionDistance() > b.AvgTargetConditionDistance() &&
			a.DisambCount() == b.DisambCount() {
			t.Errorf("distance ordering violated between #%d and #%d", i-1, i)
		}
	}
}
