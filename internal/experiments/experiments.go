// Package experiments encodes the paper's evaluation (Section 6): the TPCH
// workload T1-T8 (Table 3), the ACMDL workload A1-A8 (Table 4), runners that
// execute each query through both the semantic approach and the SQAK
// baseline, the expected answer shapes of Tables 5, 6, 8 and 9, and the
// SQL-generation timing series of Figure 11.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"kwagg/internal/core"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/dataset/university"
	"kwagg/internal/relation"
	"kwagg/internal/sqak"
	"kwagg/internal/sqldb"
)

// Shape describes the expected relationship between the two systems'
// answers for one query, as reported in the paper's result tables.
type Shape int

// Answer shapes.
const (
	// Agree: both systems return the same (correct) answer.
	Agree Shape = iota
	// OursPerObject: the semantic approach returns one answer per matching
	// object while SQAK merges them into fewer rows.
	OursPerObject
	// SQAKOvercounts: both return comparable rows but SQAK's counts are
	// inflated by duplicates of objects in relationships.
	SQAKOvercounts
	// SQAKNA: SQAK cannot express the query (self joins or more than one
	// aggregate expression).
	SQAKNA
)

// String names the shape as the paper's tables phrase it.
func (s Shape) String() string {
	switch s {
	case Agree:
		return "both correct"
	case OursPerObject:
		return "SQAK merges same-value objects"
	case SQAKOvercounts:
		return "SQAK counts relationship duplicates"
	case SQAKNA:
		return "SQAK N.A."
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// Query is one evaluation query.
type Query struct {
	ID          string
	Keywords    string
	Description string
	// PickFrags selects, among the ranked interpretations, the one matching
	// the paper's description: the first interpretation whose SQL contains
	// every fragment is used (the paper likewise uses "the generated SQL
	// statements that best match the query descriptions").
	PickFrags []string
	// Shape on the normalized database and on the unnormalized variant.
	Shape       Shape
	ShapeUnnorm Shape
}

// QueriesTPCH returns Table 3.
func QueriesTPCH() []Query {
	return []Query{
		{ID: "T1", Keywords: "order AVG amount",
			Description: "Find the average amount of orders",
			Shape:       Agree, ShapeUnnorm: SQAKOvercounts},
		{ID: "T2", Keywords: "MAX COUNT order GROUPBY nation",
			Description: "Find the maximum number of orders among nations",
			PickFrags:   []string{"MAX(", "COUNT("},
			Shape:       Agree, ShapeUnnorm: SQAKOvercounts},
		{ID: "T3", Keywords: `COUNT order "royal olive"`,
			Description: "Find the number of orders that contains the \"royal olive\"",
			PickFrags:   []string{"COUNT(", "GROUP BY", "partkey"},
			Shape:       OursPerObject, ShapeUnnorm: OursPerObject},
		{ID: "T4", Keywords: `supplier MAX acctbal "yellow tomato"`,
			Description: "Find the maximum balance of suppliers that supply the \"yellow tomato\"",
			PickFrags:   []string{"MAX(", "GROUP BY", "partkey"},
			Shape:       OursPerObject, ShapeUnnorm: OursPerObject},
		{ID: "T5", Keywords: `COUNT supplier "Indian black chocolate"`,
			Description: "Find the number of suppliers for \"Indian black chocolate\"",
			PickFrags:   []string{"COUNT(", "DISTINCT"},
			Shape:       SQAKOvercounts, ShapeUnnorm: SQAKOvercounts},
		{ID: "T6", Keywords: "COUNT part GROUPBY supplier",
			Description: "Find the number of parts supplied by each supplier",
			PickFrags:   []string{"COUNT(", "GROUP BY", "suppkey", "DISTINCT"},
			Shape:       SQAKOvercounts, ShapeUnnorm: SQAKOvercounts},
		{ID: "T7", Keywords: "COUNT order SUM amount GROUPBY mktsegment",
			Description: "Find the number of orders and their total amount for each market segment",
			PickFrags:   []string{"COUNT(", "SUM(", "GROUP BY", "mktsegment"},
			Shape:       SQAKNA, ShapeUnnorm: SQAKNA},
		{ID: "T8", Keywords: `COUNT supplier "pink rose" "white rose"`,
			Description: "Find the number of suppliers for \"pink rose\" and \"white rose\"",
			PickFrags:   []string{"COUNT(", "GROUP BY", "partkey"},
			Shape:       SQAKNA, ShapeUnnorm: SQAKNA},
	}
}

// QueriesACMDL returns Table 4.
func QueriesACMDL() []Query {
	return []Query{
		{ID: "A1", Keywords: "proceeding AVG pages",
			Description: "Find the average pages of proceedings",
			Shape:       Agree, ShapeUnnorm: SQAKOvercounts},
		{ID: "A2", Keywords: "COUNT paper GROUPBY proceeding SIGMOD",
			Description: "Find the number of papers in each 'SIGMOD' proceeding",
			PickFrags:   []string{"COUNT(", "GROUP BY", "procid"},
			Shape:       Agree, ShapeUnnorm: SQAKOvercounts},
		{ID: "A3", Keywords: "COUNT proceeding editor Smith",
			Description: "Find the number of proceedings edited by 'Smith'",
			PickFrags:   []string{"COUNT(", "GROUP BY", "editorid"},
			Shape:       OursPerObject, ShapeUnnorm: OursPerObject},
		{ID: "A4", Keywords: "paper MAX date Gill",
			Description: "Find the date of the latest papers written by 'Gill'",
			PickFrags:   []string{"MAX(", "GROUP BY", "authorid"},
			Shape:       OursPerObject, ShapeUnnorm: OursPerObject},
		{ID: "A5", Keywords: `COUNT author "database tuning"`,
			Description: "Find the number of authors for each \"database tuning\" paper",
			PickFrags:   []string{"COUNT(", "GROUP BY", "paperid"},
			Shape:       OursPerObject, ShapeUnnorm: OursPerObject},
		{ID: "A6", Keywords: "COUNT paper MAX date IEEE",
			Description: "Find the number of papers published by 'IEEE' and most recent date",
			PickFrags:   []string{"COUNT(", "MAX(", "GROUP BY", "publisherid"},
			Shape:       SQAKNA, ShapeUnnorm: SQAKNA},
		{ID: "A7", Keywords: "COUNT paper author John Mary",
			Description: "Find the number of papers co-authored by 'John' and 'Mary'",
			PickFrags:   []string{"COUNT(", "GROUP BY", "authorid"},
			Shape:       SQAKNA, ShapeUnnorm: SQAKNA},
		{ID: "A8", Keywords: "COUNT editor SIGIR CIKM",
			Description: "Find the number of editors that edit proceedings 'SIGIR' and 'CIKM'",
			PickFrags:   []string{"COUNT(", "GROUP BY", "procid"},
			Shape:       SQAKNA, ShapeUnnorm: SQAKNA},
	}
}

// Setup bundles the two systems over one database configuration.
type Setup struct {
	Label string
	Ours  *core.System
	SQAK  *sqak.System
	// Unnormalized selects which expected shape applies.
	Unnormalized bool
}

// NewTPCH builds the normalized TPCH setup.
func NewTPCH(cfg tpch.Config) (*Setup, error) {
	db := tpch.New(cfg)
	sys, err := core.Open(db, nil)
	if err != nil {
		return nil, err
	}
	return &Setup{Label: "TPCH", Ours: sys, SQAK: sqak.New(db)}, nil
}

// NewTPCHUnnormalized builds the TPCH' setup of Table 7 over the same data.
func NewTPCHUnnormalized(cfg tpch.Config) (*Setup, error) {
	db := tpch.Denormalize(tpch.New(cfg))
	sys, err := core.Open(db, &core.Options{NameHints: tpch.NameHints()})
	if err != nil {
		return nil, err
	}
	if !sys.Unnormalized() {
		return nil, errors.New("experiments: TPCH' not detected as unnormalized")
	}
	return &Setup{Label: "TPCH'", Ours: sys, SQAK: sqak.New(db), Unnormalized: true}, nil
}

// NewACMDL builds the normalized ACMDL setup.
func NewACMDL(cfg acmdl.Config) (*Setup, error) {
	db := acmdl.New(cfg)
	sys, err := core.Open(db, nil)
	if err != nil {
		return nil, err
	}
	return &Setup{Label: "ACMDL", Ours: sys, SQAK: sqak.New(db)}, nil
}

// NewACMDLUnnormalized builds the ACMDL' setup of Table 7 over the same data.
func NewACMDLUnnormalized(cfg acmdl.Config) (*Setup, error) {
	db := acmdl.Denormalize(acmdl.New(cfg))
	sys, err := core.Open(db, &core.Options{NameHints: acmdl.NameHints()})
	if err != nil {
		return nil, err
	}
	if !sys.Unnormalized() {
		return nil, errors.New("experiments: ACMDL' not detected as unnormalized")
	}
	return &Setup{Label: "ACMDL'", Ours: sys, SQAK: sqak.New(db), Unnormalized: true}, nil
}

// NewUniversity builds the running-example setup over Figure 1.
func NewUniversity() (*Setup, error) {
	db := university.New()
	sys, err := core.Open(db, nil)
	if err != nil {
		return nil, err
	}
	return &Setup{Label: "University", Ours: sys, SQAK: sqak.New(db)}, nil
}

// Row is one line of a Table 5/6/8/9-style comparison.
type Row struct {
	Query       Query
	OursSQL     string
	OursRows    int
	OursSample  []string
	SQAKErr     error
	SQAKSQL     string
	SQAKRows    int
	SQAKSample  []string
	ShapeWanted Shape
	ShapeOK     bool
	ShapeNote   string
}

// Run executes one query through both systems and validates the expected
// shape.
func (s *Setup) Run(q Query) (*Row, error) {
	row := &Row{Query: q, ShapeWanted: q.Shape}
	if s.Unnormalized {
		row.ShapeWanted = q.ShapeUnnorm
	}

	ours, err := s.Ours.BestAnswer(q.Keywords, 0, pickFrags(q.PickFrags))
	if err != nil {
		return nil, fmt.Errorf("experiments %s: semantic approach failed: %w", q.ID, err)
	}
	row.OursSQL = ours.SQL.String()
	row.OursRows = len(ours.Result.Rows)
	row.OursSample = sample(ours.Result, 4)

	sres, ssql, serr := s.SQAK.Answer(q.Keywords)
	if serr != nil {
		row.SQAKErr = serr
	} else {
		row.SQAKSQL = ssql.String()
		row.SQAKRows = len(sres.Rows)
		row.SQAKSample = sample(sres, 4)
	}

	row.ShapeOK, row.ShapeNote = validate(row.ShapeWanted, ours, sres, serr)
	return row, nil
}

func pickFrags(frags []string) func(core.Interpretation) bool {
	if len(frags) == 0 {
		return nil
	}
	return func(in core.Interpretation) bool {
		sql := in.SQL.String()
		for _, f := range frags {
			if !strings.Contains(sql, f) {
				return false
			}
		}
		return true
	}
}

func sample(r *sqldb.Result, n int) []string {
	var out []string
	for i, row := range r.Rows {
		if i >= n {
			out = append(out, "...")
			break
		}
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = relation.Format(v)
		}
		out = append(out, strings.Join(parts, ","))
	}
	return out
}

// lastNumeric extracts the last column of each row as float (the aggregate
// value in every generated statement).
func lastNumeric(r *sqldb.Result) []float64 {
	var out []float64
	for _, row := range r.Rows {
		if f, ok := relation.AsFloat(row[len(row)-1]); ok {
			out = append(out, f)
		}
	}
	return out
}

func validate(shape Shape, ours *core.Answer, sres *sqldb.Result, serr error) (bool, string) {
	switch shape {
	case SQAKNA:
		if serr == nil {
			return false, "expected SQAK N.A. but it produced a statement"
		}
		return true, fmt.Sprintf("SQAK: %v", serr)
	case Agree:
		if serr != nil {
			return false, fmt.Sprintf("SQAK unexpectedly failed: %v", serr)
		}
		if !sameResults(ours.Result, sres) {
			return false, "answers differ but should agree"
		}
		return true, "answers agree"
	case OursPerObject:
		if serr != nil {
			return false, fmt.Sprintf("SQAK unexpectedly failed: %v", serr)
		}
		if len(ours.Result.Rows) <= len(sres.Rows) {
			return false, fmt.Sprintf("want more per-object answers than SQAK (%d vs %d)",
				len(ours.Result.Rows), len(sres.Rows))
		}
		return true, fmt.Sprintf("%d per-object answers vs SQAK's %d merged", len(ours.Result.Rows), len(sres.Rows))
	case SQAKOvercounts:
		if serr != nil {
			return false, fmt.Sprintf("SQAK unexpectedly failed: %v", serr)
		}
		ovals, svals := lastNumeric(ours.Result), lastNumeric(sres)
		if len(ovals) == 0 || len(svals) == 0 {
			return false, "missing aggregate values"
		}
		if maxOf(svals) <= maxOf(ovals) && sumOf(svals) <= sumOf(ovals) {
			return false, fmt.Sprintf("SQAK should overcount: ours max %.2f vs SQAK max %.2f",
				maxOf(ovals), maxOf(svals))
		}
		return true, fmt.Sprintf("SQAK inflates: ours max %.2f, SQAK max %.2f", maxOf(ovals), maxOf(svals))
	default:
		return false, "unknown shape"
	}
}

func sameResults(a, b *sqldb.Result) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	key := func(r *sqldb.Result) []string {
		var ks []string
		for _, row := range r.Rows {
			// Compare only the final aggregate column: the two systems may
			// display different context columns.
			ks = append(ks, relation.Format(row[len(row)-1]))
		}
		return ks
	}
	ka, kb := key(a), key(b)
	used := make([]bool, len(kb))
	for _, x := range ka {
		found := false
		for j, y := range kb {
			if !used[j] && x == y {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Timing is one Figure 11 data point: the time each system needs to
// generate SQL for a query (execution excluded), plus — supporting the
// paper's closing argument that SQL execution dominates — the time to
// execute the chosen statement.
type Timing struct {
	Query    Query
	Ours     time.Duration
	SQAK     time.Duration
	SQAKNote string
	// OursExec is the execution time of the interpretation matching the
	// query description; zero unless measured with TimeExecution.
	OursExec time.Duration
}

// TimeGeneration measures SQL-generation time for every query, averaging
// over reps runs (Figure 11).
func (s *Setup) TimeGeneration(queries []Query, reps int) ([]Timing, error) {
	if reps <= 0 {
		reps = 5
	}
	var out []Timing
	for _, q := range queries {
		t := Timing{Query: q}
		start := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := s.Ours.Interpret(q.Keywords, 0); err != nil {
				return nil, fmt.Errorf("experiments %s: %w", q.ID, err)
			}
		}
		t.Ours = time.Since(start) / time.Duration(reps)
		start = time.Now()
		for i := 0; i < reps; i++ {
			if _, err := s.SQAK.Translate(q.Keywords); err != nil {
				t.SQAKNote = err.Error()
			}
		}
		t.SQAK = time.Since(start) / time.Duration(reps)
		out = append(out, t)
	}
	return out, nil
}

// TimeExecution measures, for every query, the execution time of the
// semantic interpretation the harness selects (the Figure 11 discussion:
// generation overhead is small relative to execution).
func (s *Setup) TimeExecution(queries []Query, reps int) ([]Timing, error) {
	if reps <= 0 {
		reps = 3
	}
	ts, err := s.TimeGeneration(queries, reps)
	if err != nil {
		return nil, err
	}
	for i, q := range queries {
		a, err := s.Ours.BestAnswer(q.Keywords, 0, pickFrags(q.PickFrags))
		if err != nil {
			return nil, fmt.Errorf("experiments %s: %w", q.ID, err)
		}
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, _, err := sqldb.ExecOpts(context.Background(), s.Ours.Data, a.SQL, sqldb.ExecConfig{}); err != nil {
				return nil, err
			}
		}
		ts[i].OursExec = time.Since(start) / time.Duration(reps)
	}
	return ts, nil
}
