package sqldb_test

import (
	"reflect"
	"strings"
	"testing"

	"kwagg"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/sqldb"
)

// explainSetups builds each kwagg.DatasetWorkloads dataset at its default
// scale, where a CONTAINS filter often shrinks a source below one that is
// smaller unfiltered, so orders read off unfiltered sizes differ.
var explainSetups = map[string]func() (*experiments.Setup, error){
	"university":   experiments.NewUniversity,
	"tpch":         func() (*experiments.Setup, error) { return experiments.NewTPCH(tpch.Default()) },
	"tpch-denorm":  func() (*experiments.Setup, error) { return experiments.NewTPCHUnnormalized(tpch.Default()) },
	"acmdl":        func() (*experiments.Setup, error) { return experiments.NewACMDL(acmdl.Default()) },
	"acmdl-denorm": func() (*experiments.Setup, error) { return experiments.NewACMDLUnnormalized(acmdl.Default()) },
}

// TestExplainJoinOrderMatchesExec replays every bundled dataset workload and
// checks, for each interpretation, that Explain's start source and join
// steps are the order ExecOpts joins in. Explain orders the sources by their
// sizes after local filters and semi-join pushes, as the executor does: TPCH
// T4's third interpretation (seed 42) starts from the 13 Part rows its
// CONTAINS keeps, not from the Supplier scan, which is smaller unfiltered.
func TestExplainJoinOrderMatchesExec(t *testing.T) {
	for name, queries := range kwagg.DatasetWorkloads() {
		build, ok := explainSetups[name]
		if !ok {
			t.Fatalf("workload %q has no setup — extend explainSetups", name)
		}
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			for _, kw := range queries {
				ins, err := s.Ours.Interpret(kw, 0)
				if err != nil {
					t.Fatalf("%s: %v", kw, err)
				}
				for i, in := range ins {
					plan, err := sqldb.Explain(s.Ours.Data, in.SQL)
					if err != nil {
						t.Fatalf("%s #%d: explain: %v", kw, i+1, err)
					}
					planned := []string{plan.Start}
					for _, st := range plan.Steps {
						planned = append(planned, st.Alias)
					}
					ran, err := sqldb.ExecJoinOrder(s.Ours.Data, in.SQL)
					if err != nil {
						t.Fatalf("%s #%d: exec: %v", kw, i+1, err)
					}
					if !reflect.DeepEqual(planned, ran) {
						t.Errorf("%s #%d: Explain orders %v, ExecOpts joins %v\nSQL: %s\n%s",
							kw, i+1, planned, ran, in.SQL, plan)
					}
				}
			}
		})
	}
}

// TestExplainAccessMatchesExec replays every bundled dataset workload and
// checks, for each interpretation, that Explain's access tags are the paths
// execution took: every join step's [value index] (which Explain predicts
// for the outermost query's joins without running them) against the path
// each join ran, and every pushed filter's and semi-join push's
// [index lookup] or [scan], which both record as the filter runs.
func TestExplainAccessMatchesExec(t *testing.T) {
	tags := 0
	for name, queries := range kwagg.DatasetWorkloads() {
		build, ok := explainSetups[name]
		if !ok {
			t.Fatalf("workload %q has no setup — extend explainSetups", name)
		}
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for _, kw := range queries {
			ins, err := s.Ours.Interpret(kw, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", name, kw, err)
			}
			for i, in := range ins {
				plan, err := sqldb.Explain(s.Ours.Data, in.SQL)
				if err != nil {
					t.Fatalf("%s %s #%d: explain: %v", name, kw, i+1, err)
				}
				ran, err := sqldb.ExecPlan(s.Ours.Data, in.SQL)
				if err != nil {
					t.Fatalf("%s %s #%d: exec: %v", name, kw, i+1, err)
				}
				if got, want := plan.String(), ran.String(); got != want {
					t.Errorf("%s %s #%d: Explain prints\n%s\nexecution ran\n%s", name, kw, i+1, got, want)
				}
				tags += strings.Count(plan.String(), " [")
			}
		}
	}
	if tags == 0 {
		t.Fatal("no access tags printed")
	}
}
