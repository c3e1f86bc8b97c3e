// Differential suite for the shared-subplan memo: executing every workload
// interpretation twice through one shared memo — the second pass served
// largely from cached fragments — must produce the same sorted rows as the
// brute-force reference evaluator (see refDiff).
package sqldb_test

import (
	"context"
	"testing"

	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/sqldb"
)

func diffQueriesMemo(t *testing.T, s *experiments.Setup, queries []experiments.Query) {
	t.Helper()
	m := sqldb.NewMemo(1 << 22)
	ctx := context.Background()
	hits := 0
	for pass := 0; pass < 2; pass++ {
		for _, q := range queries {
			ins, err := s.Ours.Interpret(q.Keywords, 0)
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, q.Keywords, err)
			}
			for i, in := range ins {
				memoed, st, err := sqldb.ExecOpts(ctx, s.Ours.Data, in.SQL, sqldb.ExecConfig{Memo: m})
				if err != nil {
					t.Fatalf("%s interpretation %d: memo exec: %v", q.ID, i, err)
				}
				hits += st.Hits
				want, err := sqldb.RefExec(s.Ours.Data, in.SQL)
				if err != nil {
					t.Fatalf("%s interpretation %d: reference: %v", q.ID, i, err)
				}
				if d := sqldb.RefDiff(memoed, want); d != "" {
					t.Errorf("%s interpretation %d pass %d diverged:\nSQL: %s\n%s", q.ID, i, pass, in.SQL, d)
				}
			}
		}
	}
	if hits == 0 {
		t.Errorf("%s: no memo hits across two passes of the workload", s.Label)
	}
	t.Logf("%s: %d memo hits, %d fragments cached (%d cells)", s.Label, hits, m.Len(), m.UsedCells())
}

func TestDifferentialMemoUniversity(t *testing.T) {
	s, err := experiments.NewUniversity()
	if err != nil {
		t.Fatal(err)
	}
	diffQueriesMemo(t, s, []experiments.Query{
		{ID: "U1", Keywords: "Green SUM Credit"},
		{ID: "U2", Keywords: "COUNT Student GROUPBY Course"},
		{ID: "U3", Keywords: "AVG Credit"},
		{ID: "U5", Keywords: "COUNT Lecturer GROUPBY Department"},
	})
}

func TestDifferentialMemoTPCH(t *testing.T) {
	s, err := experiments.NewTPCH(tpch.Small())
	if err != nil {
		t.Fatal(err)
	}
	diffQueriesMemo(t, s, experiments.QueriesTPCH())
}
