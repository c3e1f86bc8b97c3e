// Differential suite for shard-parallel execution: every statement must
// produce a Result identical to the single-shard batch path — row order and
// rendered bytes included, NOT sorted first — under shard-parallel drivers
// forced onto many small shards. This is the ordering guarantee the memo,
// the query cache and the epoch-swap byte-identity test lean on.
package sqldb_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"kwagg"
	"kwagg/internal/dataset/acmdl"
	"kwagg/internal/dataset/tpch"
	"kwagg/internal/experiments"
	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
	"kwagg/internal/sqldb"
)

// shardConfigs are the shard-parallel shapes each statement is replayed
// under: many one-block shards (maximum merge pressure), fewer wider shards,
// and the default morsel size (usually one shard on test data — the
// degenerate case must also agree).
var shardConfigs = []sqldb.ExecConfig{
	{Shards: 4, ShardRows: relation.BlockSize},
	{Shards: 8, ShardRows: 2 * relation.BlockSize},
	{Shards: 4},
}

// diffSharded executes one statement single-shard and under every shard
// config, requiring unsorted row-for-row and byte-for-byte equality.
func diffSharded(t *testing.T, db *relation.Database, label string, q *sqlast.Query) {
	t.Helper()
	want, err := execQuery(db, q)
	if err != nil {
		t.Fatalf("%s: batch exec: %v", label, err)
	}
	for _, cfg := range shardConfigs {
		got, _, err := sqldb.ExecOpts(context.Background(), db, q, cfg)
		if err != nil {
			t.Fatalf("%s: sharded exec (%+v): %v", label, cfg, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: sharded (%+v) diverged from single-shard (row order included):\nSQL: %s\nwant: %+v\ngot:  %+v",
				label, cfg, q, want, got)
		}
		if w, g := want.String(), got.String(); w != g {
			t.Errorf("%s: rendered answer bytes differ (%+v):\nwant:\n%s\ngot:\n%s", label, cfg, w, g)
		}
	}
}

// shardDiffDB builds a synthetic frozen database spanning several one-block
// shards under the test override: NULLs, the literal string "NULL", float
// columns with NULL holes, low- and high-cardinality keys, and a join table
// whose keys partially miss — the shapes the parallel filter, probe and
// group merge must not reorder or miscount.
func shardDiffDB() *relation.Database {
	db := relation.NewDatabase("sharddiff")
	n := 4*relation.BlockSize + 517
	s := db.AddSchema(relation.NewSchema("Student", "Sid INT", "Name", "Dept", "Age INT", "Gpa FLOAT").Key("Sid"))
	for i := 0; i < n; i++ {
		var name relation.Value = fmt.Sprintf("name%03d", i%523)
		switch i % 97 {
		case 13:
			name = nil
		case 29:
			name = "NULL"
		}
		var age relation.Value = int64(18 + i%9)
		if i%61 == 7 {
			age = nil
		}
		var gpa relation.Value = float64(i%40) / 10
		if i%53 == 11 {
			gpa = nil
		}
		s.MustInsert(int64(i), name, fmt.Sprintf("dept%d", i%7), age, gpa)
	}
	m := 2*relation.BlockSize + 39
	e := db.AddSchema(relation.NewSchema("Enrol", "Sid INT", "Course", "Grade INT").Key("Sid", "Course"))
	for i := 0; i < m; i++ {
		var sid relation.Value = int64((i * 13) % (n + 200)) // some keys miss Student
		if i%71 == 3 {
			sid = nil
		}
		e.MustInsert(sid, fmt.Sprintf("c%02d", i%37), int64(i%101))
	}
	db.Freeze()
	return db
}

func TestShardDifferentialSynthetic(t *testing.T) {
	db := shardDiffDB()
	for _, sql := range []string{
		// Parallel filter fill: int equality, float equality (dictionary-ID
		// path), the NULL vs "NULL" trap, CONTAINS keep-bitset.
		"SELECT S.Sid FROM Student S WHERE S.Age = 21",
		"SELECT S.Sid FROM Student S WHERE S.Gpa = 1.5",
		"SELECT S.Sid FROM Student S WHERE S.Name = 'NULL'",
		"SELECT S.Sid FROM Student S WHERE S.Name CONTAINS 'ame04'",
		// Parallel probe: big probe side, NULL keys on both sides, misses.
		"SELECT S.Name, E.Course FROM Student S, Enrol E WHERE S.Sid = E.Sid",
		"SELECT COUNT(E.Course) AS n FROM Student S, Enrol E WHERE S.Sid = E.Sid",
		// Parallel group merge: 1 and 2 keys, every aggregate, NULL group
		// keys, DISTINCT aggregates, float SUM/AVG (association-sensitive).
		"SELECT S.Dept, COUNT(S.Sid) AS n, SUM(S.Gpa) AS sg, AVG(S.Gpa) AS ag, MIN(S.Age) AS mn, MAX(S.Age) AS mx FROM Student S GROUP BY S.Dept",
		"SELECT S.Dept, S.Age, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Dept, S.Age",
		"SELECT S.Age, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Age",
		"SELECT S.Dept, COUNT(DISTINCT S.Age) AS d, SUM(DISTINCT S.Gpa) AS sd FROM Student S GROUP BY S.Dept",
		"SELECT AVG(S.Gpa) AS a FROM Student S",
		"SELECT S.Name, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Name",
		// Grouped join output (derived rowset: strided kernels).
		"SELECT S.Dept, AVG(E.Grade) AS g FROM Student S, Enrol E WHERE S.Sid = E.Sid GROUP BY S.Dept",
		"SELECT C.Course, COUNT(C.Sid) AS n FROM (SELECT DISTINCT Sid, Course FROM Enrol) C GROUP BY C.Course",
		// DISTINCT projection and ORDER BY stability over the parallel output.
		"SELECT DISTINCT S.Dept FROM Student S",
		"SELECT S.Sid, S.Gpa FROM Student S WHERE S.Dept = 'dept3' ORDER BY Gpa LIMIT 10",
		// Empty results must stay shape-identical (nil rows, not empty).
		"SELECT S.Name, E.Course FROM Student S, Enrol E WHERE S.Sid = E.Sid AND S.Age = 99",
		"SELECT S.Sid FROM Student S WHERE S.Age = 99",
	} {
		q, err := sqldb.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		diffSharded(t, db, sql, q)
	}
}

// TestShardDifferentialDatasetWorkloads replays every bundled dataset
// workload interpretation under the shard-parallel configs and requires
// unsorted row- and byte-identity with the single-shard batch path — the
// acceptance bar for the shard-parallel engine.
func TestShardDifferentialDatasetWorkloads(t *testing.T) {
	setups := map[string]func() (*experiments.Setup, error){
		"university":   experiments.NewUniversity,
		"tpch":         func() (*experiments.Setup, error) { return experiments.NewTPCH(tpch.Small()) },
		"tpch-denorm":  func() (*experiments.Setup, error) { return experiments.NewTPCHUnnormalized(tpch.Small()) },
		"acmdl":        func() (*experiments.Setup, error) { return experiments.NewACMDL(acmdl.Small()) },
		"acmdl-denorm": func() (*experiments.Setup, error) { return experiments.NewACMDLUnnormalized(acmdl.Small()) },
	}
	for name, queries := range kwagg.DatasetWorkloads() {
		build, ok := setups[name]
		if !ok {
			t.Fatalf("workload %q has no shard-differential setup — extend the map", name)
		}
		name, queries := name, queries
		t.Run(name, func(t *testing.T) {
			s, err := build()
			if err != nil {
				t.Fatal(err)
			}
			interpretations := 0
			for _, kw := range queries {
				ins, err := s.Ours.Interpret(kw, 0)
				if err != nil {
					t.Fatalf("%s: %v", kw, err)
				}
				for _, in := range ins {
					diffSharded(t, s.Ours.Data, name+"/"+kw, in.SQL)
					interpretations++
				}
			}
			t.Logf("%s: %d interpretations compared sharded vs single-shard", name, interpretations)
		})
	}
}
