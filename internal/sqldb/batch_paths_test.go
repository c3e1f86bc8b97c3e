package sqldb

import (
	"context"
	"testing"

	"kwagg/internal/relation"
)

// threeWayBlocks runs sql over the multi-block frozen database three ways —
// single-shard, shard-parallel over one-block shards, and the brute-force
// reference evaluator — and requires the two executions to agree row for row
// (order included) and the reference to agree on the sorted rows (see
// refDiff).
func threeWayBlocks(t *testing.T, sql string) {
	t.Helper()
	db := fuzzBlockDB()
	q, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	single, _, err := ExecOpts(context.Background(), db, q, ExecConfig{})
	if err != nil {
		t.Fatalf("single-shard: %v", err)
	}
	sharded, _, err := ExecOpts(context.Background(), db, q, ExecConfig{Shards: 4, ShardRows: relation.BlockSize})
	if err != nil {
		t.Fatalf("sharded: %v", err)
	}
	reference, err := refExec(db, q)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	if single.String() != sharded.String() {
		t.Errorf("sharded diverged from single-shard:\n%s\nsingle:\n%s\nsharded:\n%s", sql, single, sharded)
	}
	if d := refDiff(single, reference); d != "" {
		t.Errorf("executor diverged from reference:\n%s\n%s", sql, d)
	}
}

// TestBatchOperatorPathsThreeWay drives the executor paths the workload
// suites don't reach onto multi-block inputs, each run three ways (see
// threeWayBlocks): the packed 3-key join, the map-slot grouping ladder rung
// (high-cardinality key on a small filtered input), COUNT over a
// NULL-carrying column (boxed NULL checks, on base scans and derived
// rowsets) and over a NULL-free one (the group-size shortcut, on a derived
// rowset), DISTINCT's ladder, ORDER BY + LIMIT over grouped output, and the
// per-entry CONTAINS kernel on a column holding NULLs.
func TestBatchOperatorPathsThreeWay(t *testing.T) {
	for name, sql := range map[string]string{
		// Three encoded equality keys: the packed-buffer join build/probe.
		"join-3key": "SELECT COUNT(E.Sid) AS n FROM Enrol E, Enrol F " +
			"WHERE E.Sid = F.Sid AND E.Code = F.Code AND E.Grade = F.Grade",
		// Two encoded keys: the packed uint64 pair kernels.
		"join-2key": "SELECT COUNT(E.Sid) AS n FROM Enrol E, Enrol F " +
			"WHERE E.Code = F.Code AND E.Grade = F.Grade GROUP BY E.Grade",
		// ~285 filtered rows grouped by a 2565-entry dictionary: the dense
		// slot table loses to the map rung on the derived (strided) input.
		"group-map-slots": "SELECT S.Sid, COUNT(S.Sid) AS n FROM Student S " +
			"WHERE S.Age = 20 GROUP BY S.Sid",
		// Age's dictionary holds NULL: COUNT must skip the NULL rows, not
		// take the group size. (The name predates NullID, when a null
		// bitset marked them.)
		"count-null-bitset": "SELECT S.Sname, COUNT(S.Age) AS c FROM Student S GROUP BY S.Sname",
		// Same COUNT on a derived rowset: no column view, boxed NULL checks.
		"count-null-derived": "SELECT D.Sname, COUNT(D.Age) AS c " +
			"FROM (SELECT S.Sname, S.Age FROM Student S) D GROUP BY D.Sname",
		// Sid's dictionary holds no NULL: COUNT is the group size, on a
		// derived rowset too.
		"count-nonnull-derived": "SELECT D.Sname, COUNT(D.Sid) AS c " +
			"FROM (SELECT S.Sname, S.Sid FROM Student S WHERE S.Age > 20) D GROUP BY D.Sname",
		// Multi-key grouping with NULLs in one key.
		"group-2key": "SELECT S.Sname, S.Age, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Sname, S.Age",
		// DISTINCT ladder: single key and packed pair over multi-block input.
		"distinct-1key": "SELECT DISTINCT S.Sname FROM Student S",
		"distinct-2key": "SELECT DISTINCT E.Code, E.Grade FROM Enrol E",
		// Grouped output ordered and truncated.
		"order-limit": "SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S " +
			"GROUP BY S.Sname ORDER BY n DESC LIMIT 5",
		// CONTAINS over a string column holding NULLs and the string
		// "NULL": evaluated once per dictionary entry, where NULL rows hold
		// NullID, whose bit is never set (not even for '' or 'null').
		"contains-null":       "SELECT S.Sid FROM Student S WHERE S.Sname CONTAINS '1'",
		"contains-null-empty": "SELECT S.Sid FROM Student S WHERE S.Sname CONTAINS ''",
		"contains-null-word":  "SELECT S.Sid, S.Sname FROM Student S WHERE S.Sname CONTAINS 'null'",
		// MIN/MAX/SUM/AVG over the NULL-carrying column, grouped.
		"aggregates-null": "SELECT E.Code, MIN(E.Grade) AS mn, MAX(E.Grade) AS mx, " +
			"SUM(E.Grade) AS s, AVG(E.Grade) AS a FROM Enrol E GROUP BY E.Code",
	} {
		t.Run(name, func(t *testing.T) { threeWayBlocks(t, sql) })
	}
}
