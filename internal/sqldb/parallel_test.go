package sqldb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"kwagg/internal/relation"
)

func TestShardSizeRounding(t *testing.T) {
	cases := []struct {
		in, want int
	}{
		{0, relation.ShardRows},
		{-5, relation.ShardRows},
		{1, relation.BlockSize},
		{1000, relation.BlockSize},
		{relation.BlockSize, relation.BlockSize},
		{relation.BlockSize + 1, 2 * relation.BlockSize},
		{2 * relation.BlockSize, 2 * relation.BlockSize},
	}
	for _, c := range cases {
		e := &executor{shardRows: c.in}
		if got := e.shardSize(); got != c.want {
			t.Errorf("shardSize(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParForCaps(t *testing.T) {
	g := runtime.GOMAXPROCS(0)
	e := &executor{par: 64, shardRows: relation.BlockSize}
	// Two shards of input: at most 2 workers regardless of the target.
	if got := e.parFor(2 * relation.BlockSize); got > 2 || got > g {
		t.Errorf("parFor over 2 shards = %d (GOMAXPROCS %d)", got, g)
	}
	// Targets below 2 never parallelize.
	for _, e := range []*executor{{par: 0}, {par: 1}} {
		if got := e.parFor(1 << 20); got != 1 {
			t.Errorf("parFor on %+v = %d, want 1", e, got)
		}
	}
}

func TestRunPartsDispatchesAll(t *testing.T) {
	e := &executor{par: 4}
	const parts = 57
	var done [parts]atomic.Bool
	err := e.runParts(4, parts, func(p int) error {
		if done[p].Swap(true) {
			return fmt.Errorf("part %d ran twice", p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range done {
		if !done[p].Load() {
			t.Fatalf("part %d never ran", p)
		}
	}
}

func TestRunPartsLowestErrorWins(t *testing.T) {
	e := &executor{par: 4}
	boom := func(p int) error { return fmt.Errorf("part %d failed", p) }
	// Parts are handed out in ascending order and part 5 always records its
	// error, so the reported error is deterministic under any scheduling.
	err := e.runParts(4, 12, func(p int) error {
		if p >= 5 {
			return boom(p)
		}
		return nil
	})
	if err == nil || err.Error() != "part 5 failed" {
		t.Fatalf("got %v, want part 5's error", err)
	}
}

// TestShardedCancellation pins that a dead context stops a shard-parallel
// statement with the context's error, not a wrong answer.
func TestShardedCancellation(t *testing.T) {
	db := relation.NewDatabase("cancel")
	tb := db.AddSchema(relation.NewSchema("T", "K INT", "V INT").Key("V"))
	for i := 0; i < 4*relation.BlockSize; i++ {
		tb.MustInsert(int64(i%32), int64(i))
	}
	db.Freeze()
	q, err := Parse("SELECT T.K, COUNT(T.V) AS n FROM T WHERE T.K = 7 GROUP BY T.K")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = ExecOpts(ctx, db, q, ExecConfig{Shards: 4, ShardRows: relation.BlockSize})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestShardedMatchesSingleShard is the direct smoke check (the full
// differential lives in sharddiff_test.go): same rows, same order.
func TestShardedMatchesSingleShard(t *testing.T) {
	db := relation.NewDatabase("smoke")
	tb := db.AddSchema(relation.NewSchema("T", "K INT", "V INT", "F FLOAT").Key("V"))
	for i := 0; i < 3*relation.BlockSize+100; i++ {
		tb.MustInsert(int64(i%13), int64(i), float64(i%7)/3)
	}
	db.Freeze()
	q, err := Parse("SELECT T.K, SUM(T.F) AS s, AVG(T.F) AS a FROM T GROUP BY T.K")
	if err != nil {
		t.Fatal(err)
	}
	want, err := execQuery(db, q)
	if err != nil {
		t.Fatal(err)
	}
	e := &executor{db: db, par: 4, shardRows: relation.BlockSize}
	got, err := e.query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.String() != got.String() {
		t.Fatalf("sharded diverged:\nwant:\n%s\ngot:\n%s", want, got)
	}
	if e.shardRuns == 0 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatal("no kernel pass ran shard-parallel")
	}
}
