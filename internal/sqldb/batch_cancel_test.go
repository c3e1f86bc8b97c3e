package sqldb

import (
	"context"
	"errors"
	"testing"
)

// TestBatchCancellationMidBlock pins the batch kernels' cancellation
// responsiveness: the block loops poll the context between blocks (stepN), so
// a cancellation arriving mid-statement must surface as the context's error —
// never a partial Result — on multi-block inputs for each kernel family.
func TestBatchCancellationMidBlock(t *testing.T) {
	db := fuzzBlockDB() // 2*BlockSize+517 rows per table
	for _, sql := range []string{
		"SELECT S.Sname, COUNT(S.Sid) AS n FROM Student S GROUP BY S.Sname",
		"SELECT COUNT(E.Code) AS n FROM Student S, Enrol E WHERE S.Sid = E.Sid",
		"SELECT D.Sid FROM (SELECT S.Sid, S.Age FROM Student S) D WHERE D.Age = 20",
	} {
		q, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Already-cancelled context: the very first poll must abort.
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, _, err := ExecOpts(ctx, db, q, ExecConfig{})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v (res=%v)", sql, err, res != nil)
		}
		if res != nil {
			t.Errorf("%s: cancelled execution must not return a result", sql)
		}
		// Sanity: the same statement completes when not cancelled.
		if _, _, err := ExecOpts(context.Background(), db, q, ExecConfig{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
}
