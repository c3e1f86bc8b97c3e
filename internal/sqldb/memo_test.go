package sqldb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kwagg/internal/dataset/university"
	"kwagg/internal/relation"
)

func memoRowset(rows, cols int) *rowset {
	rs := &rowset{cols: make([]boundCol, cols)}
	for i := 0; i < cols; i++ {
		rs.cols[i] = boundCol{name: fmt.Sprintf("c%d", i)}
	}
	for r := 0; r < rows; r++ {
		tu := make(relation.Tuple, cols)
		for c := range tu {
			tu[c] = int64(r*cols + c)
		}
		rs.rows = append(rs.rows, tu)
	}
	return rs
}

func TestNewMemoDisabled(t *testing.T) {
	if m := NewMemo(0); m != nil {
		t.Errorf("NewMemo(0) = %v, want nil", m)
	}
	if m := NewMemo(-1); m != nil {
		t.Errorf("NewMemo(-1) = %v, want nil", m)
	}
}

func TestMemoLRUEviction(t *testing.T) {
	// Each 2x2 rowset costs 2*2+1 = 5 cells; a 10-cell budget holds two.
	m := NewMemo(10)
	for _, key := range []string{"a", "b"} {
		_, claim, err := m.acquire(nil, key)
		if err != nil || claim == nil {
			t.Fatalf("acquire(%q) = claim %v, err %v", key, claim, err)
		}
		claim.publish(memoRowset(2, 2))
	}
	if m.Len() != 2 || m.UsedCells() != 10 {
		t.Fatalf("after two publishes: Len=%d UsedCells=%d, want 2/10", m.Len(), m.UsedCells())
	}
	// Touch "a" so "b" is the LRU victim when "c" lands.
	if rs, claim, _ := m.acquire(nil, "a"); rs == nil || claim != nil {
		t.Fatalf("acquire(a) should hit")
	}
	_, claim, _ := m.acquire(nil, "c")
	claim.publish(memoRowset(2, 2))
	if m.Len() != 2 || m.UsedCells() != 10 {
		t.Fatalf("after eviction: Len=%d UsedCells=%d, want 2/10", m.Len(), m.UsedCells())
	}
	if rs, claim, _ := m.acquire(nil, "b"); rs != nil || claim == nil {
		t.Errorf("b should have been evicted (got rs=%v claim=%v)", rs, claim)
	} else {
		claim.fail()
	}
	if rs, claim, _ := m.acquire(nil, "a"); rs == nil || claim != nil {
		t.Errorf("a should still be cached")
	}
}

func TestMemoOversizedEntryNotCached(t *testing.T) {
	m := NewMemo(3) // smaller than any real rowset's cost
	_, claim, err := m.acquire(nil, "big")
	if err != nil || claim == nil {
		t.Fatalf("acquire = claim %v, err %v", claim, err)
	}
	claim.publish(memoRowset(4, 4))
	if m.Len() != 0 || m.UsedCells() != 0 {
		t.Errorf("oversized entry cached: Len=%d UsedCells=%d", m.Len(), m.UsedCells())
	}
	if rs, claim, _ := m.acquire(nil, "big"); rs != nil || claim == nil {
		t.Errorf("oversized key should miss again (rs=%v claim=%v)", rs, claim)
	}
}

func TestMemoSingleflight(t *testing.T) {
	m := NewMemo(1 << 16)
	want := memoRowset(3, 2)
	var claims atomic.Int32
	var wg sync.WaitGroup
	results := make([]*rowset, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, claim, err := m.acquire(nil, "shared")
			if err != nil {
				t.Errorf("acquire: %v", err)
				return
			}
			if claim != nil {
				claims.Add(1)
				time.Sleep(2 * time.Millisecond) // let waiters pile up
				claim.publish(want)
				rs = want
			}
			results[i] = rs
		}(i)
	}
	wg.Wait()
	if claims.Load() != 1 {
		t.Errorf("%d goroutines claimed the key, want exactly 1", claims.Load())
	}
	for i, rs := range results {
		if rs != want {
			t.Errorf("goroutine %d got %p, want the shared rowset %p", i, rs, want)
		}
	}
}

func TestMemoFailedComputeRetries(t *testing.T) {
	m := NewMemo(1 << 16)
	_, claim, err := m.acquire(nil, "flaky")
	if err != nil || claim == nil {
		t.Fatalf("acquire = claim %v, err %v", claim, err)
	}
	waiter := make(chan struct{})
	go func() {
		defer close(waiter)
		// Blocks until the claim fails, then must be told to compute
		// without caching: no rowset, no claim, no error.
		rs, c, err := m.acquire(nil, "flaky")
		if rs != nil || c != nil || err != nil {
			t.Errorf("waiter after fail: rs=%v claim=%v err=%v", rs, c, err)
		}
	}()
	time.Sleep(time.Millisecond)
	claim.fail()
	<-waiter
	// The key was dropped, so a later request gets a fresh claim.
	rs, c, err := m.acquire(nil, "flaky")
	if rs != nil || c == nil || err != nil {
		t.Fatalf("fresh acquire after fail: rs=%v claim=%v err=%v", rs, c, err)
	}
	c.publish(memoRowset(1, 1))
	if m.Len() != 1 {
		t.Errorf("Len = %d after successful retry, want 1", m.Len())
	}
}

func TestMemoAcquireHonorsContext(t *testing.T) {
	m := NewMemo(1 << 16)
	_, claim, _ := m.acquire(nil, "held")
	defer claim.publish(memoRowset(1, 1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.acquire(ctx, "held"); err != context.Canceled {
		t.Errorf("acquire on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestExecOptsMemoReusesFragments executes statements sharing a join shape
// through one memo and checks both the hit accounting and that memoized
// results stay identical to the brute-force reference.
func TestExecOptsMemoReusesFragments(t *testing.T) {
	db := university.New()
	db.Freeze()
	m := NewMemo(1 << 20)
	sqls := []string{
		"SELECT C.Code, COUNT(S.SName) AS n FROM Student S, Enrol E, Course C " +
			"WHERE S.Sid = E.Sid AND E.Code = C.Code GROUP BY C.Code",
		"SELECT C.Code, COUNT(DISTINCT S.SName) AS n FROM Student S, Enrol E, Course C " +
			"WHERE S.Sid = E.Sid AND E.Code = C.Code GROUP BY C.Code",
	}
	totalHits := 0
	for pass := 0; pass < 2; pass++ {
		for _, sql := range sqls {
			q, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := ExecOpts(context.Background(), db, q, ExecConfig{Memo: m})
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, sql, err)
			}
			totalHits += st.Hits
			want, err := refExec(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if d := refDiff(got, want); d != "" {
				t.Errorf("pass %d %s diverged: %s", pass, sql, d)
			}
		}
	}
	if totalHits == 0 {
		t.Error("no memo hits across statements sharing join fragments")
	}
	if m.Len() == 0 {
		t.Error("memo cached nothing")
	}
	// A nil memo must degrade to plain execution.
	q, _ := Parse(sqls[0])
	res, st, err := ExecOpts(context.Background(), db, q, ExecConfig{})
	if err != nil || res == nil {
		t.Fatalf("nil memo: %v, %v", res, err)
	}
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("nil memo stats = %+v, want zeros", st)
	}
}
