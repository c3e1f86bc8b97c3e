package sqldb

import (
	"math/rand"
	"testing"

	"kwagg/internal/relation"
)

// Property tests for the branch-free selection-vector kernels in batch.go:
// each kernel is compared against a naive per-row loop over randomized and
// adversarial inputs. The lengths deliberately straddle every boundary the
// kernels care about — word edges (63/64/65) and block edges
// (BlockSize±1, len%BlockSize != 0) — and the ID pools are squeezed so that
// all-match and none-match blocks occur naturally alongside the planted ones.

// selLens is the shared length schedule: word and block boundaries plus a few
// random sizes per run.
func selLens(r *rand.Rand) []int {
	lens := []int{0, 1, 63, 64, 65, 127, 128,
		relation.BlockSize - 1, relation.BlockSize, relation.BlockSize + 1,
		2 * relation.BlockSize, 2*relation.BlockSize + 517}
	for i := 0; i < 4; i++ {
		lens = append(lens, 1+r.Intn(3*relation.BlockSize))
	}
	return lens
}

// randIDs draws n IDs from a pool of size card; card 1 makes every row match
// a constant, large card makes matches rare.
func randIDs(r *rand.Rand, n, card int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(r.Intn(card))
	}
	return ids
}

// naiveBits builds the expected bitset from a per-row predicate.
func naiveBits(n int, pred func(k int) bool) []uint64 {
	dst := make([]uint64, (n+63)/64)
	for k := 0; k < n; k++ {
		if pred(k) {
			dst[k>>6] |= 1 << (uint(k) & 63)
		}
	}
	return dst
}

func checkBits(t *testing.T, label string, n int, got, want []uint64) {
	t.Helper()
	for w := range want {
		if got[w] != want[w] {
			t.Fatalf("%s: n=%d word %d: got %#x, want %#x", label, n, w, got[w], want[w])
		}
	}
	// Tail bits beyond n must stay zero — gatherSelected and countBits trust
	// the kernels to overwrite whole words without smearing past the end.
	if n%64 != 0 && len(got) > 0 {
		if tail := got[len(want)-1] >> (uint(n) & 63); tail != 0 {
			t.Fatalf("%s: n=%d: tail bits set beyond the input: %#x", label, n, tail)
		}
	}
}

func TestEqBitsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, n := range selLens(r) {
		for _, card := range []int{1, 2, 17, 1 << 20} {
			ids := randIDs(r, n, card)
			var needle uint32
			if n > 0 {
				needle = ids[r.Intn(n)] // guaranteed at least one match
			}
			for _, id := range []uint32{needle, uint32(card)} { // and a none-match probe
				dst := make([]uint64, (n+63)/64)
				eqBits(dst, ids, id)
				want := naiveBits(n, func(k int) bool { return ids[k] == id })
				checkBits(t, "eqBits", n, dst, want)
				if got, naive := countBits(dst), countBits(want); got != naive {
					t.Fatalf("countBits: n=%d: %d != %d", n, got, naive)
				}
			}
		}
	}
}

func TestEqBitsAllMatch(t *testing.T) {
	for _, n := range []int{1, 64, relation.BlockSize, relation.BlockSize + 1} {
		ids := make([]uint32, n) // every row is ID 0
		dst := make([]uint64, (n+63)/64)
		eqBits(dst, ids, 0)
		if countBits(dst) != n {
			t.Fatalf("all-match n=%d: %d bits set", n, countBits(dst))
		}
		eqBits(dst, ids, 1)
		if countBits(dst) != 0 {
			t.Fatalf("none-match n=%d: %d bits set", n, countBits(dst))
		}
	}
}

func TestEqBitsStridedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for _, n := range selLens(r) {
		for _, st := range []int{1, 2, 5} {
			enc := randIDs(r, n*st, 9)
			var id uint32 = 3
			dst := make([]uint64, (n+63)/64)
			eqBitsStrided(dst, enc, st, n, id)
			want := naiveBits(n, func(k int) bool { return enc[k*st] == id })
			checkBits(t, "eqBitsStrided", n, dst, want)
		}
	}
}

func TestKeepBitsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for _, n := range selLens(r) {
		card := 1 + r.Intn(200)
		ids := randIDs(r, n, card)
		keep := make([]uint64, (card+63)/64)
		inKeep := func(id uint32) bool { return keep[id>>6]>>(id&63)&1 != 0 }
		for id := 0; id < card; id++ {
			if r.Intn(3) == 0 {
				keep[id>>6] |= 1 << (uint(id) & 63)
			}
		}
		dst := make([]uint64, (n+63)/64)
		keepBits(dst, ids, keep)
		checkBits(t, "keepBits", n, dst, naiveBits(n, func(k int) bool { return inKeep(ids[k]) }))

		st := 1 + r.Intn(4)
		enc := randIDs(r, n*st, card)
		dst2 := make([]uint64, (n+63)/64)
		keepBitsStrided(dst2, enc, st, n, keep)
		checkBits(t, "keepBitsStrided", n, dst2, naiveBits(n, func(k int) bool { return inKeep(enc[k*st]) }))
	}
}

func TestNeqBitsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for _, n := range selLens(r) {
		ids := randIDs(r, n, 6)
		// Plant the sentinel so both polarities occur.
		for i := range ids {
			if r.Intn(4) == 0 {
				ids[i] = relation.NoID
			}
		}
		dst := make([]uint64, (n+63)/64)
		neqBits(dst, ids, relation.NoID)
		checkBits(t, "neqBits", n, dst, naiveBits(n, func(k int) bool { return ids[k] != relation.NoID }))
	}
}

func TestSelIndexesProperty(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for _, n := range selLens(r) {
		sel := make([]uint64, (n+63)/64)
		var want []int32
		for k := 0; k < n; k++ {
			if r.Intn(3) == 0 {
				sel[k>>6] |= 1 << (uint(k) & 63)
				want = append(want, int32(k))
			}
		}
		idx := selIndexes(make([]int32, 0, relation.BlockSize), sel, n)
		if len(idx) != len(want) {
			t.Fatalf("selIndexes: n=%d: %d indexes, want %d", n, len(idx), len(want))
		}
		for i := range want {
			if idx[i] != want[i] {
				t.Fatalf("selIndexes: n=%d: idx[%d]=%d, want %d (must be ascending)", n, i, idx[i], want[i])
			}
		}
		if got := countBits(sel); got != len(want) {
			t.Fatalf("countBits: n=%d: %d, want %d", n, got, len(want))
		}
	}
	// All-match and none-match at a block boundary.
	n := relation.BlockSize
	sel := make([]uint64, n/64)
	if got := selIndexes(nil, sel, n); len(got) != 0 {
		t.Fatalf("empty bitset packed %d indexes", len(got))
	}
	for w := range sel {
		sel[w] = ^uint64(0)
	}
	idx := selIndexes(nil, sel, n)
	if len(idx) != n || idx[0] != 0 || idx[n-1] != int32(n-1) {
		t.Fatalf("full bitset packed %d indexes [%d..%d]", len(idx), idx[0], idx[len(idx)-1])
	}
}

// TestFilterKernelMatchesNaive drives the batch equality filter end to end on
// random frozen tables — contiguous (pristine scan) and strided (derived
// rowset) layouts — against the brute-force reference evaluator.
func TestFilterKernelMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	for trial := 0; trial < 5; trial++ {
		n := []int{1, 511, relation.BlockSize, 2*relation.BlockSize + 517}[trial%4]
		db := relation.NewDatabase("selprop")
		tab := db.AddSchema(relation.NewSchema("T", "Id INT", "K INT", "S").Key("Id"))
		for i := 0; i < n; i++ {
			var k relation.Value = int64(r.Intn(7))
			if r.Intn(11) == 0 {
				k = nil
			}
			tab.MustInsert(int64(i), k, []string{"x", "y", "NULL"}[r.Intn(3)])
		}
		db.Freeze()
		for _, sql := range []string{
			"SELECT T.Id FROM T T WHERE T.K = 3",
			"SELECT T.Id FROM T T WHERE T.S = 'NULL'",
			"SELECT T.Id FROM T T WHERE T.K = 99",
			// Derived shape: the subquery output loses the contiguous columns,
			// forcing the strided kernel.
			"SELECT D.Id FROM (SELECT T.Id, T.K FROM T T) D WHERE D.K = 3",
		} {
			q, err := Parse(sql)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := execQuery(db, q)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, sql, err)
			}
			ref, err := refExec(db, q)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, sql, err)
			}
			if d := refDiff(batch, ref); d != "" {
				t.Fatalf("n=%d %s: %s", n, sql, d)
			}
		}
	}
}
