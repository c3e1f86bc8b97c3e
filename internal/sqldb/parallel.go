package sqldb

import (
	"runtime"
	"sync"
	"sync/atomic"

	"kwagg/internal/relation"
)

// Shard-parallel drivers for the batch kernels (morsel-style): a shard is a
// contiguous range of whole ColData blocks (relation.ShardRows rows by
// default), so the per-block kernels in batch.go run unchanged — workers
// just sweep disjoint block ranges. Every driver reproduces the sequential
// path's output exactly, byte for byte:
//
//   - the filter pass fills disjoint words of one shared selection bitset
//     (shard boundaries are block- and therefore word-aligned), and the
//     gather that consumes it stays sequential;
//   - the join probe counts each shard's matches, fixes every shard's
//     output offset by a prefix sum, and writes the matches in place, which
//     is exactly ascending-probe-row order (see probe);
//   - GROUP BY assigns shard-local slots in parallel, merges the shard
//     group tables in ascending shard order (reproducing global first-seen
//     slot numbering; COUNT/size partials merge by addition here), and then
//     folds every slot's rows in ascending row order on exactly one worker
//     (see fold).
//
// The last point is why SUM/AVG partials are never merged across shards:
// float addition is not associative, so a cross-shard sum merge would give
// answers that differ in the last bits from the single-shard fold. Folding
// per slot keeps the association identical while still scaling, because
// distinct slots fold concurrently.

// shardSlots bounds the extra worker goroutines shard-parallel kernels may
// hold across all concurrent statements: each helper goroutine holds one
// token for its lifetime, and a kernel that finds the pool exhausted simply
// runs on its own statement goroutine. Sized to the machine at startup so a
// saturated server stays at O(GOMAXPROCS + statements) goroutines instead
// of O(statements × shards).
var shardSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

// shardsOf returns how many size-row shards cover n rows.
func shardsOf(n, size int) int { return (n + size - 1) / size }

// shardSize resolves the rows-per-shard of this execution: the configured
// override rounded up to whole blocks (shard boundaries must stay block- and
// word-aligned for the bitset kernels), or relation.ShardRows.
func (e *executor) shardSize() int {
	sr := e.shardRows
	if sr <= 0 {
		return relation.ShardRows
	}
	if rem := sr % relation.BlockSize; rem != 0 {
		sr += relation.BlockSize - rem
	}
	return sr
}

// parFor resolves how many workers an n-row kernel pass may use: the
// configured target, capped by the pass's shard count (idle workers are
// pointless) and by GOMAXPROCS at execution time — so `-cpu 1` runs, and
// benchmarks measure, the sequential path even when shards are requested.
// Everything below 2 means "run the sequential code".
func (e *executor) parFor(n int) int {
	if e.par <= 1 {
		return 1
	}
	p := e.par
	if shards := shardsOf(n, e.shardSize()); p > shards {
		p = shards
	}
	if g := runtime.GOMAXPROCS(0); p > g {
		p = g
	}
	if p < 1 {
		p = 1
	}
	return p
}

// pollCtx is the shard workers' cancellation poll. Unlike step/stepN it
// neither counts rows nor touches any other executor state, so concurrent
// workers may call it freely.
func (e *executor) pollCtx() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// runParts runs fn(part) for every part in [0, parts) on up to workers
// goroutines, the calling goroutine included. Parts are handed out through a
// shared counter, so slow parts do not serialize behind fast ones; helper
// goroutines are spawned only while the process-wide slot pool has tokens.
// fn must confine its writes to part-local state. On failure the remaining
// undispatched parts are skipped and the lowest-numbered part's error is
// returned — deterministic regardless of scheduling.
func (e *executor) runParts(workers, parts int, fn func(part int) error) error {
	if workers > parts {
		workers = parts
	}
	if workers <= 1 {
		for p := 0; p < parts; p++ {
			if err := fn(p); err != nil {
				return err
			}
		}
		return nil
	}
	e.shardRuns++
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	errs := make([]error, parts)
	work := func() {
		for {
			p := int(next.Add(1)) - 1
			if p >= parts || failed.Load() {
				return
			}
			if err := fn(p); err != nil {
				errs[p] = err
				failed.Store(true)
			}
		}
	}
spawn:
	for i := 0; i < workers-1; i++ {
		select {
		case shardSlots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-shardSlots }()
				work()
			}()
		default:
			break spawn
		}
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forEachShard runs fn over every shard range [lo, hi) covering n rows,
// shard-parallel when the worker target allows. fn must confine its writes
// to shard-local state (disjoint slices or bitset words indexed by shard).
func (e *executor) forEachShard(n int, fn func(s, lo, hi int) error) error {
	size := e.shardSize()
	return e.runParts(e.parFor(n), shardsOf(n, size), func(s int) error {
		lo := s * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		return fn(s, lo, hi)
	})
}

// parGroupSlots is batchGroupSlots shard-parallel for one or two encoded
// key columns (the caller falls back for other shapes). Every shard builds
// a local group table — slot numbers in shard-local first-seen order — then
// a sequential merge walks the shards in ascending order, mapping local
// slots to global ones: a key's global slot is allocated when the merge
// first meets it, which is exactly the global first-seen order because
// shards are ascending row ranges and local orders are ascending within
// them. Group sizes (the COUNT partial) merge by addition; firsts keep the
// earliest shard's first row. A final parallel pass rewrites the local slot
// numbers in rowSlot to global ones.
func (e *executor) parGroupSlots(rs *rowset, gidx []int) (rowSlot []int32, firsts []int, sizes []int32, err error) {
	n := rs.n
	st := len(rs.cols)
	g0 := gidx[0]
	col0 := colView(rs, g0)
	g1 := -1
	var col1 *relation.ColData
	if len(gidx) == 2 {
		g1 = gidx[1]
		col1 = colView(rs, g1)
	}
	rowSlot = make([]int32, n)
	nShards := shardsOf(n, e.shardSize())
	localKeys := make([][]uint64, nShards)
	localFirsts := make([][]int, nShards)
	localSizes := make([][]int32, nShards)
	err = e.forEachShard(n, func(s, shLo, shHi int) error {
		var keys []uint64
		var lfirsts []int
		var lsizes []int32
		if g1 < 0 {
			// Single key with a dictionary small relative to the shard: a
			// dense local slot table instead of a map.
			if nd := rs.dicts[g0].Len(); nd <= 4*(shHi-shLo)+1024 {
				slotOf := make([]int32, nd)
				for i := range slotOf {
					slotOf[i] = -1
				}
				for lo := shLo; lo < shHi; lo += relation.BlockSize {
					if err := e.pollCtx(); err != nil {
						return err
					}
					bhi := lo + relation.BlockSize
					if bhi > shHi {
						bhi = shHi
					}
					for ri := lo; ri < bhi; ri++ {
						var id uint32
						if col0 != nil {
							id = col0.IDs[ri]
						} else {
							id = rs.enc[ri*st+g0]
						}
						slot := slotOf[id]
						if slot < 0 {
							slot = int32(len(keys))
							slotOf[id] = slot
							keys = append(keys, uint64(id))
							lfirsts = append(lfirsts, ri)
							lsizes = append(lsizes, 0)
						}
						rowSlot[ri] = slot
						lsizes[slot]++
					}
				}
				localKeys[s], localFirsts[s], localSizes[s] = keys, lfirsts, lsizes
				return nil
			}
		}
		slots := make(map[uint64]int32, 64)
		for lo := shLo; lo < shHi; lo += relation.BlockSize {
			if err := e.pollCtx(); err != nil {
				return err
			}
			bhi := lo + relation.BlockSize
			if bhi > shHi {
				bhi = shHi
			}
			for ri := lo; ri < bhi; ri++ {
				var key uint64
				if col0 != nil {
					key = uint64(col0.IDs[ri])
				} else {
					key = uint64(rs.enc[ri*st+g0])
				}
				if g1 >= 0 {
					if col1 != nil {
						key |= uint64(col1.IDs[ri]) << 32
					} else {
						key |= uint64(rs.enc[ri*st+g1]) << 32
					}
				}
				slot, ok := slots[key]
				if !ok {
					slot = int32(len(keys))
					slots[key] = slot
					keys = append(keys, key)
					lfirsts = append(lfirsts, ri)
					lsizes = append(lsizes, 0)
				}
				rowSlot[ri] = slot
				lsizes[slot]++
			}
		}
		localKeys[s], localFirsts[s], localSizes[s] = keys, lfirsts, lsizes
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// Ascending-shard merge: local slots to global first-seen numbering.
	global := make(map[uint64]int32, len(localKeys[0]))
	l2g := make([][]int32, nShards)
	for s := 0; s < nShards; s++ {
		l2g[s] = make([]int32, len(localKeys[s]))
		for ls, key := range localKeys[s] {
			g, ok := global[key]
			if !ok {
				g = int32(len(firsts))
				global[key] = g
				firsts = append(firsts, localFirsts[s][ls])
				sizes = append(sizes, 0)
			}
			l2g[s][ls] = g
			sizes[g] += localSizes[s][ls]
		}
	}
	err = e.forEachShard(n, func(s, shLo, shHi int) error {
		m := l2g[s]
		for lo := shLo; lo < shHi; lo += relation.BlockSize {
			if err := e.pollCtx(); err != nil {
				return err
			}
			bhi := lo + relation.BlockSize
			if bhi > shHi {
				bhi = shHi
			}
			for ri := lo; ri < bhi; ri++ {
				rowSlot[ri] = m[rowSlot[ri]]
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return rowSlot, firsts, sizes, nil
}
