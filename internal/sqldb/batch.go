package sqldb

import (
	"fmt"
	"math/bits"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Vectorized batch kernels (MonetDB/X100-style): the hot operators —
// equality filter, hash-join probe, GROUP BY — process relation.BlockSize
// dictionary IDs at a time instead of one row at a time. A block pass has two
// stages: a branch-free kernel fills a selection vector (a bitset over the
// block's rows, packed into ascending row indexes on demand), then a gather
// walks only the selected rows to emit output. Every kernel emits rows in a
// fixed order (ascending input rows for filters and probes, first-seen slot
// order for groups), so memoized fragments, the query cache and the planck
// invariants see the same rows whichever shard layout produced them.

// blockWords is the selection-bitset word count of one full block.
const blockWords = relation.BlockSize / 64

// stepN advances the row-touch counter by one block of n rows and polls
// cancellation. Blocks are at most rowCheckInterval rows, so per-block polls
// keep the same responsiveness as the per-row amortized step().
func (e *executor) stepN(n int) error {
	if e.ctx == nil {
		return nil
	}
	e.ops += uint(n)
	return e.ctx.Err()
}

// colView returns the contiguous column-major encoding of rs's column i when
// rs is a pristine base-table scan — rows exactly base.Tuples, so rowset
// column i is attribute i of the base table. nil for derived rowsets, whose
// kernels read the row-major enc array with a stride instead.
func colView(rs *rowset, i int) *relation.ColData {
	if rs.base == nil {
		return nil
	}
	return rs.base.Col(i)
}

// ensureBits returns a zero-length selection bitset with capacity for words.
func (e *executor) ensureBits(words int) []uint64 {
	if cap(e.selBits) < words {
		e.selBits = make([]uint64, words)
	}
	return e.selBits[:words]
}

// ensureIdx returns the packed-index scratch, sized to one block.
func (e *executor) ensureIdx() []int32 {
	if e.selIdx == nil {
		e.selIdx = make([]int32, 0, relation.BlockSize)
	}
	return e.selIdx
}

// ensurePids returns the translated-probe-ID scratch, sized to one block.
func (e *executor) ensurePids() []uint32 {
	if e.pids == nil {
		e.pids = make([]uint32, relation.BlockSize)
	}
	return e.pids
}

// eqBits fills bits with the selection bitset of col[k] == id over one
// contiguous block: bit k is set iff the IDs match. Branch-free: for
// m = col[k]^id (< 2^32), (m-1)>>63 is 1 exactly when m is zero. Whole words
// are overwritten, so bits needs no clearing and tail bits beyond len(col)
// stay zero.
func eqBits(dst []uint64, col []uint32, id uint32) {
	n := len(col)
	for w := 0; w*64 < n; w++ {
		m := n - w*64
		if m > 64 {
			m = 64
		}
		base := w * 64
		var word uint64
		for k := 0; k < m; k++ {
			word |= (uint64(col[base+k]^id) - 1) >> 63 << uint(k)
		}
		dst[w] = word
	}
}

// eqBitsStrided is eqBits over a row-major encoding: row k's ID is
// enc[k*st] (the caller offsets enc to the first row's cell of the filtered
// column). Derived rowsets — post-filter, post-join, subquery outputs —
// carry only the row-major layout, so their kernel pays a strided load
// instead of a contiguous one but keeps the branch-free inner loop.
func eqBitsStrided(dst []uint64, enc []uint32, st, n int, id uint32) {
	p := 0
	for w := 0; w*64 < n; w++ {
		m := n - w*64
		if m > 64 {
			m = 64
		}
		var word uint64
		for k := 0; k < m; k++ {
			word |= (uint64(enc[p]^id) - 1) >> 63 << uint(k)
			p += st
		}
		dst[w] = word
	}
}

// keepBits fills bits with the per-row lookup of a per-dictionary-entry keep
// bitset (bit id set iff the dictionary entry matched the predicate): bit k
// is set iff keep has col[k]'s bit. The CONTAINS kernel evaluates its
// substring match once per dictionary entry and then selects rows with this
// single branch-free pass.
func keepBits(dst []uint64, col []uint32, keep []uint64) {
	n := len(col)
	for w := 0; w*64 < n; w++ {
		m := n - w*64
		if m > 64 {
			m = 64
		}
		base := w * 64
		var word uint64
		for k := 0; k < m; k++ {
			id := col[base+k]
			word |= keep[id>>6] >> (id & 63) & 1 << uint(k)
		}
		dst[w] = word
	}
}

// keepBitsStrided is keepBits over a row-major encoding (see eqBitsStrided).
func keepBitsStrided(dst []uint64, enc []uint32, st, n int, keep []uint64) {
	p := 0
	for w := 0; w*64 < n; w++ {
		m := n - w*64
		if m > 64 {
			m = 64
		}
		var word uint64
		for k := 0; k < m; k++ {
			id := enc[p]
			word |= keep[id>>6] >> (id & 63) & 1 << uint(k)
			p += st
		}
		dst[w] = word
	}
}

// neqBits fills bits with the selection bitset of ids[k] != sentinel —
// the probe-side survivor mask after a remap (sentinel relation.NoID marks
// probe values absent from the build dictionary).
func neqBits(dst []uint64, ids []uint32, sentinel uint32) {
	n := len(ids)
	for w := 0; w*64 < n; w++ {
		m := n - w*64
		if m > 64 {
			m = 64
		}
		base := w * 64
		var word uint64
		for k := 0; k < m; k++ {
			word |= ((uint64(ids[base+k]^sentinel)-1)>>63 ^ 1) & 1 << uint(k)
		}
		dst[w] = word
	}
}

// selIndexes packs a block's selection bitset into ascending row indexes
// (local to the block), reusing idx's backing array. One TrailingZeros per
// selected row; words are consumed lowest bit first, so the packed form
// enumerates exactly the set bits in ascending order.
func selIndexes(idx []int32, sel []uint64, n int) []int32 {
	idx = idx[:0]
	for w := 0; w*64 < n; w++ {
		word := sel[w]
		base := int32(w * 64)
		for word != 0 {
			idx = append(idx, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return idx
}

// countBits returns the number of selected rows in a selection bitset.
func countBits(sel []uint64) int {
	n := 0
	for _, w := range sel {
		n += bits.OnesCount64(w)
	}
	return n
}

// fillFilterBits computes the whole-input selection bitset for an equality
// (keep == nil, match against id) or dictionary-keep (keep != nil) filter
// over rs's column i, block at a time with a cancellation poll per block.
// With a shard-parallel worker target the blocks are filled shard-parallel:
// shard boundaries are block- and therefore word-aligned, so workers write
// disjoint words of the one shared bitset.
func (e *executor) fillFilterBits(rs *rowset, i int, id uint32, keep []uint64) ([]uint64, error) {
	n := len(rs.rows)
	sel := e.ensureBits((n + 63) / 64)
	if e.parFor(n) > 1 {
		err := e.forEachShard(n, func(_, lo, hi int) error {
			return e.fillBitsRange(rs, i, id, keep, sel, lo, hi, true)
		})
		return sel, err
	}
	return sel, e.fillBitsRange(rs, i, id, keep, sel, 0, n, false)
}

// fillBitsRange fills the selection words of the blocks covering rows
// [lo, hi); lo is block-aligned. parallel selects the shard workers'
// stateless cancellation poll over the sequential path's row-counting stepN.
func (e *executor) fillBitsRange(rs *rowset, i int, id uint32, keep []uint64, sel []uint64, lo, hi int, parallel bool) error {
	col := colView(rs, i)
	st := len(rs.cols)
	for ; lo < hi; lo += relation.BlockSize {
		nb := hi - lo
		if nb > relation.BlockSize {
			nb = relation.BlockSize
		}
		if parallel {
			if err := e.pollCtx(); err != nil {
				return err
			}
		} else if err := e.stepN(nb); err != nil {
			return err
		}
		b := lo / relation.BlockSize
		words := sel[b*blockWords:]
		switch {
		case col != nil && keep == nil:
			eqBits(words, col.Block(b), id)
		case col != nil:
			keepBits(words, col.Block(b), keep)
		case keep == nil:
			eqBitsStrided(words, rs.enc[lo*st+i:], st, nb, id)
		default:
			keepBitsStrided(words, rs.enc[lo*st+i:], st, nb, keep)
		}
	}
	return nil
}

// gatherSelected appends the selected rows to out in ascending row order,
// preallocated to the selection count so the emits never reallocate.
func (e *executor) gatherSelected(rs *rowset, sel []uint64, out *rowset) error {
	n := len(rs.rows)
	count := countBits(sel)
	out.rows = make([]relation.Tuple, 0, count)
	st := len(rs.cols)
	if out.dicts != nil {
		out.enc = make([]uint32, 0, count*st)
	}
	idx := e.ensureIdx()
	for b := 0; b*relation.BlockSize < n; b++ {
		lo := b * relation.BlockSize
		nb := n - lo
		if nb > relation.BlockSize {
			nb = relation.BlockSize
		}
		if err := e.stepN(nb); err != nil {
			return err
		}
		idx = selIndexes(idx, sel[b*blockWords:], nb)
		for _, k := range idx {
			ri := lo + int(k)
			out.rows = append(out.rows, rs.rows[ri])
			if out.dicts != nil {
				out.enc = append(out.enc, rs.enc[ri*st:(ri+1)*st]...)
			}
		}
	}
	e.selIdx = idx[:0]
	return nil
}

// batchProbe is the vectorized probe of the single-encoded-key hash join:
// per block it translates the probe IDs through the cached remap table,
// masks out misses (NoID, which NULL rows always are) branch-free, packs the
// survivors into a selection vector and walks the build chains only for
// those. Output order is ascending probe row.
// dense and mapHeads are the two build-side head structures (exactly one is
// non-nil); next threads each chain in ascending build-row order.
func (e *executor) batchProbe(left *rowset, li int, remap []uint32, dense []int32, mapHeads map[uint32]int32, next []int32, emit func(lj, rj int)) error {
	n := len(left.rows)
	col := colView(left, li)
	st := len(left.cols)
	pids := e.ensurePids()
	idx := e.ensureIdx()
	var sel [blockWords]uint64
	for b := 0; b*relation.BlockSize < n; b++ {
		lo := b * relation.BlockSize
		nb := n - lo
		if nb > relation.BlockSize {
			nb = relation.BlockSize
		}
		if err := e.stepN(nb); err != nil {
			return err
		}
		// Fused remap + survivor mask: one pass translates the block's probe
		// IDs through the remap table and builds the miss mask (NoID) word by
		// word, instead of a gather pass followed by a neqBits pass (neqBits
		// remains the scalar reference for this mask).
		if col != nil {
			blk := col.Block(b)
			for w := 0; w*64 < nb; w++ {
				m := nb - w*64
				if m > 64 {
					m = 64
				}
				base := w * 64
				var word uint64
				for k := 0; k < m; k++ {
					id := remap[blk[base+k]]
					pids[base+k] = id
					word |= ((uint64(id^relation.NoID)-1)>>63 ^ 1) & 1 << uint(k)
				}
				sel[w] = word
			}
		} else {
			p := lo*st + li
			for w := 0; w*64 < nb; w++ {
				m := nb - w*64
				if m > 64 {
					m = 64
				}
				base := w * 64
				var word uint64
				for k := 0; k < m; k++ {
					id := remap[left.enc[p]]
					pids[base+k] = id
					word |= ((uint64(id^relation.NoID)-1)>>63 ^ 1) & 1 << uint(k)
					p += st
				}
				sel[w] = word
			}
		}
		idx = selIndexes(idx, sel[:], nb)
		for _, k := range idx {
			lj := lo + int(k)
			var rj int32
			if dense != nil {
				rj = dense[pids[k]]
			} else {
				rj = -1
				if h, ok := mapHeads[pids[k]]; ok {
					rj = h
				}
			}
			for ; rj >= 0; rj = next[rj] {
				emit(lj, int(rj))
			}
		}
	}
	e.selIdx = idx[:0]
	return nil
}

// batchGroupSlots assigns every row its group slot in one block-at-a-time
// pass, replacing the per-slot row lists with a flat rowSlot array plus
// per-slot sizes. Slots are numbered in first-seen row order and firsts[s]
// is the first row of slot s.
// Returns a nil rowSlot when the grouping shape is not batchable (3+ key
// columns); zero group columns means the single all-rows group.
func (e *executor) batchGroupSlots(rs *rowset, gidx []int) (rowSlot []int32, firsts []int, sizes []int32, err error) {
	n := len(rs.rows)
	st := len(rs.cols)
	switch len(gidx) {
	case 0:
		rowSlot = make([]int32, n)
		return rowSlot, []int{0}, []int32{int32(n)}, nil
	case 1:
		g := gidx[0]
		rowSlot = make([]int32, n)
		col := colView(rs, g)
		if nd := rs.dicts[g].Len(); nd <= 4*n+1024 {
			slotOf := make([]int32, nd)
			for i := range slotOf {
				slotOf[i] = -1
			}
			for b := 0; b*relation.BlockSize < n; b++ {
				lo := b * relation.BlockSize
				nb := n - lo
				if nb > relation.BlockSize {
					nb = relation.BlockSize
				}
				if err := e.stepN(nb); err != nil {
					return nil, nil, nil, err
				}
				if col != nil {
					for k, id := range col.Block(b) {
						slot := slotOf[id]
						if slot < 0 {
							slot = int32(len(firsts))
							slotOf[id] = slot
							firsts = append(firsts, lo+k)
							sizes = append(sizes, 0)
						}
						rowSlot[lo+k] = slot
						sizes[slot]++
					}
				} else {
					p := lo*st + g
					for k := 0; k < nb; k++ {
						id := rs.enc[p]
						p += st
						slot := slotOf[id]
						if slot < 0 {
							slot = int32(len(firsts))
							slotOf[id] = slot
							firsts = append(firsts, lo+k)
							sizes = append(sizes, 0)
						}
						rowSlot[lo+k] = slot
						sizes[slot]++
					}
				}
			}
			return rowSlot, firsts, sizes, nil
		}
		slots := make(map[uint32]int32)
		for b := 0; b*relation.BlockSize < n; b++ {
			lo := b * relation.BlockSize
			nb := n - lo
			if nb > relation.BlockSize {
				nb = relation.BlockSize
			}
			if err := e.stepN(nb); err != nil {
				return nil, nil, nil, err
			}
			for k := 0; k < nb; k++ {
				var id uint32
				if col != nil {
					id = col.IDs[lo+k]
				} else {
					id = rs.enc[(lo+k)*st+g]
				}
				slot, ok := slots[id]
				if !ok {
					slot = int32(len(firsts))
					slots[id] = slot
					firsts = append(firsts, lo+k)
					sizes = append(sizes, 0)
				}
				rowSlot[lo+k] = slot
				sizes[slot]++
			}
		}
		return rowSlot, firsts, sizes, nil
	case 2:
		g0, g1 := gidx[0], gidx[1]
		rowSlot = make([]int32, n)
		col0, col1 := colView(rs, g0), colView(rs, g1)
		slots := make(map[uint64]int32)
		for b := 0; b*relation.BlockSize < n; b++ {
			lo := b * relation.BlockSize
			nb := n - lo
			if nb > relation.BlockSize {
				nb = relation.BlockSize
			}
			if err := e.stepN(nb); err != nil {
				return nil, nil, nil, err
			}
			for k := 0; k < nb; k++ {
				ri := lo + k
				var id0, id1 uint32
				if col0 != nil {
					id0, id1 = col0.IDs[ri], col1.IDs[ri]
				} else {
					id0, id1 = rs.enc[ri*st+g0], rs.enc[ri*st+g1]
				}
				key := uint64(id0) | uint64(id1)<<32
				slot, ok := slots[key]
				if !ok {
					slot = int32(len(firsts))
					slots[key] = slot
					firsts = append(firsts, ri)
					sizes = append(sizes, 0)
				}
				rowSlot[ri] = slot
				sizes[slot]++
			}
		}
		return rowSlot, firsts, sizes, nil
	default:
		return nil, nil, nil, nil
	}
}

// carveLists materializes the per-slot row lists from a slot assignment by
// counting sort: every list is a slice of one flat backing array, filled in
// ascending row order, at two allocations total.
func carveLists(rowSlot []int32, sizes []int32) [][]int {
	offs := make([]int, len(sizes)+1)
	for s, sz := range sizes {
		offs[s+1] = offs[s] + int(sz)
	}
	backing := make([]int, len(rowSlot))
	pos := offs[:len(sizes)]
	posCopy := make([]int, len(pos))
	copy(posCopy, pos)
	for ri, s := range rowSlot {
		backing[posCopy[s]] = ri
		posCopy[s]++
	}
	lists := make([][]int, len(sizes))
	for s := range lists {
		lists[s] = backing[offs[s]:offs[s+1]]
	}
	return lists
}

// nullFree reports whether column i of rs provably holds no NULL: it is
// encoded and its dictionary never interned one. COUNT over such a column is
// the group size.
func nullFree(rs *rowset, i int) bool { return rs.encoded(i) && !rs.dicts[i].HasNull() }

// simplePlan reports whether every select item is a group column or a
// non-DISTINCT aggregate — the shapes batchAggregate folds columnar, in one
// pass over the slot assignment, without materializing per-slot row lists.
func simplePlan(plan []selItem) bool {
	for _, s := range plan {
		if s.agg && s.ex.Distinct {
			return false
		}
	}
	return true
}

// batchAggregate computes a simplePlan projection columnar: one pass per
// aggregate over the rowSlot assignment, accumulating into per-slot state
// (COUNT over a column whose dictionary holds no NULL is the group size).
// Rows are visited in ascending order, so each slot sees its rows in exactly
// the order the per-list fold would — COUNT, MIN/MAX (first non-null seed,
// strict-compare replacement) and SUM/AVG (float fold with all-int tracking)
// are value-identical to aggregate(). Output rows are emitted in slot
// (first-seen) order, as the list path does.
func (e *executor) batchAggregate(rs *rowset, plan []selItem, rowSlot []int32, firsts []int, sizes []int32, out *rowset) error {
	n := len(rs.rows)
	ns := len(firsts)
	st := len(rs.cols)
	cells := make([]relation.Value, ns*len(plan)) // column k of slot s at s*len(plan)+k
	for k, s := range plan {
		if !s.agg {
			for slot := 0; slot < ns; slot++ {
				cells[slot*len(plan)+k] = rs.rows[firsts[slot]][s.col]
			}
			continue
		}
		switch s.ex.Func {
		case sqlast.AggCount:
			counts := make([]int64, ns)
			if nullFree(rs, s.col) {
				for slot, sz := range sizes {
					counts[slot] = int64(sz)
				}
			} else {
				for lo := 0; lo < n; lo += relation.BlockSize {
					if err := e.stepN(relation.BlockSize); err != nil {
						return err
					}
					hi := lo + relation.BlockSize
					if hi > n {
						hi = n
					}
					for ri := lo; ri < hi; ri++ {
						if !relation.Null(rs.rows[ri][s.col]) {
							counts[rowSlot[ri]]++
						}
					}
				}
			}
			for slot := 0; slot < ns; slot++ {
				cells[slot*len(plan)+k] = relation.Int(counts[slot])
			}
		case sqlast.AggMin, sqlast.AggMax:
			best := make([]relation.Value, ns)
			for lo := 0; lo < n; lo += relation.BlockSize {
				if err := e.stepN(relation.BlockSize); err != nil {
					return err
				}
				hi := lo + relation.BlockSize
				if hi > n {
					hi = n
				}
				for ri := lo; ri < hi; ri++ {
					v := rs.rows[ri][s.col]
					if relation.Null(v) {
						continue
					}
					slot := rowSlot[ri]
					b := best[slot]
					if b == nil {
						best[slot] = v
						continue
					}
					c := relation.Compare(v, b)
					if (s.ex.Func == sqlast.AggMin && c < 0) || (s.ex.Func == sqlast.AggMax && c > 0) {
						best[slot] = v
					}
				}
			}
			for slot := 0; slot < ns; slot++ {
				cells[slot*len(plan)+k] = best[slot]
			}
		case sqlast.AggSum, sqlast.AggAvg:
			sums := make([]float64, ns)
			counts := make([]int64, ns)
			notInt := make([]bool, ns)
			for lo := 0; lo < n; lo += relation.BlockSize {
				if err := e.stepN(relation.BlockSize); err != nil {
					return err
				}
				hi := lo + relation.BlockSize
				if hi > n {
					hi = n
				}
				for ri := lo; ri < hi; ri++ {
					v := rs.rows[ri][s.col]
					if relation.Null(v) {
						continue
					}
					f, ok := relation.AsFloat(v)
					if !ok {
						return fmt.Errorf("sqldb: %s over non-numeric value %v", s.ex.Func, v)
					}
					if _, isInt := v.(int64); !isInt {
						notInt[rowSlot[ri]] = true
					}
					slot := rowSlot[ri]
					sums[slot] += f
					counts[slot]++
				}
			}
			for slot := 0; slot < ns; slot++ {
				if counts[slot] == 0 {
					continue // NULL result, cell stays nil
				}
				switch {
				case s.ex.Func == sqlast.AggAvg:
					cells[slot*len(plan)+k] = relation.Float(sums[slot] / float64(counts[slot]))
				case notInt[slot]:
					cells[slot*len(plan)+k] = relation.Float(sums[slot])
				default:
					cells[slot*len(plan)+k] = relation.Int(int64(sums[slot]))
				}
			}
		default:
			return fmt.Errorf("sqldb: unknown aggregate %q", s.ex.Func)
		}
	}
	out.rows = make([]relation.Tuple, 0, ns)
	for slot := 0; slot < ns; slot++ {
		out.rows = append(out.rows, relation.Tuple(cells[slot*len(plan):(slot+1)*len(plan):(slot+1)*len(plan)]))
		if out.dicts != nil {
			for k, s := range plan {
				var id uint32
				if out.dicts[k] != nil {
					id = rs.enc[firsts[slot]*st+s.col]
				}
				out.enc = append(out.enc, id)
			}
		}
	}
	return nil
}
