package sqldb

import (
	"math/bits"

	"kwagg/internal/relation"
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
// rs is a pristine base-table scan — the table's rows in order, so rowset
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
// is set iff keep has col[k]'s bit. CONTAINS, range comparisons and
// semi-join pushes evaluate their predicate once per dictionary entry and
// then select rows with this single branch-free pass.
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
// the probe-side survivor mask of a hash join (sentinel relation.NoID marks
// probe keys absent from the build side).
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
	n := rs.n
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

// gatherSelected copies the selected rows' IDs into out in ascending row
// order, allocated once at the selection count.
func (e *executor) gatherSelected(rs *rowset, sel []uint64, out *rowset) error {
	n := rs.n
	st := len(rs.cols)
	out.n = countBits(sel)
	out.enc = make([]uint32, 0, out.n*st)
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
			out.enc = append(out.enc, rs.row(lo+int(k))...)
		}
	}
	e.selIdx = idx[:0]
	return nil
}

// filterEntries keeps the rows of rs whose column i holds dictionary entry
// id (keep == nil) or an entry set in keep, a bitset over rs.dicts[i] that
// never holds NullID, in ascending row order. On a pristine scan whose kept
// entries' postings total at most n/8 rows, the rows come from the table's
// value index: one list is gathered directly, several mark the selection
// bitset. Otherwise a branch-free sweep (eqBits or keepBits) selects them.
// indexed reports whether the value index answered.
func (e *executor) filterEntries(rs *rowset, i int, id uint32, keep []uint64, out *rowset) (indexed bool, err error) {
	if lists, ok := keptPostings(rs, i, id, keep); ok {
		if len(lists) == 1 {
			return true, e.gatherRows(rs, lists[0], out)
		}
		sel := e.ensureBits((rs.n + 63) / 64)
		clear(sel)
		for _, rows := range lists {
			for _, ri := range rows {
				sel[ri>>6] |= 1 << (uint(ri) & 63)
			}
		}
		return true, e.gatherSelected(rs, sel, out)
	}
	sel, err := e.fillFilterBits(rs, i, id, keep)
	if err != nil {
		return false, err
	}
	return false, e.gatherSelected(rs, sel, out)
}

// keptPostings returns the non-empty posting lists of the entries
// filterEntries keeps, when rs is a pristine scan and they total at most
// rs.n/8 rows; ok is false otherwise, and the caller sweeps.
func keptPostings(rs *rowset, i int, id uint32, keep []uint64) (lists [][]int, ok bool) {
	if rs.base == nil {
		return nil, false
	}
	limit := rs.n / 8
	if keep == nil {
		rows := rs.base.LookupID(i, id)
		return [][]int{rows}, len(rows) <= limit
	}
	total := 0
	for w, word := range keep {
		for ; word != 0; word &= word - 1 {
			rows := rs.base.LookupID(i, uint32(w*64+bits.TrailingZeros64(word)))
			if len(rows) == 0 {
				continue
			}
			if total += len(rows); total > limit {
				return nil, false
			}
			lists = append(lists, rows)
		}
	}
	if len(lists) == 0 {
		lists = [][]int{nil} // no row holds a kept entry
	}
	return lists, true
}

// gatherRows copies the IDs of rows (ascending row numbers) into out.
func (e *executor) gatherRows(rs *rowset, rows []int, out *rowset) error {
	out.n = len(rows)
	out.enc = make([]uint32, 0, len(rows)*len(rs.cols))
	for k, ri := range rows {
		if k&(rowCheckInterval-1) == 0 {
			if err := e.checkpoint(); err != nil {
				return err
			}
		}
		out.enc = append(out.enc, rs.row(ri)...)
	}
	return nil
}

// chains threads a hash join's build rows per key: head(k) is the first
// build row with key k, next[r] the row after r with the same key (-1 ends
// a chain), in ascending row order, and run[r] the number of rows from r to
// the end of its chain, so a probe knows its match count before it emits.
type chains struct {
	dense []int32          // heads indexed by key, when the key space is small
	heads map[uint32]int32 // heads of a key space much larger than the build side
	next  []int32
	run   []int32
}

// buildChains threads rows 0..n-1 by their keys, row r's key at
// enc[r*st+off], from a key space of the given size.
func buildChains(enc []uint32, st, off, n, space int) *chains {
	c := &chains{next: make([]int32, n), run: make([]int32, n)}
	if space <= 4*n+1024 {
		c.dense = make([]int32, space)
		for i := range c.dense {
			c.dense[i] = -1
		}
	} else {
		c.heads = make(map[uint32]int32, n)
	}
	for r := n - 1; r >= 0; r-- {
		k := enc[r*st+off]
		h := c.head(k)
		c.next[r], c.run[r] = h, 1
		if h >= 0 {
			c.run[r] += c.run[h]
		}
		if c.dense != nil {
			c.dense[k] = int32(r)
		} else {
			c.heads[k] = int32(r)
		}
	}
	return c
}

// head returns the first build row with key k, or -1.
func (c *chains) head(k uint32) int32 {
	if c.dense != nil {
		return c.dense[k]
	}
	if h, ok := c.heads[k]; ok {
		return h
	}
	return -1
}

// probeKeys yields a hash join's probe keys in the build's key space, a
// block at a time: precomputed per probe row (ids), or one key column
// translated through remap — read from the column-major block when the probe
// side is a pristine scan (col), else strided from the row-major IDs.
type probeKeys struct {
	ids     []uint32
	col     *relation.ColData
	enc     []uint32
	st, off int
	remap   []uint32
}

// block fills pids with the keys of probe rows [lo, lo+nb) and sel with the
// mask of those that are not NoID.
func (p *probeKeys) block(pids []uint32, sel []uint64, lo, nb int) {
	pids = pids[:nb]
	switch {
	case p.ids != nil:
		copy(pids, p.ids[lo:lo+nb])
	case p.col != nil:
		for k, id := range p.col.IDs[lo : lo+nb] {
			pids[k] = p.remap[id]
		}
	default:
		for k, q := 0, lo*p.st+p.off; k < nb; k, q = k+1, q+p.st {
			pids[k] = p.remap[p.enc[q]]
		}
	}
	neqBits(sel, pids, relation.NoID)
}

// build is a hash join's build side, answering which build rows hold a key,
// in ascending order: chains threaded over the rows (c), or, when the build
// side is a pristine scan joined on one column, that table's value index
// for the column (t, col), which lists every ID's rows already.
type build struct {
	c   *chains
	t   *relation.Table
	col int
}

// probe is the hash join's probe and emit, in two passes over shard ranges
// of the probe side (shard-parallel when the worker target allows). The
// first counts each shard's matches from the chains' run lengths or the
// postings' lengths; a prefix sum then fixes every shard's output offset,
// out's IDs are allocated once at their exact size, and the second pass
// writes each match's left and right IDs in place. Output order is
// ascending probe row, then ascending build row, whatever the shard layout.
func (e *executor) probe(left, right *rowset, pk *probeKeys, b build, out *rowset) error {
	lst, rst := len(left.cols), len(right.cols)
	width := lst + rst
	n := left.n
	offs := make([]int, shardsOf(n, e.shardSize())+1)
	pass := func(fill bool) error {
		return e.forEachShard(n, func(s, shLo, shHi int) error {
			var sel [blockWords]uint64
			var pids [relation.BlockSize]uint32
			var idxBuf [relation.BlockSize]int32
			o, matches := 0, 0
			if fill {
				o = offs[s] * width // fixed by the prefix sum between the passes
			}
			for lo := shLo; lo < shHi; lo += relation.BlockSize {
				if err := e.pollCtx(); err != nil {
					return err
				}
				nb := min(shHi-lo, relation.BlockSize)
				pk.block(pids[:], sel[:], lo, nb)
				for _, k := range selIndexes(idxBuf[:0], sel[:], nb) {
					if b.t != nil {
						rows := b.t.LookupID(b.col, pids[k])
						if !fill {
							matches += len(rows)
							continue
						}
						lrow := left.row(lo + int(k))
						for _, rj := range rows {
							copy(out.enc[o:o+lst], lrow)
							copy(out.enc[o+lst:o+width], right.row(rj))
							o += width
						}
						continue
					}
					c := b.c
					rj := c.head(pids[k])
					if rj < 0 {
						continue
					}
					if !fill {
						matches += int(c.run[rj])
						continue
					}
					lrow := left.row(lo + int(k))
					for ; rj >= 0; rj = c.next[rj] {
						copy(out.enc[o:o+lst], lrow)
						copy(out.enc[o+lst:o+width], right.row(int(rj)))
						o += width
					}
				}
			}
			if !fill {
				offs[s+1] = matches
			}
			return nil
		})
	}
	if err := pass(false); err != nil {
		return err
	}
	for s := 1; s < len(offs); s++ {
		offs[s] += offs[s-1]
	}
	out.n = offs[len(offs)-1]
	out.enc = make([]uint32, out.n*width)
	return pass(true)
}

// batchGroupSlots assigns every row its group slot in block-at-a-time
// passes, replacing per-slot row lists with a flat rowSlot array plus
// per-slot sizes. Slots are numbered in first-seen row order and firsts[s]
// is the first row of slot s. Zero group columns means the single all-rows
// group; the first column assigns slots by ID, and every further column
// splits them (refineSlots).
func (e *executor) batchGroupSlots(rs *rowset, gidx []int) (rowSlot []int32, firsts []int, sizes []int32, err error) {
	n := rs.n
	st := len(rs.cols)
	rowSlot = make([]int32, n)
	if len(gidx) == 0 {
		return rowSlot, []int{0}, []int32{int32(n)}, nil
	}
	// Row ri's first key is ids[ri*stride+off]: the column-major block of
	// a pristine scan, else the row-major IDs.
	g := gidx[0]
	ids, stride, off := rs.enc, st, g
	if col := colView(rs, g); col != nil {
		ids, stride, off = col.IDs, 1, 0
	}
	var slotOf []int32
	var slots map[uint32]int32
	if nd := rs.dicts[g].Len(); nd <= 4*n+1024 {
		slotOf = make([]int32, nd)
		for i := range slotOf {
			slotOf[i] = -1
		}
	} else {
		slots = make(map[uint32]int32)
	}
	for lo := 0; lo < n; lo += relation.BlockSize {
		hi := min(lo+relation.BlockSize, n)
		if err := e.stepN(hi - lo); err != nil {
			return nil, nil, nil, err
		}
		for ri := lo; ri < hi; ri++ {
			k := ids[ri*stride+off]
			slot, ok := int32(-1), false
			if slotOf != nil {
				slot = slotOf[k]
				ok = slot >= 0
			} else {
				slot, ok = slots[k]
			}
			if !ok {
				slot = int32(len(firsts))
				if slotOf != nil {
					slotOf[k] = slot
				} else {
					slots[k] = slot
				}
				firsts = append(firsts, ri)
				sizes = append(sizes, 0)
			}
			rowSlot[ri] = slot
			sizes[slot]++
		}
	}
	for _, g := range gidx[1:] {
		if firsts, sizes, err = e.refineSlots(rs, rowSlot, g); err != nil {
			return nil, nil, nil, err
		}
	}
	return rowSlot, firsts, sizes, nil
}

// refineSlots splits every group slot by key column g, in place: the new
// slots are keyed by (old slot, ID) and numbered in first-seen row order.
func (e *executor) refineSlots(rs *rowset, rowSlot []int32, g int) (firsts []int, sizes []int32, err error) {
	st := len(rs.cols)
	slots := make(map[uint64]int32)
	for lo := 0; lo < rs.n; lo += relation.BlockSize {
		hi := min(lo+relation.BlockSize, rs.n)
		if err := e.stepN(hi - lo); err != nil {
			return nil, nil, err
		}
		for ri := lo; ri < hi; ri++ {
			key := uint64(uint32(rowSlot[ri]))<<32 | uint64(rs.enc[ri*st+g])
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
	return firsts, sizes, nil
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
