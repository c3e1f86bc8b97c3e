package relation

// Column-major view of a frozen table's dictionary encoding. The row-major
// enc array (see Table.Freeze) is the executor's tuple-at-a-time layout; the
// batch kernels instead want each attribute's IDs contiguous so a 1024-ID
// block is one cache-friendly sweep. Freeze builds both: the transpose costs
// one pass over the encoded tuples and is immutable afterwards, so ColData is
// shared by unsynchronized concurrent readers exactly like the dictionaries.

// BlockSize is the number of rows a batch kernel processes per inner loop:
// 1024 IDs (4 KiB) fit comfortably in L1 alongside a selection vector, and it
// equals rowCheckInterval in the executor so per-block cancellation polls
// keep the same responsiveness as the per-row amortized checks. A multiple of
// 64 so block boundaries are word-aligned in the selection bitsets.
const BlockSize = 1024

// Blocks returns how many BlockSize blocks cover n rows (the last one may be
// partial).
func Blocks(n int) int { return (n + BlockSize - 1) / BlockSize }

// ColData is one attribute's dictionary IDs stored contiguously. IDs[i] is
// the ID of row i's value — the same ID the row-major encoding stores, so
// either layout can verify the other. A NULL row holds NullID, so the IDs
// alone decide value identity; no side structure marks NULLs.
type ColData struct {
	// IDs holds the column's dictionary IDs, one per row, contiguous.
	IDs []uint32
}

// Len returns the number of rows.
func (c *ColData) Len() int { return len(c.IDs) }

// Block returns the b'th BlockSize slice of IDs; the last block is short when
// the row count is not a multiple of BlockSize.
func (c *ColData) Block(b int) []uint32 {
	lo := b * BlockSize
	hi := lo + BlockSize
	if hi > len(c.IDs) {
		hi = len(c.IDs)
	}
	return c.IDs[lo:hi]
}
