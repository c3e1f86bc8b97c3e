// Incremental freeze: ExtendFrozen/ExtendFrozenDatabase build the next
// epoch's frozen tables from the previous epoch's plus only the new rows, in
// O(new rows + touched index entries + per-epoch slice headers) instead of
// the O(total rows) a from-scratch Freeze costs.
//
// The construction leans on three invariants the frozen layout already has:
//
//   - Dictionary-ID prefix stability: a full freeze reserves NullID and
//     then interns values in row order, so the base's dictionary is exactly
//     the prefix of the full data's dictionary. Dict.Extend layers a private
//     tail over the immutable base, and encoding only the new rows assigns
//     the very same IDs a full re-freeze would.
//   - Append-only row order: new rows get row ids beyond the base's, so
//     every value-index posting list and every column stays sorted/aligned
//     by appending — full 1024-row ColData blocks from the previous epoch
//     are carried by reference and only the partial tail block plus new
//     blocks change.
//   - Immutability of published epochs: old-epoch readers never look past
//     their own slice lengths, so spare capacity beyond them is writable by
//     exactly one successor. A one-shot claim (Table.tailClaimed) grants
//     that ownership to the first delta built from a base; a second delta
//     from the same base (a branch) falls back to copy-on-write.
//
// The result is byte-identical — dictionaries, row-major encoding, column
// blocks and postings — to NewTable+AppendShared+Freeze over the same data;
// the differential suites pin this.
package relation

import "fmt"

// DeltaStats summarizes what one incremental freeze reused versus rebuilt;
// core.Live feeds them into the kwagg_epoch_* metrics.
type DeltaStats struct {
	// NewRows is the number of appended tuples, summed over tables.
	NewRows int
	// ReusedBlocks counts per-column ColData blocks carried from the
	// previous epoch by reference (including every block of tables that had
	// no new rows and were shared whole).
	ReusedBlocks int
	// CopiedBlocks counts per-column blocks that had to be re-materialized
	// because the base's backing capacity was exhausted or already claimed.
	CopiedBlocks int
	// NewDictEntries counts values interned into dictionary tails.
	NewDictEntries int
	// TouchedPostings counts value-index posting lists that received new
	// row ids.
	TouchedPostings int
	// SharedTables counts tables carried into the new epoch untouched.
	SharedTables int
}

func (s *DeltaStats) add(o DeltaStats) {
	s.NewRows += o.NewRows
	s.ReusedBlocks += o.ReusedBlocks
	s.CopiedBlocks += o.CopiedBlocks
	s.NewDictEntries += o.NewDictEntries
	s.TouchedPostings += o.TouchedPostings
	s.SharedTables += o.SharedTables
}

// ExtendFrozenDatabase builds the next epoch's database from a frozen base
// plus per-table new rows (keyed by lower-cased table name, in ingest
// order). Tables without new rows are shared by pointer; the rest are
// extended via ExtendFrozen; base's keyword index, if built (Database.Index),
// is patched with only the new rows. The base is never modified in a way its
// concurrent readers can observe. Unknown table names error.
func ExtendFrozenDatabase(base *Database, rows map[string][]Tuple) (*Database, DeltaStats, error) {
	var stats DeltaStats
	for name := range rows {
		if base.Table(name) == nil {
			return nil, stats, fmt.Errorf("relation: extend: unknown table %q", name)
		}
	}
	next := NewDatabase(base.Name)
	from := make(map[string]int, len(base.order))
	for _, key := range base.order {
		t := base.tables[key]
		from[key] = t.Len()
		nt, st, err := ExtendFrozen(t, rows[key])
		if err != nil {
			return nil, stats, err
		}
		stats.add(st)
		next.Add(nt)
	}
	base.idxMu.Lock()
	defer base.idxMu.Unlock()
	if base.idx != nil {
		next.idx, _ = base.idx.AppendRows(next, from)
	}
	return next, stats, nil
}

// ExtendFrozen builds a frozen table holding base's rows followed by add,
// reusing base's dictionaries, column blocks and postings wherever possible
// (see the package comment for the cost model and the safety argument). With
// no new rows it returns base itself. The result is frozen from birth and
// shares base's Schema; base must already be frozen.
func ExtendFrozen(base *Table, add []Tuple) (*Table, DeltaStats, error) {
	var stats DeltaStats
	if !base.frozen {
		return nil, stats, fmt.Errorf("relation: extend: %s is not frozen", base.Schema.Name)
	}
	ncols := len(base.Schema.Attributes)
	for _, tu := range add {
		if len(tu) != ncols {
			return nil, stats, fmt.Errorf("relation: %s expects %d values, got %d",
				base.Schema.Name, ncols, len(tu))
		}
	}
	n0 := len(base.Tuples)
	if len(add) == 0 {
		stats.ReusedBlocks += Blocks(n0) * ncols
		stats.SharedTables++
		return base, stats, nil
	}
	stats.NewRows = len(add)

	// One-shot ownership of base's spare capacity: on success this delta may
	// extend base's backing arrays in place past their lengths; otherwise
	// (a sibling delta got there first) every touched slice is copied.
	claim := base.tailClaimed.CompareAndSwap(false, true)

	nt := &Table{Schema: base.Schema, frozen: true}
	nt.Tuples = extendTuples(base.Tuples, add, claim)

	// Dictionaries: encode only the new rows into private tails. A column
	// whose tail changed nothing keeps the base dictionary itself,
	// preserving pointer identity (and its cached remap tables) across
	// epochs.
	tails := make([]*Dict, ncols)
	for j := range tails {
		tails[j] = base.dicts[j].Extend()
	}
	newEnc := make([]uint32, len(add)*ncols)
	for i, tu := range add {
		for j, v := range tu {
			newEnc[i*ncols+j] = tails[j].encode(v)
		}
	}
	nt.dicts = make([]*Dict, ncols)
	for j, d := range tails {
		if d.grew() {
			nt.dicts[j] = d.seal()
			stats.NewDictEntries += len(d.vals)
		} else {
			nt.dicts[j] = base.dicts[j]
		}
	}

	// Row-major encoding: the base's array is a prefix of the new one.
	nt.enc, _ = extendU32(base.enc, newEnc, claim)

	// Column blocks: full blocks from the base are reused by reference when
	// the claim lets us extend in place; otherwise the column is copied once
	// into a private array with headroom, so the *next* epoch extends in
	// place again.
	nt.cols = make([]ColData, ncols)
	for j := 0; j < ncols; j++ {
		colNew := make([]uint32, len(add))
		for i := range add {
			colNew[i] = newEnc[i*ncols+j]
		}
		ids, shared := extendU32(base.cols[j].IDs, colNew, claim)
		nt.cols[j].IDs = ids
		if shared {
			stats.ReusedBlocks += Blocks(n0)
		} else {
			stats.CopiedBlocks += Blocks(n0)
		}
	}

	// Value indexes: the outer per-ID table is copied (slice headers only,
	// O(distinct)); untouched posting lists are shared, touched ones are
	// extended in place under the claim or copied on first touch. New row
	// ids exceed all old ones, so appending keeps every list ascending.
	nt.post = make([][][]int, ncols)
	for j := 0; j < ncols; j++ {
		basePost := base.post[j]
		p := make([][]int, nt.dicts[j].Len())
		copy(p, basePost)
		for i := range add {
			id := newEnc[i*ncols+j]
			origLen := 0
			if int(id) < len(basePost) {
				origLen = len(basePost[id])
			}
			if len(p[id]) == origLen {
				stats.TouchedPostings++
			}
			if claim || len(p[id]) != origLen {
				p[id] = append(p[id], n0+i)
			} else {
				b := p[id]
				p[id] = append(b[:len(b):len(b)], n0+i)
			}
		}
		nt.post[j] = p
	}
	return nt, stats, nil
}

// growCap picks the capacity for a copied backing array: enough headroom
// that subsequent same-sized commits extend in place instead of copying
// again (amortized O(new rows) per commit).
func growCap(n int) int { return n + n/4 + BlockSize }

// extendU32 returns a slice holding old followed by add. Under claim and
// with spare capacity it extends old's backing in place (shared=true: the
// prefix is carried by reference); otherwise it copies into a private array
// with headroom.
func extendU32(old []uint32, add []uint32, claim bool) (out []uint32, shared bool) {
	n0, n1 := len(old), len(old)+len(add)
	if claim && cap(old) >= n1 {
		out = old[:n1]
		copy(out[n0:], add)
		return out, true
	}
	out = make([]uint32, n1, growCap(n1))
	copy(out, old)
	copy(out[n0:], add)
	return out, false
}

// extendTuples is extendU32 for the boxed tuple headers.
func extendTuples(old []Tuple, add []Tuple, claim bool) []Tuple {
	n0, n1 := len(old), len(old)+len(add)
	if claim && cap(old) >= n1 {
		out := old[:n1]
		copy(out[n0:], add)
		return out
	}
	out := make([]Tuple, n1, growCap(n1))
	copy(out, old)
	copy(out[n0:], add)
	return out
}
