package sqldb

import (
	"fmt"

	"kwagg/internal/relation"
	"kwagg/internal/sqlast"
)

// Semi-join reduction into derived tables. Every statement the translator
// generates is an acyclic join, so the semi-join preprocessing of the
// Yannakakis algorithm applies: a derived table — a P2 DISTINCT projection
// of an n-ary relationship, a P3 normalized-view subquery — is not
// materialized over its whole base relation but over the rows whose join
// column holds a key its already-evaluated partners hold, filtered at the
// subquery's base scan before DISTINCT or GROUP BY run. The pass reads and
// writes dictionary IDs only and leaves the SQL text untouched.
//
// Order (evalFrom): base sources and their local filters first; then the
// derived tables filtered on their own (a WHERE of their own, a local
// predicate, or a push from the enclosing query); then, repeatedly, the
// pending derived table whose smallest restricted partner is smallest,
// reduced by every restricted partner it has; leftovers whole. Only a
// restricted source restricts a partner — a pristine scan holds every key,
// and copying it costs more than it saves — and a push whose key set covers
// more than half of the target column's dictionary is skipped for the same
// reason.
//
// Soundness: the pushed filter must commute with the subquery. It does on an
// output column that is a plain column of the subquery's FROM list when the
// subquery groups by that column (whole groups are kept or dropped), or has
// neither GROUP BY nor aggregates (a filter on a projected column commutes
// with DISTINCT, joins and other filters). It never does on an aggregate
// output, and never under LIMIT. A derived table nested in the subquery
// receives the push recursively. Key sets never hold NullID, and NULL never
// joins, so rows a push drops for NULL could not have joined either.

// semiPush restricts output column col of the query it is handed to: only
// rows whose column holds an ID set in keys survive. keys is a bitset over
// the dictionary of the base-table column col resolves to (see semiDict), so
// every level of nesting filters with the same set.
type semiPush struct {
	col  int
	keys []uint64
	// For Explain: the key count, the restricted column's name where the
	// push was made, and the partner column the keys came from.
	n       int
	target  string
	partner boundCol
}

// String renders the push as Explain prints it.
func (p semiPush) String() string {
	return fmt.Sprintf("%s ∈ %s.%s (%d keys)", p.target, p.partner.table, p.partner.name, p.n)
}

// semiEdge is a join conjunct that can reduce a derived table: output column
// toCol of FROM entry to equals column fromCol of FROM entry from, and a
// filter on toCol commutes with the subquery. dict is the dictionary of the
// base-table column toCol resolves to.
type semiEdge struct {
	from, fromCol int
	to, toCol     int
	dict          *relation.Dict
}

// semiRoute maps output column k of q to the FROM entry and column it is a
// copy of, reporting false when a filter on that column does not commute
// with q (see the soundness rule above) or the column does not resolve.
// cols are the FROM entries' columns (fromCols).
func semiRoute(q *sqlast.Query, cols [][]boundCol, k int) (from, col int, ok bool) {
	if q.Limit != nil || k >= len(q.Select) {
		return 0, 0, false
	}
	ce, isCol := q.Select[k].Expr.(sqlast.ColExpr)
	if !isCol {
		return 0, 0, false
	}
	from, col, ok = resolveFrom(cols, ce.Col)
	switch {
	case !ok:
		return 0, 0, false
	case len(q.GroupBy) > 0:
		for _, g := range q.GroupBy {
			if gf, gc, gok := resolveFrom(cols, g); gok && gf == from && gc == col {
				return from, col, true
			}
		}
		return 0, 0, false
	case hasAggregate(q):
		return 0, 0, false
	}
	return from, col, true
}

// resolveFrom resolves c over the columns of every FROM entry, as the
// joined rowset resolves it, returning the entry that binds it and the
// column's position within that entry.
func resolveFrom(cols [][]boundCol, c sqlast.Col) (from, col int, ok bool) {
	var all rowset
	for _, cs := range cols {
		all.cols = append(all.cols, cs...)
	}
	i, err := all.resolve(c)
	if err != nil {
		return 0, 0, false
	}
	for from = 0; i >= len(cols[from]); from++ {
		i -= len(cols[from])
	}
	return from, i, true
}

// semiDict returns the dictionary of the base-table column output column k
// of q copies, following nested derived tables, when a push onto it is
// sound at every level; nil otherwise or when that table is not encoded.
func (e *executor) semiDict(q *sqlast.Query, k int) *relation.Dict {
	cols := make([][]boundCol, len(q.From))
	for i, tr := range q.From {
		c, err := e.fromCols(tr)
		if err != nil {
			return nil
		}
		cols[i] = c
	}
	f, c, ok := semiRoute(q, cols, k)
	if !ok {
		return nil
	}
	tr := q.From[f]
	if tr.Subquery != nil {
		return e.semiDict(tr.Subquery, c)
	}
	dicts, _, ok := e.db.Table(tr.Name).Encoding()
	if !ok {
		return nil
	}
	return dicts[c]
}

// semiEdges lists the join conjuncts of q that can reduce one of its derived
// tables: both sides resolve, unambiguously over the whole FROM list, to
// columns of two different entries, and the push onto the derived side is
// sound.
func (e *executor) semiEdges(q *sqlast.Query, cols [][]boundCol) []semiEdge {
	var edges []semiEdge
	for _, p := range q.Where {
		jp, ok := p.(sqlast.JoinPred)
		if !ok {
			continue
		}
		lf, lc, lok := resolveFrom(cols, jp.Left)
		rf, rc, rok := resolveFrom(cols, jp.Right)
		if !lok || !rok || lf == rf {
			continue
		}
		for _, ed := range [2]semiEdge{
			{from: lf, fromCol: lc, to: rf, toCol: rc},
			{from: rf, fromCol: rc, to: lf, toCol: lc},
		} {
			if sub := q.From[ed.to].Subquery; sub != nil {
				if ed.dict = e.semiDict(sub, ed.toCol); ed.dict != nil {
					edges = append(edges, ed)
				}
			}
		}
	}
	return edges
}

// semiPushes builds the pushes onto derived FROM entry i from its evaluated
// restricted partners, skipping any whose key set covers more than half of
// the target column's dictionary.
func (e *executor) semiPushes(fl *fromList, cols [][]boundCol, edges []semiEdge, restricted []bool, i int) ([]semiPush, error) {
	var out []semiPush
	for _, ed := range edges {
		if ed.to != i || !restricted[ed.from] {
			continue
		}
		src := fl.sources[ed.from]
		keys, n, err := e.semiKeys(src, ed.fromCol, ed.dict)
		if err != nil {
			return nil, err
		}
		if 2*n > ed.dict.Len() {
			continue
		}
		out = append(out, semiPush{col: ed.toCol, keys: keys, n: n,
			target: cols[i][ed.toCol].name, partner: src.cols[ed.fromCol]})
	}
	return out, nil
}

// semiKeys returns the key set column i of rs holds, translated into the
// target dictionary to, and its size: bit id of the result is set when some
// row's value has ID id in to. The translation is the hash join's cached
// remap table, so the push and the join agree on equality by construction;
// it sends NullID to NoID, so NULL is never a key. One pass over the rows,
// polling cancellation per block.
func (e *executor) semiKeys(rs *rowset, i int, to *relation.Dict) ([]uint64, int, error) {
	remap := rs.dicts[i].RemapCached(to)
	keys := make([]uint64, (to.Len()+63)/64)
	st, n := len(rs.cols), rs.n
	for lo := 0; lo < n; lo += relation.BlockSize {
		hi := min(lo+relation.BlockSize, n)
		if err := e.stepN(hi - lo); err != nil {
			return nil, 0, err
		}
		for p := lo*st + i; p < hi*st; p += st {
			if t := remap[rs.enc[p]]; t != relation.NoID {
				keys[t>>6] |= 1 << (t & 63)
			}
		}
	}
	return keys, countBits(keys), nil
}

// semiFilter keeps the rows of rs whose column i holds a key of keys, a
// bitset over rs.dicts[i]: the per-entry keep filter CONTAINS runs (see
// filterEntries), reporting whether the value index answered.
func (e *executor) semiFilter(rs *rowset, i int, keys []uint64) (*rowset, bool, error) {
	out := &rowset{cols: rs.cols, dicts: rs.dicts}
	indexed, err := e.filterEntries(rs, i, 0, keys, out)
	return out, indexed, err
}
