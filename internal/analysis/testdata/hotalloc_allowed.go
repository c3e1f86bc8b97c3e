// Allowed fixture for hotalloc's boxed-value rule: the Result decode boxes
// every cell, but into storage allocated once outside its loop; a loop over
// dictionary IDs appends IDs, not values.
package sqldb

import "kwagg/internal/relation"

type rowset struct {
	dicts []*relation.Dict
	enc   []uint32
	n     int
}

// decode allocates the cells and the row headers once, then fills them.
func decode(rs *rowset) []relation.Tuple {
	nc := len(rs.dicts)
	cells := make([]relation.Value, rs.n*nc)
	rows := make([]relation.Tuple, rs.n)
	for ri := range rows {
		row := relation.Tuple(cells[ri*nc : (ri+1)*nc : (ri+1)*nc])
		for k := range row {
			row[k] = rs.dicts[k].Value(rs.enc[ri*nc+k])
		}
		rows[ri] = row
	}
	return rows
}

// gather copies selected rows' IDs.
func gather(rs *rowset, rows []int) []uint32 {
	nc := len(rs.dicts)
	out := make([]uint32, 0, len(rows)*nc)
	for _, ri := range rows {
		out = append(out, rs.enc[ri*nc:(ri+1)*nc]...)
	}
	return out
}
