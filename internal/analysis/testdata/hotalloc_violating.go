// Violating fixture for hotalloc's boxed-value rule: per-row make, append
// and composite literals of relation.Value and relation.Tuple in loops.
package sqldb

import "kwagg/internal/relation"

type rowset struct {
	dicts []*relation.Dict
	enc   []uint32
	n     int
}

// decodeRows boxes one tuple per row with make.
func decodeRows(rs *rowset) []relation.Tuple {
	var rows []relation.Tuple
	for ri := 0; ri < rs.n; ri++ {
		row := make(relation.Tuple, len(rs.dicts))
		for k := range row {
			row[k] = rs.dicts[k].Value(rs.enc[ri*len(rs.dicts)+k])
		}
		rows = append(rows, row)
	}
	return rows
}

// pairs boxes a composite literal per row.
func pairs(rs *rowset) [][]relation.Value {
	out := make([][]relation.Value, 0, rs.n)
	for ri := 0; ri < rs.n; ri++ {
		out = append(out, []relation.Value{rs.dicts[0].Value(rs.enc[ri])})
	}
	return out
}

// column appends a boxed value per row.
func column(rs *rowset) []relation.Value {
	var vals []relation.Value
	for ri := 0; ri < rs.n; ri++ {
		vals = append(vals, rs.dicts[0].Value(rs.enc[ri]))
	}
	return vals
}
