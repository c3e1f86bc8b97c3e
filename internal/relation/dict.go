package relation

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// NoID is the sentinel dictionary ID meaning "no such value"; it is returned
// by remapping tables for values absent from the target dictionary. Real IDs
// are dense from 0, so NoID can never collide with one.
const NoID = ^uint32(0)

// NullID is the dictionary ID every Dict reserves for SQL NULL. ID never
// returns it and Remap maps it to NoID, so NULL rows group together (one ID)
// but never match a constant or join.
const NullID uint32 = 0

// maxDictDepth bounds the delta-dictionary chain length (see Extend): a
// lookup walks at most this many layers, and an Extend that would exceed it
// flattens the chain back into a single layer first. Flattening costs
// O(distinct) but happens at most once per maxDictDepth epochs, so the
// amortized per-commit cost stays O(distinct/maxDictDepth).
const maxDictDepth = 8

// remapCacheMax bounds the number of remap tables cached per dictionary.
// Long-lived delta chains reuse base dictionaries across many epochs; without
// a cap every epoch's partner dictionaries would pin a translation table (and
// the partner itself) forever.
const remapCacheMax = 128

// Dict is a per-column value dictionary and the engine's single definition
// of "same value": every distinct stored value gets a dense uint32 ID, and
// two values of a column share an ID exactly when both are NULL, or neither
// is and Compare returns 0. ID NullID is reserved for NULL; every other
// value is keyed by its Format rendering, which renders float -0 as 0 and
// keeps the string "NULL" apart from NULL. Across types the key is the
// rendering too (int64(5), 5.0 and "5" share an ID), matching Compare's
// string fallback.
//
// A Dict is built while freezing a table and never mutated afterwards, so it
// is safe for unsynchronized concurrent readers.
//
// Dictionaries grow across live-ingest epochs as deltas: Extend returns a new
// Dict layering a private tail (IDs from base.Len() up) over the immutable
// base, so committing M new rows interns only their unseen values instead of
// re-encoding the whole column. ID assignment is identical to a from-scratch
// build of the full data — both intern in row order, NullID is reserved up
// front, and the base's IDs are a prefix by construction — which is what
// keeps delta-built epochs byte-identical to full freezes.
type Dict struct {
	base    *Dict             // previous layer, nil for a full build
	start   uint32            // first ID owned by this layer (== base.Len())
	depth   int               // layers below this one
	ids     map[string]uint32 // Format(v) -> id for non-NULL v, this layer's tail only
	vals    []Value           // id start+i -> first value encoded with that id
	allStr  bool              // every encoded non-NULL value (all layers) was a string
	hasNull bool              // some encoded value (any layer) was NULL
	remaps  sync.Map          // *Dict -> []uint32 translation tables (see RemapCached)
	remapN  atomic.Int32      // cached remap tables, capped at remapCacheMax
}

// newDict returns an empty full-build dictionary: only the NullID slot.
func newDict() *Dict {
	return &Dict{ids: make(map[string]uint32), vals: []Value{nil}, allStr: true}
}

// Extend returns a new dictionary sharing this one as its immutable base:
// encode on the result interns unseen values into a private tail starting at
// d.Len(), leaving d untouched (old-epoch readers keep using it
// concurrently). When the layer chain would exceed maxDictDepth the base is
// flattened first, bounding lookup cost.
func (d *Dict) Extend() *Dict {
	base := d
	if d.depth >= maxDictDepth {
		base = d.flatten()
	}
	return &Dict{
		base:    base,
		start:   uint32(base.Len()),
		depth:   base.depth + 1,
		ids:     make(map[string]uint32),
		allStr:  base.allStr,
		hasNull: base.hasNull,
	}
}

// flatten collapses the layer chain into a single fresh dictionary with the
// same ID assignment. Keys live in exactly one layer, so the maps merge
// without re-rendering any value.
func (d *Dict) flatten() *Dict {
	n := d.Len()
	nd := &Dict{ids: make(map[string]uint32, n), vals: make([]Value, n), allStr: d.allStr, hasNull: d.hasNull}
	for e := d; e != nil; e = e.base {
		copy(nd.vals[e.start:int(e.start)+len(e.vals)], e.vals)
		for k, id := range e.ids {
			nd.ids[k] = id
		}
	}
	return nd
}

// grew reports whether this delta layer changed anything over its base: it
// interned a new value or the column's first NULL. A layer that did not may
// be dropped for its base (preserving pointer identity and its remap caches
// across epochs).
func (d *Dict) grew() bool { return len(d.vals) > 0 || d.hasNull != d.base.hasNull }

// encode interns v and returns its ID: NullID for NULL, otherwise the ID of
// v's Format rendering, assigning the next dense ID to a rendering not seen
// before (in this layer or any base layer).
func (d *Dict) encode(v Value) uint32 {
	if v == nil {
		d.hasNull = true
		return NullID
	}
	if _, ok := v.(string); !ok {
		d.allStr = false
	}
	key := Format(v)
	for e := d; e != nil; e = e.base {
		if id, ok := e.ids[key]; ok {
			return id
		}
	}
	id := d.start + uint32(len(d.vals))
	d.ids[key] = id
	d.vals = append(d.vals, v)
	return id
}

// ID returns the dictionary ID of v, matching by Format rendering; ok is
// false when no stored value renders equally, and always for NULL, which
// equals nothing. The common constant types (string, int64) avoid
// allocating the rendering.
func (d *Dict) ID(v Value) (uint32, bool) {
	var key string
	switch x := v.(type) {
	case nil:
		return NoID, false
	case string:
		key = x
	case int64:
		var buf [20]byte
		b := strconv.AppendInt(buf[:0], x, 10)
		for e := d; e != nil; e = e.base {
			if id, ok := e.ids[string(b)]; ok {
				return id, true
			}
		}
		return NoID, false
	default:
		key = Format(v)
	}
	for e := d; e != nil; e = e.base {
		if id, ok := e.ids[key]; ok {
			return id, true
		}
	}
	return NoID, false
}

// Len returns the size of the dictionary's ID space across all layers:
// the NullID slot plus one ID per distinct non-NULL value.
func (d *Dict) Len() int { return int(d.start) + len(d.vals) }

// Value decodes an ID back to a stored value: the first value that was
// encoded with that ID, or nil for NullID. IDs come from the same
// dictionary's encode/ID.
func (d *Dict) Value(id uint32) Value {
	e := d
	for e.base != nil && id < e.start {
		e = e.base
	}
	return e.vals[id-e.start]
}

// HasNull reports whether any encoded value was NULL, i.e. whether NullID
// occurs in the column. Without it, COUNT over the column is the row count.
func (d *Dict) HasNull() bool { return d.hasNull }

// AllStrings reports whether every encoded non-NULL value was a string.
// Kernels that evaluate a predicate once per dictionary entry instead of once
// per row (e.g. CONTAINS, see ContainsFold) require this: with mixed types
// one ID can cover values of different dynamic types, and the per-entry
// answer would be wrong for some of its rows. NULL rows do not break it:
// they hold NullID, which no per-entry answer selects.
func (d *Dict) AllStrings() bool { return d.allStr }

// ContainsFold is CONTAINS evaluated once per dictionary entry: a bitset over
// the ID space whose bit id is set when the value stored under id renders
// (Format) to a string containing needle, ignoring ASCII case (see the
// package-level ContainsFold). NullID's bit is never set. Under AllStrings a
// row passes exactly when its ID's bit is set. In a column that also holds
// other types one ID can stand for both int64(5) and "5", and only the
// string rows pass, so there the caller also checks each selected row's
// value is a string. The bitset is fresh per call; the caller owns it.
func (d *Dict) ContainsFold(needle string) []uint64 {
	bits := make([]uint64, (d.Len()+63)/64)
	for e := d; e != nil; e = e.base {
		for i, v := range e.vals {
			if v == nil {
				continue // the NullID slot
			}
			s, ok := v.(string)
			if !ok {
				s = Format(v)
			}
			if ContainsFold(s, needle) {
				id := int(e.start) + i
				bits[id>>6] |= 1 << (uint(id) & 63)
			}
		}
	}
	return bits
}

// Remap builds a translation table from this dictionary's ID space into
// to's: out[id] is the ID in to of the value this dictionary stores under
// id, or NoID when to has no value with that formatted form — and always
// for NullID, so NULL never joins. Hash joins use
// it to probe a build table keyed in another column's ID space with O(1) per
// row after O(distinct) setup.
func (d *Dict) Remap(to *Dict) []uint32 {
	out := make([]uint32, d.Len())
	for e := d; e != nil; e = e.base {
		for i, v := range e.vals {
			tid, ok := to.ID(v)
			if !ok {
				tid = NoID
			}
			out[int(e.start)+i] = tid
		}
	}
	return out
}

// RemapCached is Remap with the translation table cached on d per target
// dictionary. Frozen dictionaries are immutable, so a table computed once is
// valid forever; joins between the same column pair — the common case across
// a keyword query's top-k interpretations — pay the O(distinct) build once.
// Safe for concurrent use; a duplicated build is benign. The cache is capped
// (base dictionaries outlive many epochs' partners); past the cap the table
// is computed uncached.
func (d *Dict) RemapCached(to *Dict) []uint32 {
	if v, ok := d.remaps.Load(to); ok {
		return v.([]uint32)
	}
	if d.remapN.Load() >= remapCacheMax {
		return d.Remap(to)
	}
	m, loaded := d.remaps.LoadOrStore(to, d.Remap(to))
	if !loaded {
		d.remapN.Add(1)
	}
	return m.([]uint32)
}
