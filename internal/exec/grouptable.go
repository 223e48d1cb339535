package exec

import (
	"bytes"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/rowformat"
)

// groupTable assigns dense group ids to rows of key columns. It is the
// shared grouping structure behind hash aggregation and the hash-join
// build/probe maps, and it deliberately mirrors the paper's Section 6.3
// design: rows are hashed batch-at-a-time through the compute hash
// kernels (the same kernels hash repartitioning uses), group ids live in
// an open-addressing power-of-two table of (hash, id) slots, and the full
// encoded key is compared only on a 64-bit hash match. Growth rehashes the
// stored slot hashes — keys are never re-encoded.
//
// Two key layouts:
//
//   - primitive fast path: a single fixed-width integer-backed key column
//     (int8..int64, uint8..uint64, date32, timestamp, decimal) is keyed
//     directly by its 64-bit value bits plus a dedicated out-of-table null
//     group, skipping rowformat entirely;
//   - generic path: keys are rowformat-encoded once on first sight into an
//     append-only chunked arena (a full chunk is never copied again, so
//     inserting a group costs its own bytes however many came before),
//     and duplicate rows only re-encode into a reusable scratch buffer for
//     the equality check.
//
// The per-group arrays (keyRefs, fastVals) are sized whenever the slot
// table is — it bounds how many groups can exist before the next grow — so
// the steady-state assign path performs zero allocations and zero
// map-string conversions, and a new group never triggers a re-copy of the
// groups before it.
type groupTable struct {
	enc   *rowformat.Encoder
	types []*arrow.DataType

	// Open-addressing slots, power-of-two sized. slotGroup holds group
	// id + 1 so the zero value means empty.
	slotHash  []uint64
	slotGroup []uint32

	nGroups int

	// Generic path: encoded keys packed back-to-back in chunks that are
	// filled in order and never reallocated. keyRefs[g] locates group g's
	// key: chunk index << 32 | offset in the chunk. No length is stored:
	// row-format keys are self-delimiting (every column is a marker byte
	// plus a fixed width or a terminated string), so a key is compared and
	// decoded from where it starts.
	chunks   [][]byte
	cur      int // chunk being filled
	keyRefs  []uint64
	keyBytes int // total encoded bytes of all groups' keys

	// Primitive fast path.
	fast     bool
	fastVals []int64
	nullGid  int32 // group id of the null key, -1 when unseen

	// Reusable per-batch scratch.
	hashBuf []uint64
	scratch []byte
}

// fastPathType reports whether a single key of this type can be keyed
// directly by its integer value bits. Floats are excluded (-0.0/NaN
// normalization lives in rowformat), booleans and strings use the generic
// path.
func fastPathType(t *arrow.DataType) bool {
	switch t.ID {
	case arrow.INT8, arrow.INT16, arrow.INT32, arrow.INT64,
		arrow.UINT8, arrow.UINT16, arrow.UINT32, arrow.UINT64,
		arrow.DATE32, arrow.TIMESTAMP, arrow.DECIMAL:
		return true
	}
	return false
}

func newGroupTable(types []*arrow.DataType) (*groupTable, error) {
	return newGroupTableSized(types, 0)
}

// newGroupTableSized pre-sizes the slot table for an estimated number of
// distinct keys (0 means the default), avoiding rehash cascades on large
// builds without over-allocating for small ones.
func newGroupTableSized(types []*arrow.DataType, estKeys int) (*groupTable, error) {
	enc, err := rowformat.NewEncoder(types, nil)
	if err != nil {
		return nil, err
	}
	slots := 64
	for slots*3 < estKeys*4 { // keep load factor under 3/4 at estKeys
		slots *= 2
	}
	t := &groupTable{
		enc:       enc,
		types:     types,
		slotHash:  make([]uint64, slots),
		slotGroup: make([]uint32, slots),
		nullGid:   -1,
		fast:      len(types) == 1 && fastPathType(types[0]),
	}
	t.reserveGroups()
	return t, nil
}

// Arena chunk capacities double arenaChunkDoublings times from
// arenaChunkMin, so a table of a few groups allocates a kilobyte and a
// large one wastes at most the tail of a chunk.
const (
	arenaChunkMin       = 1 << 10
	arenaChunkDoublings = 10 // the largest chunk is 1 MiB
)

// reserveGroups sizes the per-group array for every group the slot table
// can hold before it next grows (3/4 load, plus the fast path's null group,
// which lives outside the slots).
func (t *groupTable) reserveGroups() {
	n := len(t.slotGroup)*3/4 + 1
	if t.fast {
		if cap(t.fastVals) < n {
			t.fastVals = append(make([]int64, 0, n), t.fastVals...)
		}
	} else if cap(t.keyRefs) < n {
		t.keyRefs = append(make([]uint64, 0, n), t.keyRefs...)
	}
}

// appendKey stores an encoded key in the arena and returns its keyRef.
func (t *groupTable) appendKey(key []byte) uint64 {
	t.keyBytes += len(key)
	for ; t.cur < len(t.chunks); t.cur++ {
		c := t.chunks[t.cur]
		if len(c)+len(key) <= cap(c) {
			t.chunks[t.cur] = append(c, key...)
			return uint64(t.cur)<<32 | uint64(len(c))
		}
	}
	size := max(arenaChunkMin<<min(len(t.chunks), arenaChunkDoublings), len(key))
	t.chunks = append(t.chunks, append(make([]byte, 0, size), key...))
	return uint64(t.cur) << 32
}

// keyFrom returns the arena bytes that start with group g's key (and run
// on to the end of its chunk).
func (t *groupTable) keyFrom(g uint32) []byte {
	ref := t.keyRefs[g]
	return t.chunks[ref>>32][uint32(ref):]
}

// keyEquals reports whether group g's key is exactly key. Both are
// encodings under the same encoder and the encoding is prefix-free, so the
// stored key equals key iff the arena holds key's bytes at g's position.
func (t *groupTable) keyEquals(g uint32, key []byte) bool {
	stored := t.keyFrom(g)
	return len(stored) >= len(key) && bytes.Equal(stored[:len(key)], key)
}

func (t *groupTable) numGroups() int { return t.nGroups }

// memUsage is the table's heap footprint for memory accounting: the slot
// table, the per-group arrays at their reserved capacity, and every arena
// chunk written since the last reset.
func (t *groupTable) memUsage() int64 {
	n := int64(len(t.slotHash))*12 + // slotHash + slotGroup
		int64(cap(t.keyRefs))*8 +
		int64(cap(t.fastVals))*8
	for i := 0; i < len(t.chunks) && i <= t.cur; i++ {
		n += int64(cap(t.chunks[i]))
	}
	return n
}

// reset clears all groups but keeps allocated capacity for reuse (early
// partial flushes and spills churn the table).
func (t *groupTable) reset() {
	for i := range t.slotGroup {
		t.slotGroup[i] = 0
	}
	t.nGroups = 0
	for i := range t.chunks {
		t.chunks[i] = t.chunks[i][:0]
	}
	t.cur = 0
	t.keyRefs = t.keyRefs[:0]
	t.keyBytes = 0
	t.fastVals = t.fastVals[:0]
	t.nullGid = -1
}

// grow doubles the slot table, re-inserting the stored hashes. Keys are
// not touched: every live slot already carries its full 64-bit hash.
func (t *groupTable) grow() {
	oldHash, oldGroup := t.slotHash, t.slotGroup
	n := len(oldHash) * 2
	t.slotHash = make([]uint64, n)
	t.slotGroup = make([]uint32, n)
	mask := uint64(n - 1)
	for i, g := range oldGroup {
		if g == 0 {
			continue
		}
		h := oldHash[i]
		slot := h & mask
		for t.slotGroup[slot] != 0 {
			slot = (slot + 1) & mask
		}
		t.slotHash[slot] = h
		t.slotGroup[slot] = g
	}
	t.reserveGroups()
}

// assign maps each of the first numRows rows of the key columns to a
// dense group id, creating groups as needed. out is reused when it has
// capacity.
func (t *groupTable) assign(cols []arrow.Array, numRows int, out []uint32) []uint32 {
	t.hashBuf = compute.HashBatch(cols, numRows, t.hashBuf)
	return t.assignHashed(cols, numRows, t.hashBuf, out)
}

// assignHashed is assign with caller-provided row hashes (which must come
// from compute.HashBatch over the same columns).
func (t *groupTable) assignHashed(cols []arrow.Array, numRows int, hashes []uint64, out []uint32) []uint32 {
	if cap(out) < numRows {
		out = make([]uint32, numRows)
	} else {
		out = out[:numRows]
	}
	if t.fast {
		switch a := cols[0].(type) {
		case *arrow.Int8Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Int16Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Int32Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Int64Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Uint8Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Uint16Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Uint32Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.Uint64Array:
			assignFast(t, a, numRows, hashes, out)
		case *arrow.NullArray:
			// An all-null batch for an integer-typed key: every row lands
			// in the dedicated null group.
			if t.nullGid < 0 {
				t.nullGid = int32(t.nGroups)
				t.fastVals = append(t.fastVals, 0)
				t.nGroups++
			}
			for i := 0; i < numRows; i++ {
				out[i] = uint32(t.nullGid)
			}
		default:
			panic("exec: groupTable fast path got non-integer array " + cols[0].DataType().String())
		}
		return out
	}
	t.assignGeneric(cols, numRows, hashes, out)
	return out
}

// assignFast is the single-primitive-column path: group identity is the
// 64-bit value bits, nulls go to a dedicated group outside the slot table.
func assignFast[T arrow.Number](t *groupTable, a *arrow.NumericArray[T], numRows int, hashes []uint64, out []uint32) {
	vals := a.Values()
	hasNulls := a.NullCount() > 0
	for i := 0; i < numRows; i++ {
		if hasNulls && a.IsNull(i) {
			if t.nullGid < 0 {
				t.nullGid = int32(t.nGroups)
				t.fastVals = append(t.fastVals, 0)
				t.nGroups++
			}
			out[i] = uint32(t.nullGid)
			continue
		}
		v := int64(vals[i])
		if (t.nGroups+1)*4 > len(t.slotGroup)*3 {
			t.grow()
		}
		h := hashes[i]
		mask := uint64(len(t.slotGroup) - 1)
		slot := h & mask
		for {
			g := t.slotGroup[slot]
			if g == 0 {
				gid := uint32(t.nGroups)
				t.slotHash[slot] = h
				t.slotGroup[slot] = gid + 1
				t.fastVals = append(t.fastVals, v)
				t.nGroups++
				out[i] = gid
				break
			}
			if t.slotHash[slot] == h && t.fastVals[g-1] == v {
				out[i] = g - 1
				break
			}
			slot = (slot + 1) & mask
		}
	}
}

// assignGeneric is the multi-column / variable-width path: rowformat keys,
// encoded lazily — only on a hash match (for the equality check) or on
// insertion (into the arena).
func (t *groupTable) assignGeneric(cols []arrow.Array, numRows int, hashes []uint64, out []uint32) {
	for i := 0; i < numRows; i++ {
		if (t.nGroups+1)*4 > len(t.slotGroup)*3 {
			t.grow()
		}
		h := hashes[i]
		mask := uint64(len(t.slotGroup) - 1)
		slot := h & mask
		encoded := false
		for {
			g := t.slotGroup[slot]
			if g == 0 {
				if !encoded {
					t.scratch = t.enc.AppendRowKey(t.scratch[:0], cols, i)
					encoded = true
				}
				gid := uint32(t.nGroups)
				t.slotHash[slot] = h
				t.slotGroup[slot] = gid + 1
				t.keyRefs = append(t.keyRefs, t.appendKey(t.scratch))
				t.nGroups++
				out[i] = gid
				break
			}
			if t.slotHash[slot] == h {
				if !encoded {
					t.scratch = t.enc.AppendRowKey(t.scratch[:0], cols, i)
					encoded = true
				}
				if t.keyEquals(g-1, t.scratch) {
					out[i] = g - 1
					break
				}
			}
			slot = (slot + 1) & mask
		}
	}
}

// lookupScratch holds the per-caller reusable buffers for lookupInto, so
// concurrent probers can share one read-only table (CollectLeft joins).
type lookupScratch struct {
	hashBuf []uint64
	scratch []byte
}

// lookupInto resolves each row's group id without inserting: -1 when the
// key is absent. Rows with NULL in any key column also get -1 (join
// semantics: NULL keys never match). The table itself is only read, all
// mutable scratch lives in ls.
func (t *groupTable) lookupInto(cols []arrow.Array, numRows int, ls *lookupScratch, out []int32) []int32 {
	ls.hashBuf = compute.HashBatch(cols, numRows, ls.hashBuf)
	if cap(out) < numRows {
		out = make([]int32, numRows)
	} else {
		out = out[:numRows]
	}
	mask := uint64(len(t.slotGroup) - 1)
	for i := 0; i < numRows; i++ {
		out[i] = -1
	}
	if t.nGroups == 0 {
		return out
	}
	if t.fast {
		// The fast path compares stored value bits; nulls are excluded up
		// front (the dedicated null group is unreachable by design), so an
		// all-null batch matches nothing.
		vals := fastInt64Values(cols[0])
		if vals == nil {
			return out
		}
		for i := 0; i < numRows; i++ {
			if cols[0].IsNull(i) {
				continue
			}
			h := ls.hashBuf[i]
			slot := h & mask
			for {
				g := t.slotGroup[slot]
				if g == 0 {
					break
				}
				if t.slotHash[slot] == h && t.fastVals[g-1] == vals(i) {
					out[i] = int32(g - 1)
					break
				}
				slot = (slot + 1) & mask
			}
		}
		return out
	}
	t.lookupGeneric(cols, numRows, ls, out)
	return out
}

func (t *groupTable) lookupGeneric(cols []arrow.Array, numRows int, ls *lookupScratch, out []int32) {
	mask := uint64(len(t.slotGroup) - 1)
	anyNulls := false
	for _, c := range cols {
		if c.NullCount() > 0 {
			anyNulls = true
			break
		}
	}
	for i := 0; i < numRows; i++ {
		if anyNulls {
			isNull := false
			for _, c := range cols {
				if c.IsNull(i) {
					isNull = true
					break
				}
			}
			if isNull {
				continue
			}
		}
		h := ls.hashBuf[i]
		slot := h & mask
		encoded := false
		for {
			g := t.slotGroup[slot]
			if g == 0 {
				break
			}
			if t.slotHash[slot] == h {
				if !encoded {
					ls.scratch = t.enc.AppendRowKey(ls.scratch[:0], cols, i)
					encoded = true
				}
				if t.keyEquals(g-1, ls.scratch) {
					out[i] = int32(g - 1)
					break
				}
			}
			slot = (slot + 1) & mask
		}
	}
}

// fastInt64Values returns an accessor widening any integer-backed numeric
// array slot to int64, or nil when the array is not one.
func fastInt64Values(a arrow.Array) func(i int) int64 {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Int16Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Int32Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Int64Array:
		return func(i int) int64 { return arr.Value(i) }
	case *arrow.Uint8Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Uint16Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Uint32Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Uint64Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	}
	return nil
}

// groupColumns materializes the group keys back into arrays, in group-id
// order.
func (t *groupTable) groupColumns() ([]arrow.Array, error) {
	if t.fast {
		return []arrow.Array{t.fastColumn()}, nil
	}
	return t.enc.DecodeKeys(t.nGroups, t.keyBytes, func(g int) []byte { return t.keyFrom(uint32(g)) })
}

func (t *groupTable) fastColumn() arrow.Array {
	dt := t.types[0]
	switch dt.ID {
	case arrow.INT8:
		return buildFastColumn[int8](t.fastVals, t.nullGid, dt)
	case arrow.INT16:
		return buildFastColumn[int16](t.fastVals, t.nullGid, dt)
	case arrow.INT32, arrow.DATE32:
		return buildFastColumn[int32](t.fastVals, t.nullGid, dt)
	case arrow.UINT8:
		return buildFastColumn[uint8](t.fastVals, t.nullGid, dt)
	case arrow.UINT16:
		return buildFastColumn[uint16](t.fastVals, t.nullGid, dt)
	case arrow.UINT32:
		return buildFastColumn[uint32](t.fastVals, t.nullGid, dt)
	case arrow.UINT64:
		return buildFastColumn[uint64](t.fastVals, t.nullGid, dt)
	default: // INT64, TIMESTAMP, DECIMAL
		return buildFastColumn[int64](t.fastVals, t.nullGid, dt)
	}
}

func buildFastColumn[T arrow.Number](vals []int64, nullGid int32, dt *arrow.DataType) arrow.Array {
	b := arrow.NewNumericBuilder[T](dt)
	b.Reserve(len(vals))
	for g, v := range vals {
		if int32(g) == nullGid {
			b.AppendNull()
		} else {
			b.Append(T(v))
		}
	}
	return b.Finish()
}
