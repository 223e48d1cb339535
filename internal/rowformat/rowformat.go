// Package rowformat implements a normalized, byte-comparable row encoding
// (the paper's "RowFormat", Section 6.6). Multi-column keys encoded with it
// compare correctly with bytes.Compare/memcmp, honoring per-column
// ASC/DESC and NULLS FIRST/LAST options, which makes multi-column sorting
// and grouping cache-friendly: one contiguous comparison instead of N
// column dereferences per row.
//
// Encoding per column:
//   - a marker byte: 0x00 (null, NULLS FIRST), 0x01 (valid), 0xFF (null,
//     NULLS LAST), so nulls order correctly against all values;
//   - the value encoded so ascending byte order equals ascending value
//     order: big-endian sign-flipped integers, totally-ordered IEEE float
//     bits, 0x00-escaped 0x00 0x00-terminated byte strings;
//   - for descending columns, the value bytes (not the marker) are
//     inverted.
package rowformat

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"gofusion/internal/arrow"
)

// SortOption captures SQL ordering options for one key column.
type SortOption struct {
	Descending bool
	NullsFirst bool
}

// Encoder encodes rows of a fixed column layout into comparable keys.
type Encoder struct {
	types []*arrow.DataType
	opts  []SortOption
}

// NewEncoder builds an encoder for the given column types. opts may be nil
// (all ascending, nulls last) or must have one entry per column.
func NewEncoder(types []*arrow.DataType, opts []SortOption) (*Encoder, error) {
	if opts == nil {
		opts = make([]SortOption, len(types))
	}
	if len(opts) != len(types) {
		return nil, fmt.Errorf("rowformat: %d types but %d sort options", len(types), len(opts))
	}
	for _, t := range types {
		switch t.ID {
		case arrow.LIST, arrow.STRUCT, arrow.INTERVAL:
			return nil, fmt.Errorf("rowformat: unsupported key type %s", t)
		}
	}
	return &Encoder{types: types, opts: opts}, nil
}

// Types returns the column types of the encoder.
func (e *Encoder) Types() []*arrow.DataType { return e.types }

func nullMarker(nullsFirst bool) byte {
	if nullsFirst {
		return 0x00
	}
	return 0xFF
}

// AppendRowKey appends the encoded key for row of cols to dst.
func (e *Encoder) AppendRowKey(dst []byte, cols []arrow.Array, row int) []byte {
	for c, a := range cols {
		opt := e.opts[c]
		if a.IsNull(row) {
			dst = append(dst, nullMarker(opt.NullsFirst))
			continue
		}
		dst = append(dst, 0x01)
		start := len(dst)
		dst = appendValue(dst, a, row)
		if opt.Descending {
			for i := start; i < len(dst); i++ {
				dst[i] = ^dst[i]
			}
		}
	}
	return dst
}

// EncodeRows encodes every row of the columns into independent keys.
func (e *Encoder) EncodeRows(cols []arrow.Array, numRows int) [][]byte {
	keys := make([][]byte, numRows)
	// Pre-size one arena per call to reduce allocations: fixed-width columns
	// have known sizes; strings are estimated.
	rowEst := 0
	for c, t := range e.types {
		if w := t.BitWidth(); w > 0 {
			rowEst += 1 + w/8
		} else {
			est := 16
			if sa, ok := cols[c].(*arrow.StringArray); ok && numRows > 0 {
				est = len(sa.Data())/numRows + 3
			}
			rowEst += 1 + est
		}
	}
	arena := make([]byte, 0, rowEst*numRows)
	for i := 0; i < numRows; i++ {
		start := len(arena)
		arena = e.AppendRowKey(arena, cols, i)
		keys[i] = arena[start:len(arena):len(arena)]
	}
	return keys
}

func appendValue(dst []byte, a arrow.Array, row int) []byte {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return append(dst, uint8(arr.Value(row))^0x80)
	case *arrow.Int16Array:
		return binary.BigEndian.AppendUint16(dst, uint16(arr.Value(row))^0x8000)
	case *arrow.Int32Array:
		return binary.BigEndian.AppendUint32(dst, uint32(arr.Value(row))^0x80000000)
	case *arrow.Int64Array:
		return binary.BigEndian.AppendUint64(dst, uint64(arr.Value(row))^0x8000000000000000)
	case *arrow.Uint8Array:
		return append(dst, arr.Value(row))
	case *arrow.Uint16Array:
		return binary.BigEndian.AppendUint16(dst, arr.Value(row))
	case *arrow.Uint32Array:
		return binary.BigEndian.AppendUint32(dst, arr.Value(row))
	case *arrow.Uint64Array:
		return binary.BigEndian.AppendUint64(dst, arr.Value(row))
	case *arrow.Float32Array:
		return binary.BigEndian.AppendUint32(dst, orderFloat32(arr.Value(row)))
	case *arrow.Float64Array:
		return binary.BigEndian.AppendUint64(dst, orderFloat64(arr.Value(row)))
	case *arrow.BoolArray:
		if arr.Value(row) {
			return append(dst, 1)
		}
		return append(dst, 0)
	case *arrow.StringArray:
		return appendEscapedBytes(dst, arr.ValueBytes(row))
	default:
		panic(fmt.Sprintf("rowformat: cannot encode %s", a.DataType()))
	}
}

// orderFloat64 maps IEEE-754 bits to unsigned ints whose order matches the
// total order of the floats (negatives inverted, positives sign-flipped).
// -0.0 encodes as +0.0 and every NaN as one positive NaN, which sorts
// after +Inf: keys that group, join and de-duplicate as equal encode
// equal.
func orderFloat64(f float64) uint64 {
	b := math.Float64bits(f)
	switch {
	case f != f:
		b = 0x7FF8000000000000
	case f == 0:
		b = 0
	}
	if b&0x8000000000000000 != 0 {
		return ^b
	}
	return b | 0x8000000000000000
}

func orderFloat32(f float32) uint32 {
	b := math.Float32bits(f)
	switch {
	case f != f:
		b = 0x7FC00000
	case f == 0:
		b = 0
	}
	if b&0x80000000 != 0 {
		return ^b
	}
	return b | 0x80000000
}

// appendEscapedBytes writes an order-preserving, self-terminating byte
// string: 0x00 bytes become 0x00 0xFF and the value ends with 0x00 0x00.
// Because 0x00 0x00 < 0x00 0xFF < any (b, ...) with b > 0, prefixes sort
// before their extensions and embedded zeros order correctly.
func appendEscapedBytes(dst, v []byte) []byte {
	// Bulk-copy runs between NULs; NUL-free strings (the common case) cost
	// one IndexByte scan plus one append.
	for {
		i := bytes.IndexByte(v, 0x00)
		if i < 0 {
			dst = append(dst, v...)
			return append(dst, 0x00, 0x00)
		}
		dst = append(dst, v[:i]...)
		dst = append(dst, 0x00, 0xFF)
		v = v[i+1:]
	}
}

// DecodeRows reconstructs column arrays from encoded keys. This is used to
// materialize group keys at aggregation output time and to verify the
// encoding in tests.
func (e *Encoder) DecodeRows(keys [][]byte) ([]arrow.Array, error) {
	total := 0
	for _, k := range keys {
		total += len(k)
	}
	return e.DecodeKeys(len(keys), total, func(i int) []byte { return keys[i] })
}

// DecodeKeys reconstructs column arrays from n encoded keys. key(i)
// returns bytes that begin with key i and may run on past its end: a key
// is self-delimiting (every column is a marker byte plus a fixed width or
// a terminated string), so an arena that packs keys back-to-back needs no
// per-key lengths or slice headers. keyBytes is the keys' total encoded
// size; with n it sizes the builders once instead of regrowing them.
func (e *Encoder) DecodeKeys(n, keyBytes int, key func(i int) []byte) ([]arrow.Array, error) {
	decs := e.newDecoders(n, keyBytes)
	for i := 0; i < n; i++ {
		if err := decodeKey(decs, key(i)); err != nil {
			return nil, err
		}
	}
	return finishDecoders(decs), nil
}

// colDecoder decodes one key column straight into its typed builder: no
// cell is boxed and, past builder growth, none allocates.
type colDecoder struct {
	builder arrow.Builder
	// value decodes the non-null value at key[pos:], appends it and returns
	// the position after it.
	value func(key []byte, pos int) (int, error)
}

// newDecoders builds one decoder per column with builders reserved for n
// keys of keyBytes total. What the fixed-width columns, markers and string
// terminators do not account for is string payload, split evenly between
// the string columns (a skewed split regrows one of them once).
func (e *Encoder) newDecoders(n, keyBytes int) []colDecoder {
	strCols, fixed := 0, 0
	for _, t := range e.types {
		if w := t.BitWidth(); w > 0 {
			fixed += 1 + w/8
		} else {
			strCols++
			fixed += 3
		}
	}
	strBytes := 0
	if strCols > 0 {
		strBytes = max(keyBytes-n*fixed, 0) / strCols
	}
	decs := make([]colDecoder, len(e.types))
	for c, t := range e.types {
		b := arrow.NewBuilder(t)
		b.Reserve(n)
		if sb, ok := b.(*arrow.StringBuilder); ok {
			sb.ReserveData(strBytes)
		}
		decs[c] = colDecoder{builder: b, value: valueDecoder(b, t, e.opts[c].Descending)}
	}
	return decs
}

func finishDecoders(decs []colDecoder) []arrow.Array {
	out := make([]arrow.Array, len(decs))
	for i, d := range decs {
		out[i] = d.builder.Finish()
	}
	return out
}

// decodeKey appends one encoded key's column values to the builders.
func decodeKey(decs []colDecoder, key []byte) error {
	pos := 0
	for _, d := range decs {
		if pos >= len(key) {
			return fmt.Errorf("rowformat: truncated key")
		}
		marker := key[pos]
		pos++
		if marker != 0x01 {
			d.builder.AppendNull()
			continue
		}
		var err error
		if pos, err = d.value(key, pos); err != nil {
			return err
		}
	}
	return nil
}

// fixedDecoder decodes a big-endian fixed-width value; conv undoes the
// order-preserving transform on the low width bytes of its argument.
func fixedDecoder[T arrow.Number](b arrow.Builder, width int, desc bool, conv func(uint64) T) func([]byte, int) (int, error) {
	nb := b.(*arrow.NumericBuilder[T])
	return func(key []byte, pos int) (int, error) {
		if pos+width > len(key) {
			return 0, fmt.Errorf("rowformat: truncated value")
		}
		var v uint64
		for _, c := range key[pos : pos+width] {
			v = v<<8 | uint64(c)
		}
		if desc {
			v = ^v
		}
		nb.Append(conv(v))
		return pos + width, nil
	}
}

func valueDecoder(b arrow.Builder, t *arrow.DataType, desc bool) func([]byte, int) (int, error) {
	switch t.ID {
	case arrow.INT8:
		return fixedDecoder(b, 1, desc, func(v uint64) int8 { return int8(uint8(v) ^ 0x80) })
	case arrow.INT16:
		return fixedDecoder(b, 2, desc, func(v uint64) int16 { return int16(uint16(v) ^ 0x8000) })
	case arrow.INT32, arrow.DATE32:
		return fixedDecoder(b, 4, desc, func(v uint64) int32 { return int32(uint32(v) ^ 0x80000000) })
	case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
		return fixedDecoder(b, 8, desc, func(v uint64) int64 { return int64(v ^ 0x8000000000000000) })
	case arrow.UINT8:
		return fixedDecoder(b, 1, desc, func(v uint64) uint8 { return uint8(v) })
	case arrow.UINT16:
		return fixedDecoder(b, 2, desc, func(v uint64) uint16 { return uint16(v) })
	case arrow.UINT32:
		return fixedDecoder(b, 4, desc, func(v uint64) uint32 { return uint32(v) })
	case arrow.UINT64:
		return fixedDecoder(b, 8, desc, func(v uint64) uint64 { return v })
	case arrow.FLOAT32:
		return fixedDecoder(b, 4, desc, func(v uint64) float32 { return unorderFloat32(uint32(v)) })
	case arrow.FLOAT64:
		return fixedDecoder(b, 8, desc, unorderFloat64)
	case arrow.BOOL:
		bb := b.(*arrow.BoolBuilder)
		return func(key []byte, pos int) (int, error) {
			if pos >= len(key) {
				return 0, fmt.Errorf("rowformat: truncated value")
			}
			c := key[pos]
			if desc {
				c = ^c
			}
			bb.Append(c == 1)
			return pos + 1, nil
		}
	case arrow.STRING, arrow.BINARY:
		return stringDecoder(b.(*arrow.StringBuilder), desc)
	}
	return func([]byte, int) (int, error) { return 0, fmt.Errorf("rowformat: cannot decode %s", t) }
}

// stringDecoder undoes appendEscapedBytes. The unescaped bytes are
// gathered in a scratch buffer the decoder reuses (descending values are
// inverted there, in place) and appended to the builder in one copy.
func stringDecoder(sb *arrow.StringBuilder, desc bool) func([]byte, int) (int, error) {
	zero := byte(0x00) // the escape byte as stored
	if desc {
		zero = 0xFF
	}
	var scratch []byte
	return func(key []byte, pos int) (int, error) {
		scratch = scratch[:0]
		for {
			run := bytes.IndexByte(key[pos:], zero)
			if run < 0 {
				return 0, fmt.Errorf("rowformat: unterminated string")
			}
			scratch = append(scratch, key[pos:pos+run]...)
			pos += run
			if pos+1 >= len(key) {
				return 0, fmt.Errorf("rowformat: unterminated string escape")
			}
			terminator := key[pos+1] == zero
			pos += 2
			if terminator {
				break
			}
			scratch = append(scratch, zero) // an escaped NUL
		}
		if desc {
			for i := range scratch {
				scratch[i] = ^scratch[i]
			}
		}
		sb.AppendBytes(scratch)
		return pos, nil
	}
}

func unorderFloat64(b uint64) float64 {
	if b&0x8000000000000000 != 0 {
		return math.Float64frombits(b &^ 0x8000000000000000)
	}
	return math.Float64frombits(^b)
}

func unorderFloat32(b uint32) float32 {
	if b&0x80000000 != 0 {
		return math.Float32frombits(b &^ 0x80000000)
	}
	return math.Float32frombits(^b)
}
