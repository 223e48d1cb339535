package parquet

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"gofusion/internal/arrow"
)

// Every page body starts with the same header:
//
//	u32 n | u32 validLen | valid
//
// (validLen is 0 for an all-valid page, else ceil(n/8)) and continues
// with one of these layouts. Integers are taken as their 64-bit
// two's-complement value, and all arithmetic wraps modulo 2^64.
//
//	plain     values: n fixed-width values, or ceil(n/8) bytes of bool bits
//	bitpack   u64 base | u8 width | n x (value-base) at width bits
//	rle       runs of (uvarint count, zigzag uvarint value)
//	delta     u64 first | u64 minDelta | u8 width | n-1 x (delta-minDelta) at width bits
//	dlen      u8 width | n x string length at width bits | string bytes
//
// Packed sections are little-endian bit streams padded to a whole byte.
// There is no byte codec and no dictionary page: a plain page's values
// and a dlen page's string bytes are stored as the arrow buffer holds
// them, so a reader uses them in place.

// encodedPage is one page ready to store: head, then values (which may
// alias the source array's buffers).
type encodedPage struct {
	encoding string
	head     []byte
	values   []byte
}

// pageEncoder carries the writer's scratch buffers from page to page.
type pageEncoder struct {
	head []byte
	lens []int32
}

func appendPageHeader(dst []byte, n int, valid arrow.Bitmap) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(valid)))
	return append(dst, valid...)
}

// encode picks the page encoding for a and encodes it. The result is
// valid until the next call.
func (e *pageEncoder) encode(a arrow.Array) (encodedPage, error) {
	head := appendPageHeader(e.head[:0], a.Len(), a.Validity())
	p := encodedPage{encoding: EncodingPlain}
	switch arr := a.(type) {
	case *arrow.Int8Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Int16Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Int32Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Int64Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Uint8Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Uint16Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Uint32Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Uint64Array:
		p = encodeInts(head, arr.Values())
	case *arrow.Float32Array:
		p.head, p.values = head, arrow.NumericBytes(arr.Values())
	case *arrow.Float64Array:
		p.head, p.values = head, arrow.NumericBytes(arr.Values())
	case *arrow.BoolArray:
		// A sliced array's bitmap may be shorter or longer than n bits.
		vals := arrow.NewBitmap(arr.Len())
		copy(vals, arr.ValuesBitmap())
		p.head, p.values = head, vals
	case *arrow.StringArray:
		// Lengths, not offsets, so sliced arrays need no re-basing.
		n := arr.Len()
		offs := arr.Offsets()
		e.lens = e.lens[:0]
		maxLen := int32(0)
		for i := 0; i < n; i++ {
			l := offs[i+1] - offs[i]
			maxLen = max(maxLen, l)
			e.lens = append(e.lens, l)
		}
		width, _ := packWidth(uint64(maxLen))
		head = append(head, byte(width))
		p.encoding = EncodingDeltaLen
		p.head = appendPacked(head, e.lens, 0, width)
		p.values = arr.Data()[offs[0]:offs[n]]
	default:
		return p, fmt.Errorf("parquet: unsupported column type %s", a.DataType())
	}
	e.head = p.head
	return p, nil
}

// intStats is what one pass over an integer page learns about it.
type intStats struct {
	min, max           int64
	minDelta, maxDelta int64 // wrapping differences of neighbours
	runs, maxRun       int
}

func analyzeInts[T packable](vs []T) intStats {
	st := intStats{min: math.MaxInt64, max: math.MinInt64, minDelta: math.MaxInt64, maxDelta: math.MinInt64}
	if len(vs) == 0 {
		return st
	}
	prev := int64(vs[0])
	st.min, st.max = prev, prev
	st.runs = 1
	run := 1
	for _, tv := range vs[1:] {
		v := int64(tv)
		st.min = min(st.min, v)
		st.max = max(st.max, v)
		d := v - prev
		st.minDelta = min(st.minDelta, d)
		st.maxDelta = max(st.maxDelta, d)
		if d == 0 {
			run++
		} else {
			st.maxRun = max(st.maxRun, run)
			st.runs++
			run = 1
		}
		prev = v
	}
	st.maxRun = max(st.maxRun, run)
	return st
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func uvarintLen(v uint64) int { return (max(bits.Len64(v), 1) + 6) / 7 }

// intEncodings lists the integer page encodings fastest decode first, the
// order ties are broken in.
var intEncodings = []string{EncodingPlain, EncodingBitPack, EncodingRLE, EncodingDelta}

// intEncodedSize returns the bytes enc takes after the page header for an
// n-value page (plainSize bytes when plain), or false when enc cannot
// represent the page. The rle size is an upper bound — every run costed
// at the widest count and value — the others are exact.
func intEncodedSize(enc string, st intStats, n, plainSize int) (int, bool) {
	switch enc {
	case EncodingPlain:
		return plainSize, true
	case EncodingBitPack:
		w, ok := packWidth(uint64(st.max) - uint64(st.min))
		return 9 + packedLen(n, w), ok && n > 0
	case EncodingRLE:
		widest := max(zigzag(st.min), zigzag(st.max))
		return st.runs * (uvarintLen(uint64(st.maxRun)) + uvarintLen(widest)), n > 0
	case EncodingDelta:
		w, ok := packWidth(uint64(st.maxDelta) - uint64(st.minDelta))
		return 17 + packedLen(n-1, w), ok && n > 1
	}
	return 0, false
}

// chooseIntEncoding returns the encoding with the smallest encoded size.
func chooseIntEncoding(st intStats, n, plainSize int) string {
	best, bestSize := EncodingPlain, plainSize
	for _, enc := range intEncodings[1:] {
		if size, ok := intEncodedSize(enc, st, n, plainSize); ok && size < bestSize {
			best, bestSize = enc, size
		}
	}
	return best
}

func encodeInts[T packable](head []byte, vs []T) encodedPage {
	st := analyzeInts(vs)
	enc := chooseIntEncoding(st, len(vs), len(arrow.NumericBytes(vs)))
	return encodeIntsAs(head, enc, vs, st)
}

// encodeIntsAs encodes vs with the given encoding, which must be able to
// represent the page (see intEncodedSize).
func encodeIntsAs[T packable](head []byte, enc string, vs []T, st intStats) encodedPage {
	p := encodedPage{encoding: enc}
	switch enc {
	case EncodingPlain:
		p.head, p.values = head, arrow.NumericBytes(vs)
	case EncodingBitPack:
		width, _ := packWidth(uint64(st.max) - uint64(st.min))
		head = binary.LittleEndian.AppendUint64(head, uint64(st.min))
		head = append(head, byte(width))
		p.head = appendPacked(head, vs, uint64(st.min), width)
	case EncodingRLE:
		for i := 0; i < len(vs); {
			j := i + 1
			for j < len(vs) && vs[j] == vs[i] {
				j++
			}
			head = binary.AppendUvarint(head, uint64(j-i))
			head = binary.AppendUvarint(head, zigzag(int64(vs[i])))
			i = j
		}
		p.head = head
	case EncodingDelta:
		width, _ := packWidth(uint64(st.maxDelta) - uint64(st.minDelta))
		head = binary.LittleEndian.AppendUint64(head, uint64(int64(vs[0])))
		head = binary.LittleEndian.AppendUint64(head, uint64(st.minDelta))
		head = append(head, byte(width))
		w := bitWriter{dst: head}
		prev := uint64(int64(vs[0]))
		for _, tv := range vs[1:] {
			v := uint64(int64(tv))
			w.put(v-prev-uint64(st.minDelta), width)
			prev = v
		}
		p.head = w.finish()
	}
	return p
}

// decodePage decodes one stored data page of rows values into an arrow
// array. Fixed-width
// values of a plain page and the bytes of a string page alias stored;
// everything else is decoded into exactly sized buffers. Truncated or
// corrupt input, and an encoding this format version does not write,
// return an error wrapping errFormat.
func decodePage(stored []byte, enc string, rows int, t *arrow.DataType) (arrow.Array, error) {
	if len(stored) < 8 {
		return nil, errFormat
	}
	n := int(binary.LittleEndian.Uint32(stored))
	validLen := int(binary.LittleEndian.Uint32(stored[4:]))
	if n != rows || validLen > len(stored)-8 || (validLen != 0 && validLen < (n+7)/8) {
		return nil, errFormat
	}
	var valid arrow.Bitmap
	if validLen > 0 {
		valid = arrow.Bitmap(stored[8 : 8+validLen])
	}
	rest := stored[8+validLen:]

	switch t.ID {
	case arrow.INT8:
		return decodeIntPage[int8](rest, enc, n, valid, t)
	case arrow.INT16:
		return decodeIntPage[int16](rest, enc, n, valid, t)
	case arrow.INT32, arrow.DATE32:
		return decodeIntPage[int32](rest, enc, n, valid, t)
	case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
		return decodeIntPage[int64](rest, enc, n, valid, t)
	case arrow.UINT8:
		return decodeIntPage[uint8](rest, enc, n, valid, t)
	case arrow.UINT16:
		return decodeIntPage[uint16](rest, enc, n, valid, t)
	case arrow.UINT32:
		return decodeIntPage[uint32](rest, enc, n, valid, t)
	case arrow.UINT64:
		return decodeIntPage[uint64](rest, enc, n, valid, t)
	case arrow.FLOAT32:
		return decodePlainPage[float32](rest, enc, n, valid, t)
	case arrow.FLOAT64:
		return decodePlainPage[float64](rest, enc, n, valid, t)
	case arrow.BOOL:
		if enc != EncodingPlain || len(rest) != (n+7)/8 {
			return nil, errFormat
		}
		return arrow.NewBool(arrow.Bitmap(rest), valid, n), nil
	case arrow.STRING, arrow.BINARY:
		if enc != EncodingDeltaLen {
			return nil, fmt.Errorf("%w: unknown string encoding %q", errFormat, enc)
		}
		return decodeDeltaLenPage(rest, n, valid, t)
	}
	return nil, fmt.Errorf("%w: unsupported page type %s", errFormat, t)
}

func decodePlainPage[T arrow.Number](rest []byte, enc string, n int, valid arrow.Bitmap, t *arrow.DataType) (arrow.Array, error) {
	if enc != EncodingPlain || len(rest) != n*t.BitWidth()/8 {
		return nil, errFormat
	}
	return arrow.NewNumeric(t, arrow.BytesToNumeric[T](rest), valid), nil
}

func decodeIntPage[T packable](rest []byte, enc string, n int, valid arrow.Bitmap, t *arrow.DataType) (arrow.Array, error) {
	if enc == EncodingPlain {
		return decodePlainPage[T](rest, enc, n, valid, t)
	}
	var vals []T
	switch enc {
	case EncodingBitPack:
		if len(rest) < 9 {
			return nil, errFormat
		}
		base, width := binary.LittleEndian.Uint64(rest), uint(rest[8])
		if width > maxPackWidth || len(rest)-9 != packedLen(n, width) {
			return nil, errFormat
		}
		vals = make([]T, n)
		unpack(vals, rest[9:], base, width)
	case EncodingRLE:
		vals = make([]T, n)
		i := 0
		for len(rest) > 0 {
			count, k := binary.Uvarint(rest)
			if k <= 0 || count == 0 || count > uint64(n-i) {
				return nil, errFormat
			}
			rest = rest[k:]
			zz, k := binary.Uvarint(rest)
			if k <= 0 {
				return nil, errFormat
			}
			rest = rest[k:]
			v := T(unzigzag(zz))
			run := vals[i : i+int(count)]
			for j := range run {
				run[j] = v
			}
			i += int(count)
		}
		if i != n {
			return nil, errFormat
		}
	case EncodingDelta:
		if len(rest) < 17 || n < 2 {
			return nil, errFormat
		}
		first, minDelta, width := binary.LittleEndian.Uint64(rest), binary.LittleEndian.Uint64(rest[8:]), uint(rest[16])
		if width > maxPackWidth || len(rest)-17 != packedLen(n-1, width) {
			return nil, errFormat
		}
		vals = make([]T, n)
		unpack(vals[1:], rest[17:], minDelta, width)
		acc := T(first)
		vals[0] = acc
		for i, d := range vals[1:] {
			acc += d
			vals[i+1] = acc
		}
	default:
		return nil, fmt.Errorf("%w: unknown integer encoding %q", errFormat, enc)
	}
	return arrow.NewNumeric(t, vals, valid), nil
}

func decodeDeltaLenPage(rest []byte, n int, valid arrow.Bitmap, t *arrow.DataType) (arrow.Array, error) {
	if len(rest) < 1 {
		return nil, errFormat
	}
	width := uint(rest[0])
	size := packedLen(n, width)
	if width > 31 || len(rest)-1 < size {
		return nil, errFormat
	}
	offsets := make([]int32, n+1)
	unpack(offsets[1:], rest[1:], 0, width)
	rest = rest[1+size:]
	// Lengths become end offsets in place.
	total := int64(0)
	for i := 1; i <= n; i++ {
		total += int64(offsets[i])
		if total > math.MaxInt32 {
			return nil, errFormat
		}
		offsets[i] = int32(total)
	}
	if int64(len(rest)) != total {
		return nil, errFormat
	}
	return arrow.NewString(t, offsets, rest, valid), nil
}
