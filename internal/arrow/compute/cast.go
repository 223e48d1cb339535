package compute

import (
	"fmt"
	"math"
	"strconv"

	"gofusion/internal/arrow"
)

// Cast converts an array to the target type. Numeric widening/narrowing,
// decimal rescaling, temporal conversions, and string parse/format are
// supported; unsupported conversions return an error. A numeric result is
// written into buf (nil allocates); other results always allocate.
func Cast(a arrow.Array, to *arrow.DataType, buf *Buf) (arrow.Array, error) {
	from := a.DataType()
	if from.Equal(to) {
		return a, nil
	}
	if from.ID == arrow.NULL {
		return nulls(to, a.Len()), nil
	}
	// Fast numeric-to-numeric paths.
	if isCastableNumeric(from) && isCastableNumeric(to) {
		return castNumeric(a, to, buf)
	}
	switch {
	case from.ID == arrow.STRING && to.ID != arrow.STRING:
		return castFromString(a.(*arrow.StringArray), to)
	case to.ID == arrow.STRING:
		return castToString(a)
	case from.ID == arrow.BOOL && to.IsNumeric():
		src := a.(*arrow.BoolArray)
		b := arrow.NewBuilder(to)
		for i := 0; i < src.Len(); i++ {
			if src.IsNull(i) {
				b.AppendNull()
			} else {
				v := int64(0)
				if src.Value(i) {
					v = 1
				}
				b.AppendScalar(numericScalar(to, float64(v), v))
			}
		}
		return b.Finish(), nil
	}
	return nil, fmt.Errorf("compute: unsupported cast %s -> %s", from, to)
}

func isCastableNumeric(t *arrow.DataType) bool {
	return t.IsNumeric() || t.ID == arrow.DATE32 || t.ID == arrow.TIMESTAMP
}

// decimalPow10 returns 10^n for small non-negative n.
func decimalPow10(n int) int64 {
	p := int64(1)
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

func castNumeric(a arrow.Array, to *arrow.DataType, buf *Buf) (arrow.Array, error) {
	from := a.DataType()
	n := a.Len()
	valid := copyValidity(buf, a.Validity(), n)

	// Read slot i as (int64, float64) according to the source type.
	var geti func(i int) int64
	var getf func(i int) float64
	switch physicalKind(from) {
	case kindI8:
		v := a.(*arrow.Int8Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindI16:
		v := a.(*arrow.Int16Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindI32:
		v := a.(*arrow.Int32Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindI64:
		v := a.(*arrow.Int64Array).Values()
		geti = func(i int) int64 { return v[i] }
		if from.ID == arrow.DECIMAL {
			scale := math.Pow10(from.Scale)
			getf = func(i int) float64 { return float64(v[i]) / scale }
		} else {
			getf = func(i int) float64 { return float64(v[i]) }
		}
	case kindU8:
		v := a.(*arrow.Uint8Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindU16:
		v := a.(*arrow.Uint16Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindU32:
		v := a.(*arrow.Uint32Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindU64:
		v := a.(*arrow.Uint64Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindF32:
		v := a.(*arrow.Float32Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return float64(v[i]) }
	case kindF64:
		v := a.(*arrow.Float64Array).Values()
		geti = func(i int) int64 { return int64(v[i]) }
		getf = func(i int) float64 { return v[i] }
	default:
		return nil, fmt.Errorf("compute: unsupported numeric cast from %s", from)
	}

	// Decimal sources feeding integer targets must descale first.
	if from.ID == arrow.DECIMAL && to.ID != arrow.DECIMAL && !to.IsFloat() {
		div := decimalPow10(from.Scale)
		inner := geti
		geti = func(i int) int64 { return inner(i) / div }
	}

	switch physicalKind(to) {
	case kindI8:
		out := values[int8](buf, n)
		for i := range out {
			out[i] = int8(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindI16:
		out := values[int16](buf, n)
		for i := range out {
			out[i] = int16(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindI32:
		out := values[int32](buf, n)
		for i := range out {
			out[i] = int32(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindI64:
		if to.ID == arrow.DECIMAL {
			out := values[int64](buf, n)
			switch {
			case from.ID == arrow.DECIMAL:
				// Rescale between decimal scales.
				diff := to.Scale - from.Scale
				if diff >= 0 {
					m := decimalPow10(diff)
					for i := range out {
						out[i] = geti(i) * m
					}
				} else {
					d := decimalPow10(-diff)
					for i := range out {
						out[i] = geti(i) / d
					}
				}
			case from.IsFloat():
				m := math.Pow10(to.Scale)
				for i := range out {
					out[i] = int64(math.Round(getf(i) * m))
				}
			default:
				m := decimalPow10(to.Scale)
				for i := range out {
					out[i] = geti(i) * m
				}
			}
			return arrow.NewNumeric(to, out, valid), nil
		}
		out := values[int64](buf, n)
		for i := range out {
			out[i] = geti(i)
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindU8:
		out := values[uint8](buf, n)
		for i := range out {
			out[i] = uint8(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindU16:
		out := values[uint16](buf, n)
		for i := range out {
			out[i] = uint16(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindU32:
		out := values[uint32](buf, n)
		for i := range out {
			out[i] = uint32(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindU64:
		out := values[uint64](buf, n)
		for i := range out {
			out[i] = uint64(geti(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindF32:
		out := values[float32](buf, n)
		for i := range out {
			out[i] = float32(getf(i))
		}
		return arrow.NewNumeric(to, out, valid), nil
	case kindF64:
		out := values[float64](buf, n)
		for i := range out {
			out[i] = getf(i)
		}
		return arrow.NewNumeric(to, out, valid), nil
	}
	return nil, fmt.Errorf("compute: unsupported numeric cast %s -> %s", from, to)
}

func numericScalar(t *arrow.DataType, f float64, i int64) arrow.Scalar {
	switch physicalKind(t) {
	case kindI8:
		return arrow.NewScalar(t, int8(i))
	case kindI16:
		return arrow.NewScalar(t, int16(i))
	case kindI32:
		return arrow.NewScalar(t, int32(i))
	case kindI64:
		return arrow.NewScalar(t, i)
	case kindU8:
		return arrow.NewScalar(t, uint8(i))
	case kindU16:
		return arrow.NewScalar(t, uint16(i))
	case kindU32:
		return arrow.NewScalar(t, uint32(i))
	case kindU64:
		return arrow.NewScalar(t, uint64(i))
	case kindF32:
		return arrow.NewScalar(t, float32(f))
	default:
		return arrow.NewScalar(t, f)
	}
}

func castFromString(a *arrow.StringArray, to *arrow.DataType) (arrow.Array, error) {
	b := arrow.NewBuilder(to)
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) {
			b.AppendNull()
			continue
		}
		s := a.Value(i)
		switch to.ID {
		case arrow.BOOL:
			v, err := strconv.ParseBool(s)
			if err != nil {
				return nil, fmt.Errorf("compute: cast %q to boolean: %w", s, err)
			}
			b.AppendScalar(arrow.BoolScalar(v))
		case arrow.DATE32:
			d, err := arrow.ParseDate32(s)
			if err != nil {
				return nil, err
			}
			b.AppendScalar(arrow.NewScalar(to, d))
		case arrow.TIMESTAMP:
			ts, err := arrow.ParseTimestamp(s)
			if err != nil {
				return nil, err
			}
			b.AppendScalar(arrow.NewScalar(to, ts))
		case arrow.DECIMAL:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("compute: cast %q to decimal: %w", s, err)
			}
			b.AppendScalar(arrow.NewScalar(to, int64(math.Round(f*math.Pow10(to.Scale)))))
		case arrow.FLOAT32, arrow.FLOAT64:
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("compute: cast %q to float: %w", s, err)
			}
			b.AppendScalar(numericScalar(to, f, int64(f)))
		case arrow.BINARY:
			b.AppendScalar(arrow.NewScalar(to, []byte(s)))
		default:
			if to.IsInteger() {
				v, err := strconv.ParseInt(s, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("compute: cast %q to %s: %w", s, to, err)
				}
				b.AppendScalar(numericScalar(to, float64(v), v))
			} else {
				return nil, fmt.Errorf("compute: unsupported cast Utf8 -> %s", to)
			}
		}
	}
	return b.Finish(), nil
}

func castToString(a arrow.Array) (arrow.Array, error) {
	b := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) {
			b.AppendNull()
			continue
		}
		b.Append(ScalarToDisplay(a.GetScalar(i)))
	}
	return b.Finish(), nil
}

// ScalarToDisplay renders a scalar value the way CAST(x AS VARCHAR) would.
func ScalarToDisplay(s arrow.Scalar) string {
	if s.Null {
		return ""
	}
	switch s.Type.ID {
	case arrow.STRING:
		return s.AsString()
	case arrow.BINARY:
		return string(s.Val.([]byte))
	case arrow.BOOL:
		return strconv.FormatBool(s.AsBool())
	case arrow.FLOAT32, arrow.FLOAT64:
		return strconv.FormatFloat(s.AsFloat64(), 'g', -1, 64)
	case arrow.DECIMAL:
		return arrow.FormatDecimal(s.AsInt64(), s.Type.Scale)
	case arrow.DATE32:
		return arrow.FormatDate32(int32(s.AsInt64()))
	case arrow.TIMESTAMP:
		return arrow.FormatTimestamp(s.AsInt64())
	default:
		return fmt.Sprintf("%v", s.Val)
	}
}

// CastScalar converts a scalar to the target type using the same rules as
// Cast.
func CastScalar(s arrow.Scalar, to *arrow.DataType) (arrow.Scalar, error) {
	if s.Type.Equal(to) {
		return s, nil
	}
	if s.Null {
		return arrow.NullScalar(to), nil
	}
	b := arrow.NewBuilder(s.Type)
	b.AppendScalar(s)
	arr, err := Cast(b.Finish(), to, nil)
	if err != nil {
		return arrow.Scalar{}, err
	}
	return arr.GetScalar(0), nil
}
