package compute

import (
	"fmt"
	"math"

	"gofusion/internal/arrow"
)

// Column-level aggregation primitives. These compute over entire arrays and
// are used for ungrouped aggregates, file statistics, and pruning metadata.

// SumInt64 sums an integer-backed array (Int*, Decimal, Timestamp) skipping
// nulls, returning the sum and the number of valid values.
func SumInt64(a arrow.Array) (int64, int64) {
	switch arr := a.(type) {
	case *arrow.Int64Array:
		return sumNum(arr)
	case *arrow.Int32Array:
		return sumNum(arr)
	case *arrow.Int16Array:
		return sumNum(arr)
	case *arrow.Int8Array:
		return sumNum(arr)
	case *arrow.Uint64Array:
		return sumNum(arr)
	case *arrow.Uint32Array:
		return sumNum(arr)
	case *arrow.Uint16Array:
		return sumNum(arr)
	case *arrow.Uint8Array:
		return sumNum(arr)
	}
	panic(fmt.Sprintf("compute: SumInt64 on %s", a.DataType()))
}

func sumNum[T arrow.Number](a *arrow.NumericArray[T]) (int64, int64) {
	vals := a.Values()
	var sum int64
	if a.NullCount() == 0 {
		for _, v := range vals {
			sum += int64(v)
		}
		return sum, int64(len(vals))
	}
	var count int64
	for i, v := range vals {
		if a.IsValid(i) {
			sum += int64(v)
			count++
		}
	}
	return sum, count
}

// SumFloat64 sums a float or any numeric array as float64, skipping nulls.
func SumFloat64(a arrow.Array) (float64, int64) {
	switch arr := a.(type) {
	case *arrow.Float64Array:
		return sumFloat(arr)
	case *arrow.Float32Array:
		return sumFloat(arr)
	default:
		s, c := SumInt64(a)
		if a.DataType().ID == arrow.DECIMAL {
			return float64(s) / math.Pow10(a.DataType().Scale), c
		}
		return float64(s), c
	}
}

func sumFloat[T ~float32 | ~float64](a *arrow.NumericArray[T]) (float64, int64) {
	vals := a.Values()
	var sum float64
	if a.NullCount() == 0 {
		for _, v := range vals {
			sum += float64(v)
		}
		return sum, int64(len(vals))
	}
	var count int64
	for i, v := range vals {
		if a.IsValid(i) {
			sum += float64(v)
			count++
		}
	}
	return sum, count
}

// MinMax returns the minimum and maximum valid values of an array as
// scalars, with ok=false when the array has no valid values.
func MinMax(a arrow.Array) (minS, maxS arrow.Scalar, ok bool) {
	t := a.DataType()
	first := true
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) {
			continue
		}
		s := a.GetScalar(i)
		if first {
			minS, maxS, first = s, s, false
			continue
		}
		if CompareScalars(s, minS) < 0 {
			minS = s
		}
		if CompareScalars(s, maxS) > 0 {
			maxS = s
		}
	}
	if first {
		return arrow.NullScalar(t), arrow.NullScalar(t), false
	}
	return minS, maxS, true
}

// MinMaxFast computes what MinMax does with type-specialized loops for
// numeric and string arrays; it falls back to MinMax for other types.
func MinMaxFast(a arrow.Array) (arrow.Scalar, arrow.Scalar, bool) {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return minMaxNum(arr)
	case *arrow.Int16Array:
		return minMaxNum(arr)
	case *arrow.Int32Array:
		return minMaxNum(arr)
	case *arrow.Int64Array:
		return minMaxNum(arr)
	case *arrow.Uint8Array:
		return minMaxNum(arr)
	case *arrow.Uint16Array:
		return minMaxNum(arr)
	case *arrow.Uint32Array:
		return minMaxNum(arr)
	case *arrow.Uint64Array:
		return minMaxNum(arr)
	case *arrow.Float32Array:
		return minMaxNum(arr)
	case *arrow.Float64Array:
		return minMaxNum(arr)
	case *arrow.StringArray:
		return minMaxString(arr)
	default:
		return MinMax(a)
	}
}

func minMaxNum[T arrow.Number](a *arrow.NumericArray[T]) (arrow.Scalar, arrow.Scalar, bool) {
	vals := a.Values()
	t := a.DataType()
	if a.NullCount() == 0 && len(vals) > 0 {
		mn, mx := vals[0], vals[0]
		for _, v := range vals[1:] {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		return arrow.NewScalar(t, mn), arrow.NewScalar(t, mx), true
	}
	first := true
	var mn, mx T
	for i, v := range vals {
		if !a.IsValid(i) {
			continue
		}
		if first {
			mn, mx, first = v, v, false
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if first {
		return arrow.NullScalar(t), arrow.NullScalar(t), false
	}
	return arrow.NewScalar(t, mn), arrow.NewScalar(t, mx), true
}

func minMaxString(a *arrow.StringArray) (arrow.Scalar, arrow.Scalar, bool) {
	first := true
	var mn, mx string
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) {
			continue
		}
		v := a.Value(i)
		if first {
			mn, mx, first = v, v, false
			continue
		}
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if first {
		return arrow.NullScalar(a.DataType()), arrow.NullScalar(a.DataType()), false
	}
	// Copy out of the shared buffer.
	return arrow.NewScalar(a.DataType(), string([]byte(mn))), arrow.NewScalar(a.DataType(), string([]byte(mx))), true
}

// CountValid returns the number of non-null slots.
func CountValid(a arrow.Array) int64 {
	return int64(a.Len() - a.NullCount())
}
