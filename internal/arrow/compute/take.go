package compute

import (
	"gofusion/internal/arrow"
)

// Take gathers the elements of a at the given row indices. An index of -1
// produces a null output slot (used to materialize the unmatched side of
// outer joins).
func Take(a arrow.Array, indices []int32) arrow.Array {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return takeNumeric(arr, indices)
	case *arrow.Int16Array:
		return takeNumeric(arr, indices)
	case *arrow.Int32Array:
		return takeNumeric(arr, indices)
	case *arrow.Int64Array:
		return takeNumeric(arr, indices)
	case *arrow.Uint8Array:
		return takeNumeric(arr, indices)
	case *arrow.Uint16Array:
		return takeNumeric(arr, indices)
	case *arrow.Uint32Array:
		return takeNumeric(arr, indices)
	case *arrow.Uint64Array:
		return takeNumeric(arr, indices)
	case *arrow.Float32Array:
		return takeNumeric(arr, indices)
	case *arrow.Float64Array:
		return takeNumeric(arr, indices)
	case *arrow.StringArray:
		return takeString(arr, indices)
	case *arrow.BoolArray:
		return takeBool(arr, indices)
	case *arrow.NullArray:
		return arrow.NewNull(len(indices))
	default:
		b := arrow.NewBuilder(a.DataType())
		for _, idx := range indices {
			if idx < 0 {
				b.AppendNull()
			} else {
				b.AppendFrom(a, int(idx))
			}
		}
		return b.Finish()
	}
}

func takeNumeric[T arrow.Number](a *arrow.NumericArray[T], indices []int32) arrow.Array {
	out := make([]T, len(indices))
	vals := a.Values()
	if a.NullCount() == 0 {
		hasNeg := false
		for i, idx := range indices {
			if idx < 0 {
				hasNeg = true
				continue
			}
			out[i] = vals[idx]
		}
		if !hasNeg {
			return arrow.NewNumeric(a.DataType(), out, nil)
		}
		valid := arrow.NewBitmapSet(len(indices))
		for i, idx := range indices {
			if idx < 0 {
				valid.Clear(i)
			}
		}
		return arrow.NewNumeric(a.DataType(), out, valid)
	}
	valid := arrow.NewBitmap(len(indices))
	for i, idx := range indices {
		if idx >= 0 && a.IsValid(int(idx)) {
			out[i] = vals[idx]
			valid.Set(i)
		}
	}
	return arrow.NewNumeric(a.DataType(), out, valid)
}

func takeString(a *arrow.StringArray, indices []int32) arrow.Array {
	src, srcOff := a.Data(), a.Offsets()
	// Size data exactly from a first pass over the offsets; a null source
	// slot contributes its (normally empty) range to the estimate only.
	total, needValid := 0, a.NullCount() > 0
	for _, idx := range indices {
		if idx < 0 {
			needValid = true
			continue
		}
		total += int(srcOff[idx+1] - srcOff[idx])
	}
	offsets := make([]int32, len(indices)+1)
	data := make([]byte, 0, total)
	var valid arrow.Bitmap
	if needValid {
		valid = arrow.NewBitmap(len(indices))
	}
	for i, idx := range indices {
		if idx >= 0 && a.IsValid(int(idx)) {
			data = append(data, src[srcOff[idx]:srcOff[idx+1]]...)
			if valid != nil {
				valid.Set(i)
			}
		}
		offsets[i+1] = int32(len(data))
	}
	return arrow.NewString(a.DataType(), offsets, data, valid)
}

func takeBool(a *arrow.BoolArray, indices []int32) arrow.Array {
	vals := arrow.NewBitmap(len(indices))
	var valid arrow.Bitmap
	needValid := a.NullCount() > 0
	for _, idx := range indices {
		if idx < 0 {
			needValid = true
			break
		}
	}
	if needValid {
		valid = arrow.NewBitmap(len(indices))
	}
	for i, idx := range indices {
		if idx < 0 || a.IsNull(int(idx)) {
			continue
		}
		if a.Value(int(idx)) {
			vals.Set(i)
		}
		if valid != nil {
			valid.Set(i)
		}
	}
	return arrow.NewBool(vals, valid, len(indices))
}

// TakeBatch gathers rows of every column at the given indices.
func TakeBatch(b *arrow.RecordBatch, indices []int32) *arrow.RecordBatch {
	cols := make([]arrow.Array, b.NumCols())
	for i, c := range b.Columns() {
		cols[i] = Take(c, indices)
	}
	return arrow.NewRecordBatchWithRows(b.Schema(), cols, len(indices))
}
