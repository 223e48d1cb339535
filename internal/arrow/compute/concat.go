package compute

import (
	"fmt"

	"gofusion/internal/arrow"
)

// Run names rows [Start, End) of source array Src of a gather.
type Run struct {
	Src, Start, End int
}

// Concat concatenates arrays of the same type into one array: a gather of
// every row of every source.
func Concat(arrs []arrow.Array) (arrow.Array, error) {
	runs := make([]Run, len(arrs))
	for i, a := range arrs {
		runs[i] = Run{Src: i, End: a.Len()}
	}
	return GatherRuns(arrs, runs)
}

// GatherRuns assembles the rows the runs name, in run order, into one array
// of exactly their total length. A single run is returned without copying
// values: the source itself when it covers all of it, else a Slice.
// Otherwise every value is copied once: one copy per run for fixed-width
// values, and for strings the run's bytes appended in one piece beside its
// rebased offsets. The sources must share one data type.
func GatherRuns(srcs []arrow.Array, runs []Run) (arrow.Array, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("compute: gather from zero arrays")
	}
	t := srcs[0].DataType()
	for _, a := range srcs[1:] {
		if !a.DataType().Equal(t) {
			return nil, fmt.Errorf("compute: gather type mismatch %s vs %s", t, a.DataType())
		}
	}
	if len(runs) == 1 {
		r, a := runs[0], srcs[runs[0].Src]
		if r.Start == 0 && r.End == a.Len() {
			return a, nil
		}
		return a.Slice(r.Start, r.End-r.Start), nil
	}
	n, nullable := 0, false
	for _, r := range runs {
		n += r.End - r.Start
		nullable = nullable || srcs[r.Src].NullCount() > 0
	}
	var valid arrow.Bitmap
	if nullable {
		valid = arrow.NewBitmap(n)
		pos := 0
		for _, r := range runs {
			valid.CopyBits(pos, srcs[r.Src].Validity(), r.Start, r.End-r.Start)
			pos += r.End - r.Start
		}
	}
	switch t.ID {
	case arrow.INT8:
		return gatherNumeric[int8](srcs, runs, t, n, valid), nil
	case arrow.INT16:
		return gatherNumeric[int16](srcs, runs, t, n, valid), nil
	case arrow.INT32, arrow.DATE32:
		return gatherNumeric[int32](srcs, runs, t, n, valid), nil
	case arrow.INT64, arrow.TIMESTAMP, arrow.DECIMAL:
		return gatherNumeric[int64](srcs, runs, t, n, valid), nil
	case arrow.UINT8:
		return gatherNumeric[uint8](srcs, runs, t, n, valid), nil
	case arrow.UINT16:
		return gatherNumeric[uint16](srcs, runs, t, n, valid), nil
	case arrow.UINT32:
		return gatherNumeric[uint32](srcs, runs, t, n, valid), nil
	case arrow.UINT64:
		return gatherNumeric[uint64](srcs, runs, t, n, valid), nil
	case arrow.FLOAT32:
		return gatherNumeric[float32](srcs, runs, t, n, valid), nil
	case arrow.FLOAT64:
		return gatherNumeric[float64](srcs, runs, t, n, valid), nil
	case arrow.STRING, arrow.BINARY:
		return gatherString(srcs, runs, t, n, valid), nil
	case arrow.BOOL:
		vals, pos := arrow.NewBitmap(n), 0
		for _, r := range runs {
			vals.CopyBits(pos, srcs[r.Src].(*arrow.BoolArray).ValuesBitmap(), r.Start, r.End-r.Start)
			pos += r.End - r.Start
		}
		return arrow.NewBool(vals, valid, n), nil
	case arrow.NULL:
		return arrow.NewNull(n), nil
	default:
		b := arrow.NewBuilder(t)
		for _, r := range runs {
			for i := r.Start; i < r.End; i++ {
				b.AppendFrom(srcs[r.Src], i)
			}
		}
		return b.Finish(), nil
	}
}

func gatherNumeric[T arrow.Number](srcs []arrow.Array, runs []Run, t *arrow.DataType, n int, valid arrow.Bitmap) arrow.Array {
	vals := make([][]T, len(srcs))
	for i, a := range srcs {
		vals[i] = a.(*arrow.NumericArray[T]).Values()
	}
	out := make([]T, n)
	pos := 0
	for _, r := range runs {
		pos += copy(out[pos:], vals[r.Src][r.Start:r.End])
	}
	return arrow.NewNumeric(t, out, valid)
}

func gatherString(srcs []arrow.Array, runs []Run, t *arrow.DataType, n int, valid arrow.Bitmap) arrow.Array {
	strs := make([]*arrow.StringArray, len(srcs))
	size := 0
	for i, a := range srcs {
		strs[i] = a.(*arrow.StringArray)
	}
	for _, r := range runs {
		off := strs[r.Src].Offsets()
		size += int(off[r.End] - off[r.Start])
	}
	offsets := make([]int32, n+1)
	data := make([]byte, 0, size)
	pos := 0
	for _, r := range runs {
		sa := strs[r.Src]
		off := sa.Offsets()
		base := int32(len(data)) - off[r.Start]
		data = append(data, sa.Data()[off[r.Start]:off[r.End]]...)
		for _, o := range off[r.Start+1 : r.End+1] {
			pos++
			offsets[pos] = o + base
		}
	}
	return arrow.NewString(t, offsets, data, valid)
}

// ConcatBatches concatenates batches sharing a schema into one batch.
func ConcatBatches(schema *arrow.Schema, batches []*arrow.RecordBatch) (*arrow.RecordBatch, error) {
	if len(batches) == 0 {
		return EmptyBatch(schema), nil
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	numCols := schema.NumFields()
	cols := make([]arrow.Array, numCols)
	rows := 0
	for _, b := range batches {
		rows += b.NumRows()
	}
	for c := 0; c < numCols; c++ {
		parts := make([]arrow.Array, len(batches))
		for i, b := range batches {
			parts[i] = b.Column(c)
		}
		a, err := Concat(parts)
		if err != nil {
			return nil, err
		}
		cols[c] = a
	}
	return arrow.NewRecordBatchWithRows(schema, cols, rows), nil
}

// EmptyBatch returns a zero-row batch for the schema, with typed zero-length
// columns so downstream kernels can dispatch on them.
func EmptyBatch(schema *arrow.Schema) *arrow.RecordBatch {
	cols := make([]arrow.Array, schema.NumFields())
	for i, f := range schema.Fields() {
		cols[i] = arrow.NewBuilder(f.Type).Finish()
	}
	return arrow.NewRecordBatchWithRows(schema, cols, 0)
}
