package arrow

import (
	"fmt"
	"strings"
)

// Array is an immutable, typed columnar vector of values with an optional
// validity bitmap. All operators and kernels exchange data as Arrays.
type Array interface {
	// DataType returns the logical type of the values.
	DataType() *DataType
	// Len returns the number of slots.
	Len() int
	// NullCount returns the number of null slots.
	NullCount() int
	// IsNull reports whether slot i is null.
	IsNull(i int) bool
	// IsValid reports whether slot i is non-null.
	IsValid(i int) bool
	// Validity returns the validity bitmap; nil means all-valid.
	Validity() Bitmap
	// Slice returns a view of n slots starting at off. Value buffers are
	// shared where the layout permits; the validity bitmap is re-packed.
	Slice(off, n int) Array
	// GetScalar returns slot i boxed as a Scalar. This is a slow path
	// intended for row-at-a-time fallbacks, literals, and tests.
	GetScalar(i int) Scalar
	// String renders the array for debugging.
	String() string
}

// Number constrains the Go element types that back fixed-width numeric,
// date, timestamp, and decimal arrays.
type Number interface {
	~int8 | ~int16 | ~int32 | ~int64 | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~float32 | ~float64
}

// NumericArray is a fixed-width array of T. The same physical representation
// backs several logical types (e.g. Int64, Timestamp and Decimal are all
// NumericArray[int64]); consult DataType().ID for logical dispatch.
type NumericArray[T Number] struct {
	dtype  *DataType
	values []T
	valid  Bitmap
	nulls  int
}

// Convenient aliases for the common physical array types.
type (
	Int8Array    = NumericArray[int8]
	Int16Array   = NumericArray[int16]
	Int32Array   = NumericArray[int32]
	Int64Array   = NumericArray[int64]
	Uint8Array   = NumericArray[uint8]
	Uint16Array  = NumericArray[uint16]
	Uint32Array  = NumericArray[uint32]
	Uint64Array  = NumericArray[uint64]
	Float32Array = NumericArray[float32]
	Float64Array = NumericArray[float64]
)

// NewNumeric wraps values (and an optional validity bitmap) as an array of
// dtype. The slice is not copied; the caller must not mutate it afterwards.
func NewNumeric[T Number](dtype *DataType, values []T, valid Bitmap) *NumericArray[T] {
	nulls := 0
	if valid != nil {
		nulls = len(values) - valid.CountSet(len(values))
		if nulls == 0 {
			valid = nil
		}
	}
	return &NumericArray[T]{dtype: dtype, values: values, valid: valid, nulls: nulls}
}

// NewInt64 wraps values as an Int64 array with no nulls.
func NewInt64(values []int64) *Int64Array { return NewNumeric(Int64, values, nil) }

// NewFloat64 wraps values as a Float64 array with no nulls.
func NewFloat64(values []float64) *Float64Array { return NewNumeric(Float64, values, nil) }

// NewInt32 wraps values as an Int32 array with no nulls.
func NewInt32(values []int32) *Int32Array { return NewNumeric(Int32, values, nil) }

func (a *NumericArray[T]) DataType() *DataType { return a.dtype }
func (a *NumericArray[T]) Len() int            { return len(a.values) }
func (a *NumericArray[T]) NullCount() int      { return a.nulls }
func (a *NumericArray[T]) IsNull(i int) bool   { return a.valid != nil && !a.valid.Get(i) }
func (a *NumericArray[T]) IsValid(i int) bool  { return a.valid == nil || a.valid.Get(i) }
func (a *NumericArray[T]) Validity() Bitmap    { return a.valid }

// Values returns the backing value slice; callers must not mutate it.
func (a *NumericArray[T]) Values() []T { return a.values }

// Value returns the value at slot i; meaningless if the slot is null.
func (a *NumericArray[T]) Value(i int) T { return a.values[i] }

// Slice returns a view of n slots starting at off.
func (a *NumericArray[T]) Slice(off, n int) Array {
	return NewNumeric(a.dtype, a.values[off:off+n], sliceBitmap(a.valid, off, n))
}

// GetScalar returns slot i boxed as a Scalar.
func (a *NumericArray[T]) GetScalar(i int) Scalar {
	if a.IsNull(i) {
		return NullScalar(a.dtype)
	}
	return scalarOf(a.dtype, a.values[i])
}

func (a *NumericArray[T]) String() string { return formatArray(a) }

// BoolArray is a bit-packed boolean array.
type BoolArray struct {
	length int
	values Bitmap
	valid  Bitmap
	nulls  int
}

// NewBool wraps a bit-packed value bitmap of the given length.
func NewBool(values Bitmap, valid Bitmap, length int) *BoolArray {
	nulls := 0
	if valid != nil {
		nulls = length - valid.CountSet(length)
		if nulls == 0 {
			valid = nil
		}
	}
	return &BoolArray{length: length, values: values, valid: valid, nulls: nulls}
}

// NewBoolFromSlice builds a BoolArray from a []bool with no nulls.
func NewBoolFromSlice(vs []bool) *BoolArray {
	bm := NewBitmap(len(vs))
	for i, v := range vs {
		if v {
			bm.Set(i)
		}
	}
	return NewBool(bm, nil, len(vs))
}

func (a *BoolArray) DataType() *DataType { return Boolean }
func (a *BoolArray) Len() int            { return a.length }
func (a *BoolArray) NullCount() int      { return a.nulls }
func (a *BoolArray) IsNull(i int) bool   { return a.valid != nil && !a.valid.Get(i) }
func (a *BoolArray) IsValid(i int) bool  { return a.valid == nil || a.valid.Get(i) }
func (a *BoolArray) Validity() Bitmap    { return a.valid }

// Value returns the boolean at slot i.
func (a *BoolArray) Value(i int) bool { return a.values.Get(i) }

// ValuesBitmap returns the bit-packed values; callers must not mutate it.
func (a *BoolArray) ValuesBitmap() Bitmap { return a.values }

// TrueCount returns the number of slots that are valid and true.
func (a *BoolArray) TrueCount() int {
	if a.valid == nil {
		return a.values.CountSet(a.length)
	}
	c := 0
	for i := 0; i < a.length; i++ {
		if a.valid.Get(i) && a.values.Get(i) {
			c++
		}
	}
	return c
}

func (a *BoolArray) Slice(off, n int) Array {
	return NewBool(sliceBitmap(a.values, off, n), sliceBitmap(a.valid, off, n), n)
}

func (a *BoolArray) GetScalar(i int) Scalar {
	if a.IsNull(i) {
		return NullScalar(Boolean)
	}
	return NewScalar(Boolean, a.values.Get(i))
}

func (a *BoolArray) String() string { return formatArray(a) }

// StringArray stores variable-length UTF-8 strings (or raw bytes for the
// Binary type) in a contiguous data buffer with int32 offsets, as in Arrow.
type StringArray struct {
	dtype   *DataType
	offsets []int32 // len = length+1
	data    []byte
	valid   Bitmap
	nulls   int
}

// NewString builds a string array from the offsets/data representation.
func NewString(dtype *DataType, offsets []int32, data []byte, valid Bitmap) *StringArray {
	n := len(offsets) - 1
	nulls := 0
	if valid != nil {
		nulls = n - valid.CountSet(n)
		if nulls == 0 {
			valid = nil
		}
	}
	return &StringArray{dtype: dtype, offsets: offsets, data: data, valid: valid, nulls: nulls}
}

// NewStringFromSlice builds a String array from Go strings with no nulls.
func NewStringFromSlice(vs []string) *StringArray {
	b := NewStringBuilder(String)
	for _, v := range vs {
		b.Append(v)
	}
	return b.Finish().(*StringArray)
}

func (a *StringArray) DataType() *DataType { return a.dtype }
func (a *StringArray) Len() int            { return len(a.offsets) - 1 }
func (a *StringArray) NullCount() int      { return a.nulls }
func (a *StringArray) IsNull(i int) bool   { return a.valid != nil && !a.valid.Get(i) }
func (a *StringArray) IsValid(i int) bool  { return a.valid == nil || a.valid.Get(i) }
func (a *StringArray) Validity() Bitmap    { return a.valid }

// Value returns the string at slot i. The result shares the backing buffer.
func (a *StringArray) Value(i int) string {
	return unsafeString(a.data[a.offsets[i]:a.offsets[i+1]])
}

// ValueBytes returns the raw bytes at slot i without copying.
func (a *StringArray) ValueBytes(i int) []byte {
	return a.data[a.offsets[i]:a.offsets[i+1]]
}

// Offsets returns the offsets buffer; callers must not mutate it.
func (a *StringArray) Offsets() []int32 { return a.offsets }

// Data returns the contiguous character buffer; callers must not mutate it.
func (a *StringArray) Data() []byte { return a.data }

func (a *StringArray) Slice(off, n int) Array {
	return NewString(a.dtype, a.offsets[off:off+n+1], a.data, sliceBitmap(a.valid, off, n))
}

func (a *StringArray) GetScalar(i int) Scalar {
	if a.IsNull(i) {
		return NullScalar(a.dtype)
	}
	if a.dtype.ID == BINARY {
		return NewScalar(a.dtype, append([]byte(nil), a.ValueBytes(i)...))
	}
	return NewScalar(a.dtype, string(a.ValueBytes(i)))
}

func (a *StringArray) String() string { return formatArray(a) }

// MonthDayMicro is the physical representation of an INTERVAL value.
type MonthDayMicro struct {
	Months int32
	Days   int32
	Micros int64
}

// IntervalArray stores calendar intervals.
type IntervalArray struct {
	values []MonthDayMicro
	valid  Bitmap
	nulls  int
}

// NewInterval wraps interval values.
func NewInterval(values []MonthDayMicro, valid Bitmap) *IntervalArray {
	nulls := 0
	if valid != nil {
		nulls = len(values) - valid.CountSet(len(values))
		if nulls == 0 {
			valid = nil
		}
	}
	return &IntervalArray{values: values, valid: valid, nulls: nulls}
}

func (a *IntervalArray) DataType() *DataType       { return Interval }
func (a *IntervalArray) Len() int                  { return len(a.values) }
func (a *IntervalArray) NullCount() int            { return a.nulls }
func (a *IntervalArray) IsNull(i int) bool         { return a.valid != nil && !a.valid.Get(i) }
func (a *IntervalArray) IsValid(i int) bool        { return a.valid == nil || a.valid.Get(i) }
func (a *IntervalArray) Validity() Bitmap          { return a.valid }
func (a *IntervalArray) Value(i int) MonthDayMicro { return a.values[i] }

func (a *IntervalArray) Slice(off, n int) Array {
	return NewInterval(a.values[off:off+n], sliceBitmap(a.valid, off, n))
}

func (a *IntervalArray) GetScalar(i int) Scalar {
	if a.IsNull(i) {
		return NullScalar(Interval)
	}
	return NewScalar(Interval, a.values[i])
}

func (a *IntervalArray) String() string { return formatArray(a) }

// NullArray is an array of n nulls with no value storage.
type NullArray struct{ length int }

// NewNull returns an all-null array of the given length.
func NewNull(n int) *NullArray { return &NullArray{length: n} }

func (a *NullArray) DataType() *DataType  { return Null }
func (a *NullArray) Len() int             { return a.length }
func (a *NullArray) NullCount() int       { return a.length }
func (a *NullArray) IsNull(int) bool      { return true }
func (a *NullArray) IsValid(int) bool     { return false }
func (a *NullArray) Validity() Bitmap     { return nil }
func (a *NullArray) Slice(_, n int) Array { return NewNull(n) }
func (a *NullArray) GetScalar(int) Scalar { return NullScalar(Null) }
func (a *NullArray) String() string       { return fmt.Sprintf("NullArray[%d]", a.length) }

// ListArray stores variable-length lists of a child array.
type ListArray struct {
	dtype   *DataType
	offsets []int32
	values  Array
	valid   Bitmap
	nulls   int
}

// NewList builds a list array over the child values array.
func NewList(elem *DataType, offsets []int32, values Array, valid Bitmap) *ListArray {
	n := len(offsets) - 1
	nulls := 0
	if valid != nil {
		nulls = n - valid.CountSet(n)
		if nulls == 0 {
			valid = nil
		}
	}
	return &ListArray{dtype: ListOf(elem), offsets: offsets, values: values, valid: valid, nulls: nulls}
}

func (a *ListArray) DataType() *DataType { return a.dtype }
func (a *ListArray) Len() int            { return len(a.offsets) - 1 }
func (a *ListArray) NullCount() int      { return a.nulls }
func (a *ListArray) IsNull(i int) bool   { return a.valid != nil && !a.valid.Get(i) }
func (a *ListArray) IsValid(i int) bool  { return a.valid == nil || a.valid.Get(i) }
func (a *ListArray) Validity() Bitmap    { return a.valid }

// ValueArray returns the list at slot i as a slice of the child array.
func (a *ListArray) ValueArray(i int) Array {
	return a.values.Slice(int(a.offsets[i]), int(a.offsets[i+1]-a.offsets[i]))
}

// Offsets returns the offsets buffer.
func (a *ListArray) Offsets() []int32 { return a.offsets }

// Values returns the child array holding all list elements.
func (a *ListArray) Values() Array { return a.values }

func (a *ListArray) Slice(off, n int) Array {
	valid := sliceBitmap(a.valid, off, n)
	return &ListArray{
		dtype:   a.dtype,
		offsets: a.offsets[off : off+n+1],
		values:  a.values,
		valid:   valid,
		nulls:   n - valid.CountSet(n),
	}
}

func (a *ListArray) GetScalar(i int) Scalar {
	if a.IsNull(i) {
		return NullScalar(a.dtype)
	}
	return NewScalar(a.dtype, a.ValueArray(i))
}

func (a *ListArray) String() string { return fmt.Sprintf("ListArray[%d]", a.Len()) }

// StructArray stores parallel child arrays, one per struct field.
type StructArray struct {
	dtype  *DataType
	fields []Array
	length int
	valid  Bitmap
	nulls  int
}

// NewStruct builds a struct array from parallel child arrays.
func NewStruct(dtype *DataType, fields []Array, valid Bitmap, length int) *StructArray {
	nulls := 0
	if valid != nil {
		nulls = length - valid.CountSet(length)
		if nulls == 0 {
			valid = nil
		}
	}
	return &StructArray{dtype: dtype, fields: fields, length: length, valid: valid, nulls: nulls}
}

func (a *StructArray) DataType() *DataType { return a.dtype }
func (a *StructArray) Len() int            { return a.length }
func (a *StructArray) NullCount() int      { return a.nulls }
func (a *StructArray) IsNull(i int) bool   { return a.valid != nil && !a.valid.Get(i) }
func (a *StructArray) IsValid(i int) bool  { return a.valid == nil || a.valid.Get(i) }
func (a *StructArray) Validity() Bitmap    { return a.valid }

// Field returns the i-th child array.
func (a *StructArray) Field(i int) Array { return a.fields[i] }

func (a *StructArray) Slice(off, n int) Array {
	children := make([]Array, len(a.fields))
	for i, f := range a.fields {
		children[i] = f.Slice(off, n)
	}
	return NewStruct(a.dtype, children, sliceBitmap(a.valid, off, n), n)
}

func (a *StructArray) GetScalar(i int) Scalar {
	if a.IsNull(i) {
		return NullScalar(a.dtype)
	}
	vals := make([]Scalar, len(a.fields))
	for j, f := range a.fields {
		vals[j] = f.GetScalar(i)
	}
	return NewScalar(a.dtype, vals)
}

func (a *StructArray) String() string { return fmt.Sprintf("StructArray[%d]", a.length) }

// sliceBitmap re-packs n bits starting at off into a fresh bitmap, returning
// nil when the source is nil (all valid).
func sliceBitmap(b Bitmap, off, n int) Bitmap {
	if b == nil {
		return nil
	}
	out := NewBitmap(n)
	out.CopyBits(0, b, off, n)
	return out
}

// formatArray renders up to 20 values of any array for debugging.
func formatArray(a Array) string {
	var sb strings.Builder
	sb.WriteString(a.DataType().String())
	sb.WriteByte('[')
	n := a.Len()
	limit := n
	if limit > 20 {
		limit = 20
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		if a.IsNull(i) {
			sb.WriteString("null")
		} else {
			fmt.Fprintf(&sb, "%v", a.GetScalar(i).Val)
		}
	}
	if n > limit {
		fmt.Fprintf(&sb, ", ... (%d total)", n)
	}
	sb.WriteByte(']')
	return sb.String()
}
