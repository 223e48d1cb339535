package arrow

import "fmt"

// Builder incrementally assembles an Array. Builders are the write-side dual
// of the immutable Array types; Finish returns the built array and resets
// the builder for reuse.
type Builder interface {
	// DataType returns the type of the array being built.
	DataType() *DataType
	// Len returns the number of appended slots.
	Len() int
	// AppendNull appends a null slot.
	AppendNull()
	// AppendScalar appends a boxed value (slow path); the scalar's physical
	// representation must match the builder's type.
	AppendScalar(s Scalar)
	// AppendFrom copies slot i of src, which must have the same type.
	AppendFrom(src Array, i int)
	// Reserve ensures capacity for n more slots.
	Reserve(n int)
	// Finish returns the built array and resets the builder.
	Finish() Array
}

// NewBuilder returns a builder for the given data type.
func NewBuilder(t *DataType) Builder {
	switch t.ID {
	case BOOL:
		return NewBoolBuilder()
	case INT8:
		return NewNumericBuilder[int8](t)
	case INT16:
		return NewNumericBuilder[int16](t)
	case INT32, DATE32:
		return NewNumericBuilder[int32](t)
	case INT64, TIMESTAMP, DECIMAL:
		return NewNumericBuilder[int64](t)
	case UINT8:
		return NewNumericBuilder[uint8](t)
	case UINT16:
		return NewNumericBuilder[uint16](t)
	case UINT32:
		return NewNumericBuilder[uint32](t)
	case UINT64:
		return NewNumericBuilder[uint64](t)
	case FLOAT32:
		return NewNumericBuilder[float32](t)
	case FLOAT64:
		return NewNumericBuilder[float64](t)
	case STRING, BINARY:
		return NewStringBuilder(t)
	case INTERVAL:
		return NewIntervalBuilder()
	case NULL:
		return &nullBuilder{}
	case LIST:
		return NewListBuilder(t.Elem)
	case STRUCT:
		return NewStructBuilder(t)
	}
	panic(fmt.Sprintf("arrow: no builder for type %s", t))
}

type validityTracker struct {
	valid   Bitmap
	anyNull bool
	length  int
}

func (v *validityTracker) appendValid() {
	if v.anyNull {
		v.ensure()
		v.valid.Set(v.length)
	}
	v.length++
}

func (v *validityTracker) appendNull() {
	if !v.anyNull {
		v.anyNull = true
		v.valid = NewBitmapSet(v.length)
		// grow to cover existing bits plus the new one
		for len(v.valid)*8 <= v.length {
			v.valid = append(v.valid, 0)
		}
		v.valid.Clear(v.length)
		v.length++
		return
	}
	v.ensure()
	v.valid.Clear(v.length)
	v.length++
}

func (v *validityTracker) ensure() {
	for len(v.valid)*8 <= v.length {
		v.valid = append(v.valid, 0)
	}
}

func (v *validityTracker) finish() Bitmap {
	out := v.valid
	if !v.anyNull {
		out = nil
	}
	v.valid = nil
	v.anyNull = false
	v.length = 0
	return out
}

// NumericBuilder builds fixed-width numeric arrays of T.
type NumericBuilder[T Number] struct {
	dtype  *DataType
	values []T
	vt     validityTracker
}

// NewNumericBuilder returns a builder for a fixed-width array of type t.
func NewNumericBuilder[T Number](t *DataType) *NumericBuilder[T] {
	return &NumericBuilder[T]{dtype: t}
}

func (b *NumericBuilder[T]) DataType() *DataType { return b.dtype }
func (b *NumericBuilder[T]) Len() int            { return len(b.values) }
func (b *NumericBuilder[T]) Reserve(n int) {
	if cap(b.values)-len(b.values) < n {
		nv := make([]T, len(b.values), len(b.values)+n)
		copy(nv, b.values)
		b.values = nv
	}
}

// Append appends a non-null value.
func (b *NumericBuilder[T]) Append(v T) {
	b.values = append(b.values, v)
	b.vt.appendValid()
}

func (b *NumericBuilder[T]) AppendNull() {
	var zero T
	b.values = append(b.values, zero)
	b.vt.appendNull()
}

func (b *NumericBuilder[T]) AppendScalar(s Scalar) {
	if s.Null {
		b.AppendNull()
		return
	}
	b.Append(s.Val.(T))
}

func (b *NumericBuilder[T]) AppendFrom(src Array, i int) {
	a := src.(*NumericArray[T])
	if a.IsNull(i) {
		b.AppendNull()
		return
	}
	b.Append(a.values[i])
}

// AppendSlice appends a run of non-null values.
func (b *NumericBuilder[T]) AppendSlice(vs []T) {
	b.values = append(b.values, vs...)
	for range vs {
		b.vt.appendValid()
	}
}

func (b *NumericBuilder[T]) Finish() Array {
	arr := NewNumeric(b.dtype, b.values, b.vt.finish())
	b.values = nil
	return arr
}

// BoolBuilder builds boolean arrays.
type BoolBuilder struct {
	values Bitmap
	n      int
	vt     validityTracker
}

// NewBoolBuilder returns a builder for boolean arrays.
func NewBoolBuilder() *BoolBuilder { return &BoolBuilder{} }

func (b *BoolBuilder) DataType() *DataType { return Boolean }
func (b *BoolBuilder) Len() int            { return b.n }
func (b *BoolBuilder) Reserve(int)         {}

// Append appends a non-null boolean.
func (b *BoolBuilder) Append(v bool) {
	for len(b.values)*8 <= b.n {
		b.values = append(b.values, 0)
	}
	b.values.Put(b.n, v)
	b.n++
	b.vt.appendValid()
}

func (b *BoolBuilder) AppendNull() {
	for len(b.values)*8 <= b.n {
		b.values = append(b.values, 0)
	}
	b.n++
	b.vt.appendNull()
}

func (b *BoolBuilder) AppendScalar(s Scalar) {
	if s.Null {
		b.AppendNull()
		return
	}
	b.Append(s.Val.(bool))
}

func (b *BoolBuilder) AppendFrom(src Array, i int) {
	a := src.(*BoolArray)
	if a.IsNull(i) {
		b.AppendNull()
		return
	}
	b.Append(a.Value(i))
}

func (b *BoolBuilder) Finish() Array {
	arr := NewBool(b.values, b.vt.finish(), b.n)
	b.values, b.n = nil, 0
	return arr
}

// StringBuilder builds Utf8 and Binary arrays.
type StringBuilder struct {
	dtype   *DataType
	offsets []int32
	data    []byte
	vt      validityTracker
}

// NewStringBuilder returns a builder for t, which must be String or Binary.
func NewStringBuilder(t *DataType) *StringBuilder {
	return &StringBuilder{dtype: t, offsets: []int32{0}}
}

func (b *StringBuilder) DataType() *DataType { return b.dtype }
func (b *StringBuilder) Len() int            { return len(b.offsets) - 1 }

// Reserve ensures capacity for n more slots' offsets; ReserveData does the
// same for their bytes.
func (b *StringBuilder) Reserve(n int) {
	if cap(b.offsets)-len(b.offsets) < n {
		b.offsets = append(make([]int32, 0, len(b.offsets)+n), b.offsets...)
	}
}

// ReserveData ensures capacity for n more bytes of string data.
func (b *StringBuilder) ReserveData(n int) {
	if cap(b.data)-len(b.data) < n {
		b.data = append(make([]byte, 0, len(b.data)+n), b.data...)
	}
}

// Append appends a non-null string.
func (b *StringBuilder) Append(v string) {
	b.data = append(b.data, v...)
	b.offsets = append(b.offsets, int32(len(b.data)))
	b.vt.appendValid()
}

// AppendBytes appends non-null raw bytes.
func (b *StringBuilder) AppendBytes(v []byte) {
	b.data = append(b.data, v...)
	b.offsets = append(b.offsets, int32(len(b.data)))
	b.vt.appendValid()
}

func (b *StringBuilder) AppendNull() {
	b.offsets = append(b.offsets, int32(len(b.data)))
	b.vt.appendNull()
}

func (b *StringBuilder) AppendScalar(s Scalar) {
	if s.Null {
		b.AppendNull()
		return
	}
	switch v := s.Val.(type) {
	case string:
		b.Append(v)
	case []byte:
		b.AppendBytes(v)
	default:
		panic(fmt.Sprintf("arrow: cannot append %T to string builder", s.Val))
	}
}

func (b *StringBuilder) AppendFrom(src Array, i int) {
	a := src.(*StringArray)
	if a.IsNull(i) {
		b.AppendNull()
		return
	}
	b.AppendBytes(a.ValueBytes(i))
}

func (b *StringBuilder) Finish() Array {
	arr := NewString(b.dtype, b.offsets, b.data, b.vt.finish())
	b.offsets, b.data = []int32{0}, nil
	return arr
}

// IntervalBuilder builds interval arrays.
type IntervalBuilder struct {
	values []MonthDayMicro
	vt     validityTracker
}

// NewIntervalBuilder returns a builder for interval arrays.
func NewIntervalBuilder() *IntervalBuilder { return &IntervalBuilder{} }

func (b *IntervalBuilder) DataType() *DataType { return Interval }
func (b *IntervalBuilder) Len() int            { return len(b.values) }
func (b *IntervalBuilder) Reserve(int)         {}

// Append appends a non-null interval.
func (b *IntervalBuilder) Append(v MonthDayMicro) {
	b.values = append(b.values, v)
	b.vt.appendValid()
}

func (b *IntervalBuilder) AppendNull() {
	b.values = append(b.values, MonthDayMicro{})
	b.vt.appendNull()
}

func (b *IntervalBuilder) AppendScalar(s Scalar) {
	if s.Null {
		b.AppendNull()
		return
	}
	b.Append(s.Val.(MonthDayMicro))
}

func (b *IntervalBuilder) AppendFrom(src Array, i int) {
	a := src.(*IntervalArray)
	if a.IsNull(i) {
		b.AppendNull()
		return
	}
	b.Append(a.Value(i))
}

func (b *IntervalBuilder) Finish() Array {
	arr := NewInterval(b.values, b.vt.finish())
	b.values = nil
	return arr
}

type nullBuilder struct{ n int }

func (b *nullBuilder) DataType() *DataType   { return Null }
func (b *nullBuilder) Len() int              { return b.n }
func (b *nullBuilder) Reserve(int)           {}
func (b *nullBuilder) AppendNull()           { b.n++ }
func (b *nullBuilder) AppendScalar(Scalar)   { b.n++ }
func (b *nullBuilder) AppendFrom(Array, int) { b.n++ }
func (b *nullBuilder) Finish() Array {
	a := NewNull(b.n)
	b.n = 0
	return a
}

// ListBuilder builds list arrays by delegating element appends to a child
// builder and closing lists explicitly.
type ListBuilder struct {
	elem    *DataType
	child   Builder
	offsets []int32
	vt      validityTracker
}

// NewListBuilder returns a builder for List<elem>.
func NewListBuilder(elem *DataType) *ListBuilder {
	return &ListBuilder{elem: elem, child: NewBuilder(elem), offsets: []int32{0}}
}

func (b *ListBuilder) DataType() *DataType { return ListOf(b.elem) }
func (b *ListBuilder) Len() int            { return len(b.offsets) - 1 }
func (b *ListBuilder) Reserve(int)         {}

// Child returns the element builder; append elements, then call CloseList.
func (b *ListBuilder) Child() Builder { return b.child }

// CloseList finishes the current list slot.
func (b *ListBuilder) CloseList() {
	b.offsets = append(b.offsets, int32(b.child.Len()))
	b.vt.appendValid()
}

func (b *ListBuilder) AppendNull() {
	b.offsets = append(b.offsets, int32(b.child.Len()))
	b.vt.appendNull()
}

func (b *ListBuilder) AppendScalar(s Scalar) {
	if s.Null {
		b.AppendNull()
		return
	}
	elems := s.Val.(Array)
	for i := 0; i < elems.Len(); i++ {
		b.child.AppendFrom(elems, i)
	}
	b.CloseList()
}

func (b *ListBuilder) AppendFrom(src Array, i int) {
	a := src.(*ListArray)
	if a.IsNull(i) {
		b.AppendNull()
		return
	}
	start, end := int(a.offsets[i]), int(a.offsets[i+1])
	for j := start; j < end; j++ {
		b.child.AppendFrom(a.values, j)
	}
	b.CloseList()
}

func (b *ListBuilder) Finish() Array {
	arr := NewList(b.elem, b.offsets, b.child.Finish(), b.vt.finish())
	b.offsets = []int32{0}
	return arr
}

// StructBuilder builds struct arrays with one child builder per field.
type StructBuilder struct {
	dtype    *DataType
	children []Builder
	n        int
	vt       validityTracker
}

// NewStructBuilder returns a builder for the given struct type.
func NewStructBuilder(t *DataType) *StructBuilder {
	children := make([]Builder, len(t.Fields))
	for i, f := range t.Fields {
		children[i] = NewBuilder(f.Type)
	}
	return &StructBuilder{dtype: t, children: children}
}

func (b *StructBuilder) DataType() *DataType { return b.dtype }
func (b *StructBuilder) Len() int            { return b.n }
func (b *StructBuilder) Reserve(int)         {}

// FieldBuilder returns the builder for field i; append to every field, then
// call CloseRow.
func (b *StructBuilder) FieldBuilder(i int) Builder { return b.children[i] }

// CloseRow finishes the current struct slot.
func (b *StructBuilder) CloseRow() {
	b.n++
	b.vt.appendValid()
}

func (b *StructBuilder) AppendNull() {
	for _, c := range b.children {
		c.AppendNull()
	}
	b.n++
	b.vt.appendNull()
}

func (b *StructBuilder) AppendScalar(s Scalar) {
	if s.Null {
		b.AppendNull()
		return
	}
	vals := s.Val.([]Scalar)
	for i, c := range b.children {
		c.AppendScalar(vals[i])
	}
	b.CloseRow()
}

func (b *StructBuilder) AppendFrom(src Array, i int) {
	a := src.(*StructArray)
	if a.IsNull(i) {
		b.AppendNull()
		return
	}
	for j, c := range b.children {
		c.AppendFrom(a.fields[j], i)
	}
	b.CloseRow()
}

func (b *StructBuilder) Finish() Array {
	fields := make([]Array, len(b.children))
	for i, c := range b.children {
		fields[i] = c.Finish()
	}
	arr := NewStruct(b.dtype, fields, b.vt.finish(), b.n)
	b.n = 0
	return arr
}
