// Package arrow implements a columnar in-memory data model inspired by
// Apache Arrow: immutable typed arrays with validity bitmaps, grouped into
// record batches with a schema. It is the memory substrate for the whole
// engine; operators exchange data exclusively as RecordBatches of Arrays.
package arrow

import (
	"fmt"
	"strings"
)

// TypeID identifies the physical type of an array or scalar.
type TypeID int

// Supported type ids.
const (
	NULL TypeID = iota
	BOOL
	INT8
	INT16
	INT32
	INT64
	UINT8
	UINT16
	UINT32
	UINT64
	FLOAT32
	FLOAT64
	STRING
	BINARY
	DATE32    // days since unix epoch, int32
	TIMESTAMP // microseconds since unix epoch, int64
	DECIMAL   // scaled int64 with (precision, scale)
	INTERVAL  // month-day-microsecond interval
	LIST
	STRUCT
)

var typeNames = map[TypeID]string{
	NULL: "Null", BOOL: "Boolean",
	INT8: "Int8", INT16: "Int16", INT32: "Int32", INT64: "Int64",
	UINT8: "UInt8", UINT16: "UInt16", UINT32: "UInt32", UINT64: "UInt64",
	FLOAT32: "Float32", FLOAT64: "Float64",
	STRING: "Utf8", BINARY: "Binary",
	DATE32: "Date32", TIMESTAMP: "Timestamp(us)",
	DECIMAL: "Decimal", INTERVAL: "Interval",
	LIST: "List", STRUCT: "Struct",
}

// DataType describes the logical and physical type of values.
// Instances are immutable; use the predeclared singletons for simple types
// and the constructor functions for parameterized types.
type DataType struct {
	ID TypeID

	// Decimal parameters.
	Precision int
	Scale     int

	// List element type.
	Elem *DataType

	// Struct fields.
	Fields []Field
}

// Predeclared singleton types for all non-parameterized types.
var (
	Null      = &DataType{ID: NULL}
	Boolean   = &DataType{ID: BOOL}
	Int8      = &DataType{ID: INT8}
	Int16     = &DataType{ID: INT16}
	Int32     = &DataType{ID: INT32}
	Int64     = &DataType{ID: INT64}
	Uint8     = &DataType{ID: UINT8}
	Uint16    = &DataType{ID: UINT16}
	Uint32    = &DataType{ID: UINT32}
	Uint64    = &DataType{ID: UINT64}
	Float32   = &DataType{ID: FLOAT32}
	Float64   = &DataType{ID: FLOAT64}
	String    = &DataType{ID: STRING}
	Binary    = &DataType{ID: BINARY}
	Date32    = &DataType{ID: DATE32}
	Timestamp = &DataType{ID: TIMESTAMP}
	Interval  = &DataType{ID: INTERVAL}
)

// decimal18 holds the precision-18 decimal types, the ones kernels derive
// for every decimal result, so deriving one per batch does not allocate.
var decimal18 = func() (ts [19]*DataType) {
	for s := range ts {
		ts[s] = &DataType{ID: DECIMAL, Precision: 18, Scale: s}
	}
	return ts
}()

// Decimal returns a decimal type with the given precision and scale.
// Values are stored as int64 scaled by 10^scale, so precision must be <= 18.
func Decimal(precision, scale int) *DataType {
	if precision == 18 && scale >= 0 && scale < len(decimal18) {
		return decimal18[scale]
	}
	return &DataType{ID: DECIMAL, Precision: precision, Scale: scale}
}

// ListOf returns a list type with the given element type.
func ListOf(elem *DataType) *DataType {
	return &DataType{ID: LIST, Elem: elem}
}

// StructOf returns a struct type with the given fields.
func StructOf(fields ...Field) *DataType {
	return &DataType{ID: STRUCT, Fields: fields}
}

// Equal reports whether two data types are identical, including parameters.
// Decimal scales must match; precisions are ignored for equality because the
// engine computes with a single physical representation.
func (t *DataType) Equal(o *DataType) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.ID != o.ID {
		return false
	}
	switch t.ID {
	case DECIMAL:
		return t.Scale == o.Scale
	case LIST:
		return t.Elem.Equal(o.Elem)
	case STRUCT:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Equal(o.Fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the type for display and plan explanation.
func (t *DataType) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.ID {
	case DECIMAL:
		return fmt.Sprintf("Decimal(%d,%d)", t.Precision, t.Scale)
	case LIST:
		return fmt.Sprintf("List<%s>", t.Elem)
	case STRUCT:
		var b strings.Builder
		b.WriteString("Struct<")
		for i, f := range t.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s: %s", f.Name, f.Type)
		}
		b.WriteString(">")
		return b.String()
	default:
		return typeNames[t.ID]
	}
}

// IsNumeric reports whether the type participates in arithmetic.
func (t *DataType) IsNumeric() bool {
	switch t.ID {
	case INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64, FLOAT32, FLOAT64, DECIMAL:
		return true
	}
	return false
}

// IsInteger reports whether the type is a signed or unsigned integer.
func (t *DataType) IsInteger() bool {
	switch t.ID {
	case INT8, INT16, INT32, INT64, UINT8, UINT16, UINT32, UINT64:
		return true
	}
	return false
}

// IsSignedInteger reports whether the type is a signed integer.
func (t *DataType) IsSignedInteger() bool {
	switch t.ID {
	case INT8, INT16, INT32, INT64:
		return true
	}
	return false
}

// IsFloat reports whether the type is a floating point type.
func (t *DataType) IsFloat() bool {
	return t.ID == FLOAT32 || t.ID == FLOAT64
}

// IsTemporal reports whether the type represents a point or span in time.
func (t *DataType) IsTemporal() bool {
	return t.ID == DATE32 || t.ID == TIMESTAMP || t.ID == INTERVAL
}

// BitWidth returns the fixed bit width of the type's values, or 0 for
// variable-width types (String, Binary, List, Struct).
func (t *DataType) BitWidth() int {
	switch t.ID {
	case BOOL, INT8, UINT8:
		return 8
	case INT16, UINT16:
		return 16
	case INT32, UINT32, FLOAT32, DATE32:
		return 32
	case INT64, UINT64, FLOAT64, TIMESTAMP, DECIMAL:
		return 64
	case INTERVAL:
		return 128
	}
	return 0
}
