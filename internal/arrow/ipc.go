package arrow

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"unsafe"
)

// This file implements a compact binary serialization of schemas and record
// batches, used for spill files and inter-process transport. Buffers are
// written in host byte order (the implementation targets little-endian
// hosts, as the Arrow IPC format does by default).

// NumericBytes views a numeric slice as raw bytes without copying.
func NumericBytes[T Number](vs []T) []byte {
	if len(vs) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*int(unsafe.Sizeof(zero)))
}

// BytesToNumeric views raw bytes as a numeric slice without copying. The
// byte slice must remain alive and unmutated while the result is used.
func BytesToNumeric[T Number](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	var zero T
	sz := int(unsafe.Sizeof(zero))
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/sz)
}

type jsonField struct {
	Name     string    `json:"name"`
	Type     *jsonType `json:"type"`
	Nullable bool      `json:"nullable,omitempty"`
}

type jsonType struct {
	ID        TypeID      `json:"id"`
	Precision int         `json:"precision,omitempty"`
	Scale     int         `json:"scale,omitempty"`
	Elem      *jsonType   `json:"elem,omitempty"`
	Fields    []jsonField `json:"fields,omitempty"`
}

func typeToJSON(t *DataType) *jsonType {
	jt := &jsonType{ID: t.ID, Precision: t.Precision, Scale: t.Scale}
	if t.Elem != nil {
		jt.Elem = typeToJSON(t.Elem)
	}
	for _, f := range t.Fields {
		jt.Fields = append(jt.Fields, jsonField{Name: f.Name, Type: typeToJSON(f.Type), Nullable: f.Nullable})
	}
	return jt
}

func typeFromJSON(jt *jsonType) (*DataType, error) {
	if jt == nil {
		return nil, fmt.Errorf("arrow: decoding schema: a field has no type")
	}
	t := &DataType{ID: jt.ID, Precision: jt.Precision, Scale: jt.Scale}
	if jt.Elem != nil {
		elem, err := typeFromJSON(jt.Elem)
		if err != nil {
			return nil, err
		}
		t.Elem = elem
	}
	for _, f := range jt.Fields {
		ft, err := typeFromJSON(f.Type)
		if err != nil {
			return nil, err
		}
		t.Fields = append(t.Fields, Field{Name: f.Name, Type: ft, Nullable: f.Nullable})
	}
	// Collapse simple types to their singletons for pointer-equality fast paths.
	if t.Elem == nil && t.Fields == nil && t.ID != DECIMAL {
		for _, s := range []*DataType{Null, Boolean, Int8, Int16, Int32, Int64, Uint8,
			Uint16, Uint32, Uint64, Float32, Float64, String, Binary, Date32, Timestamp, Interval} {
			if s.ID == t.ID {
				return s, nil
			}
		}
	}
	return t, nil
}

// MarshalSchema encodes a schema as JSON, used in file footers and streams.
func MarshalSchema(s *Schema) ([]byte, error) {
	fields := make([]jsonField, s.NumFields())
	for i, f := range s.Fields() {
		fields[i] = jsonField{Name: f.Name, Type: typeToJSON(f.Type), Nullable: f.Nullable}
	}
	return json.Marshal(fields)
}

// UnmarshalSchema decodes a schema produced by MarshalSchema.
func UnmarshalSchema(data []byte) (*Schema, error) {
	var fields []jsonField
	if err := json.Unmarshal(data, &fields); err != nil {
		return nil, fmt.Errorf("arrow: decoding schema: %w", err)
	}
	out := make([]Field, len(fields))
	for i, f := range fields {
		t, err := typeFromJSON(f.Type)
		if err != nil {
			return nil, err
		}
		out[i] = Field{Name: f.Name, Type: t, Nullable: f.Nullable}
	}
	return NewSchema(out...), nil
}

func writeBuf(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

func readBuf(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func writeArray(w io.Writer, a Array) error {
	if err := writeBuf(w, a.Validity()); err != nil {
		return err
	}
	switch arr := a.(type) {
	case *Int8Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Int16Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Int32Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Int64Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Uint8Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Uint16Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Uint32Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Uint64Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Float32Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *Float64Array:
		return writeBuf(w, NumericBytes(arr.Values()))
	case *BoolArray:
		return writeBuf(w, arr.ValuesBitmap())
	case *StringArray:
		if err := writeBuf(w, NumericBytes(arr.Offsets())); err != nil {
			return err
		}
		return writeBuf(w, arr.Data())
	case *IntervalArray:
		bld := make([]byte, 0, arr.Len()*16)
		var tmp [16]byte
		for i := 0; i < arr.Len(); i++ {
			v := arr.Value(i)
			binary.LittleEndian.PutUint32(tmp[0:], uint32(v.Months))
			binary.LittleEndian.PutUint32(tmp[4:], uint32(v.Days))
			binary.LittleEndian.PutUint64(tmp[8:], uint64(v.Micros))
			bld = append(bld, tmp[:]...)
		}
		return writeBuf(w, bld)
	case *NullArray:
		return nil
	case *ListArray:
		if err := writeBuf(w, NumericBytes(arr.Offsets())); err != nil {
			return err
		}
		return writeArray(w, arr.Values())
	case *StructArray:
		for i := 0; i < len(arr.fields); i++ {
			if err := writeArray(w, arr.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("arrow: cannot serialize array of type %s", a.DataType())
}

func readArray(r io.Reader, t *DataType, n int) (Array, error) {
	valid, err := readBuf(r)
	if err != nil {
		return nil, err
	}
	var vb Bitmap
	if len(valid) > 0 {
		vb = Bitmap(valid)
	}
	readNumeric := func() ([]byte, error) { return readBuf(r) }
	switch t.ID {
	case INT8:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[int8](b), vb), err
	case INT16:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[int16](b), vb), err
	case INT32, DATE32:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[int32](b), vb), err
	case INT64, TIMESTAMP, DECIMAL:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[int64](b), vb), err
	case UINT8:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[uint8](b), vb), err
	case UINT16:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[uint16](b), vb), err
	case UINT32:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[uint32](b), vb), err
	case UINT64:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[uint64](b), vb), err
	case FLOAT32:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[float32](b), vb), err
	case FLOAT64:
		b, err := readNumeric()
		return NewNumeric(t, BytesToNumeric[float64](b), vb), err
	case BOOL:
		b, err := readNumeric()
		return NewBool(Bitmap(b), vb, n), err
	case STRING, BINARY:
		ob, err := readBuf(r)
		if err != nil {
			return nil, err
		}
		db, err := readBuf(r)
		if err != nil {
			return nil, err
		}
		return NewString(t, BytesToNumeric[int32](ob), db, vb), nil
	case INTERVAL:
		b, err := readBuf(r)
		if err != nil {
			return nil, err
		}
		vals := make([]MonthDayMicro, len(b)/16)
		for i := range vals {
			vals[i] = MonthDayMicro{
				Months: int32(binary.LittleEndian.Uint32(b[i*16:])),
				Days:   int32(binary.LittleEndian.Uint32(b[i*16+4:])),
				Micros: int64(binary.LittleEndian.Uint64(b[i*16+8:])),
			}
		}
		return NewInterval(vals, vb), nil
	case NULL:
		return NewNull(n), nil
	case LIST:
		ob, err := readBuf(r)
		if err != nil {
			return nil, err
		}
		offsets := BytesToNumeric[int32](ob)
		childLen := 0
		if len(offsets) > 0 {
			childLen = int(offsets[len(offsets)-1])
		}
		child, err := readArray(r, t.Elem, childLen)
		if err != nil {
			return nil, err
		}
		return NewList(t.Elem, offsets, child, vb), nil
	case STRUCT:
		children := make([]Array, len(t.Fields))
		for i, f := range t.Fields {
			c, err := readArray(r, f.Type, n)
			if err != nil {
				return nil, err
			}
			children[i] = c
		}
		return NewStruct(t, children, vb, n), nil
	}
	return nil, fmt.Errorf("arrow: cannot deserialize array of type %s", t)
}

// WriteBatch serializes a record batch. The schema is not written; pair with
// a schema written once per stream via MarshalSchema.
func WriteBatch(w io.Writer, b *RecordBatch) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(b.NumRows()))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(b.NumCols()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, c := range b.Columns() {
		if err := writeArray(w, c); err != nil {
			return err
		}
	}
	return nil
}

// ReadBatch deserializes one record batch written by WriteBatch. It returns
// io.EOF when the stream is exhausted.
func ReadBatch(r io.Reader, schema *Schema) (*RecordBatch, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	numRows := int(binary.LittleEndian.Uint32(hdr[:4]))
	numCols := int(binary.LittleEndian.Uint32(hdr[4:]))
	cols := make([]Array, numCols)
	for i := 0; i < numCols; i++ {
		a, err := readArray(r, schema.Field(i).Type, numRows)
		if err != nil {
			return nil, err
		}
		cols[i] = a
	}
	return NewRecordBatchWithRows(schema, cols, numRows), nil
}
