// Package parquet implements GPQ, a simplified but real columnar file
// format standing in for Apache Parquet. A GPQ file contains row groups;
// each row group contains one column chunk per field; each chunk contains
// data pages (plain, bit-packed, run-length or delta encoded integers,
// the writer picking the smallest per page, and delta-length strings —
// see pages.go) plus min/max/null-count statistics at page and chunk
// granularity, and a Bloom filter on integer and string columns. There
// are no dictionary pages and no byte codec: plain values and string
// bytes are stored as arrow holds them, and a mapped file's pages are
// read in place. The reader implements projection,
// predicate and limit pushdown with page-level late materialization
// (paper Section 6.8).
//
// File layout:
//
//	"GPQ1" | page data ... | footer JSON | footer length (4B LE) | "GPQ1"
package parquet

import (
	"encoding/json"
	"fmt"
	"math"

	"gofusion/internal/arrow"
)

// Magic is the leading and trailing file marker.
const Magic = "GPQ1"

// formatVersion is the footer version this package writes and the only
// one it reads.
const formatVersion = 4

// Encodings for data pages; pages.go gives the layouts.
const (
	EncodingPlain    = "plain"
	EncodingBitPack  = "bitpack"
	EncodingRLE      = "rle"
	EncodingDelta    = "delta"
	EncodingDeltaLen = "dlen"
)

// statsValue is a JSON-friendly variant holding a typed min or max value.
type statsValue struct {
	I *int64   `json:"i,omitempty"`
	F *float64 `json:"f,omitempty"`
	S *string  `json:"s,omitempty"`
	B *bool    `json:"b,omitempty"`
}

// statsKind names the statsValue field that holds min/max values of type
// t: 'f', 's', 'b' or 'i'.
func statsKind(t *arrow.DataType) byte {
	switch t.ID {
	case arrow.FLOAT32, arrow.FLOAT64:
		return 'f'
	case arrow.STRING, arrow.BINARY:
		return 's'
	case arrow.BOOL:
		return 'b'
	}
	return 'i'
}

func statsValueOf(s arrow.Scalar) *statsValue {
	if s.Null {
		return nil
	}
	switch statsKind(s.Type) {
	case 'f':
		f := s.AsFloat64()
		if math.IsNaN(f) {
			return nil
		}
		return &statsValue{F: &f}
	case 's':
		v := s.AsString()
		// Truncate long stats values; min stays a valid lower bound and max
		// is widened by bumping the last byte.
		if len(v) > 64 {
			v = v[:64]
		}
		return &statsValue{S: &v}
	case 'b':
		b := s.AsBool()
		return &statsValue{B: &b}
	default:
		i := s.AsInt64()
		return &statsValue{I: &i}
	}
}

// kind returns the field v sets ('i', 'f', 's' or 'b'), or 0 unless it
// sets exactly one.
func (v *statsValue) kind() byte {
	kind := byte(0)
	for i, set := range [...]bool{v.I != nil, v.F != nil, v.S != nil, v.B != nil} {
		if set {
			if kind != 0 {
				return 0
			}
			kind = "ifsb"[i]
		}
	}
	return kind
}

// toScalar returns the value as a scalar of type t, or a null scalar when
// there is none. ReadMetadata has checked that v holds t's kind.
func (v *statsValue) toScalar(t *arrow.DataType) arrow.Scalar {
	if v == nil {
		return arrow.NullScalar(t)
	}
	switch t.ID {
	case arrow.FLOAT32:
		return arrow.NewScalar(t, float32(*v.F))
	case arrow.FLOAT64:
		return arrow.NewScalar(t, *v.F)
	case arrow.STRING, arrow.BINARY:
		return arrow.NewScalar(t, *v.S)
	case arrow.BOOL:
		return arrow.NewScalar(t, *v.B)
	case arrow.INT8:
		return arrow.NewScalar(t, int8(*v.I))
	case arrow.INT16:
		return arrow.NewScalar(t, int16(*v.I))
	case arrow.INT32, arrow.DATE32:
		return arrow.NewScalar(t, int32(*v.I))
	case arrow.UINT8:
		return arrow.NewScalar(t, uint8(*v.I))
	case arrow.UINT16:
		return arrow.NewScalar(t, uint16(*v.I))
	case arrow.UINT32:
		return arrow.NewScalar(t, uint32(*v.I))
	case arrow.UINT64:
		return arrow.NewScalar(t, uint64(*v.I))
	}
	return arrow.NewScalar(t, *v.I)
}

// ColumnStats summarizes the values in a page or column chunk, used for
// zone-map style pruning. Min/Max are inclusive bounds; a truncated string
// max is widened so the bound stays valid.
type ColumnStats struct {
	Min       arrow.Scalar
	Max       arrow.Scalar
	HasMinMax bool
	NullCount int64
	NumRows   int64
}

type statsMeta struct {
	Min       *statsValue `json:"min,omitempty"`
	Max       *statsValue `json:"max,omitempty"`
	NullCount int64       `json:"nulls"`
	NumRows   int64       `json:"rows"`
}

func (m statsMeta) toStats(t *arrow.DataType) ColumnStats {
	cs := ColumnStats{NullCount: m.NullCount, NumRows: m.NumRows, Min: m.Min.toScalar(t), Max: m.Max.toScalar(t)}
	if cs.HasMinMax = !cs.Min.Null && !cs.Max.Null; !cs.HasMinMax {
		cs.Min, cs.Max = arrow.NullScalar(t), arrow.NullScalar(t)
	}
	return cs
}

type pageMeta struct {
	Offset   int64     `json:"off"`
	Len      int64     `json:"len"`
	NumRows  int64     `json:"rows"`
	FirstRow int64     `json:"first"` // row index within the row group
	Encoding string    `json:"enc"`
	Stats    statsMeta `json:"stats"`
}

type bloomMeta struct {
	Offset    int64 `json:"off"`
	Len       int64 `json:"len"`
	NumHashes int   `json:"k"`
}

type columnChunkMeta struct {
	Pages []pageMeta `json:"pages"`
	Bloom *bloomMeta `json:"bloom,omitempty"`
	Stats statsMeta  `json:"stats"`
}

type rowGroupMeta struct {
	NumRows int64             `json:"rows"`
	Columns []columnChunkMeta `json:"cols"`
}

type fileFooter struct {
	Schema    json.RawMessage   `json:"schema"`
	NumRows   int64             `json:"rows"`
	RowGroups []rowGroupMeta    `json:"groups"`
	KV        map[string]string `json:"kv,omitempty"`
	Version   int               `json:"v"`
}

// FileMetadata is the decoded footer of a GPQ file, exposed so catalogs can
// cache it and plan from statistics without re-opening files.
type FileMetadata struct {
	Schema  *arrow.Schema
	NumRows int64
	KV      map[string]string
	footer  *fileFooter
}

// NumRowGroups returns the number of row groups.
func (m *FileMetadata) NumRowGroups() int { return len(m.footer.RowGroups) }

// RowGroupRows returns the number of rows in row group i.
func (m *FileMetadata) RowGroupRows(i int) int64 { return m.footer.RowGroups[i].NumRows }

// SplitRowGroup cuts row group rg into at most n ranges that tile it, each
// cut at the page-stripe boundary (the first row of a page of the first
// column chunk; the writer cuts every column at the same rows) nearest to
// an even share of its rows. A row group of one stripe stays whole.
func (m *FileMetadata) SplitRowGroup(rg, n int) []RowRange {
	group := &m.footer.RowGroups[rg]
	var starts []int64
	if len(group.Columns) > 0 {
		for _, p := range group.Columns[0].Pages {
			starts = append(starts, p.FirstRow)
		}
	}
	out := []RowRange{{RowGroup: rg, End: group.NumRows}}
	for i := 1; i < n; i++ {
		want := group.NumRows * int64(i) / int64(n)
		cut := int64(-1)
		for _, s := range starts {
			if s > out[len(out)-1].Start && s < group.NumRows && (cut < 0 || abs64(s-want) < abs64(cut-want)) {
				cut = s
			}
		}
		if cut < 0 {
			break
		}
		out[len(out)-1].End = cut
		out = append(out, RowRange{RowGroup: rg, Start: cut, End: group.NumRows})
	}
	return out
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// ColumnChunkStats returns the chunk-level statistics for (rowGroup, col).
func (m *FileMetadata) ColumnChunkStats(rg, col int) ColumnStats {
	t := m.Schema.Field(col).Type
	return m.footer.RowGroups[rg].Columns[col].Stats.toStats(t)
}

// PageInfo describes how one page of a column chunk is stored.
type PageInfo struct {
	Encoding    string
	Rows        int64
	StoredBytes int64
}

// ColumnChunkPages lists the pages of (rowGroup, col).
func (m *FileMetadata) ColumnChunkPages(rg, col int) []PageInfo {
	var out []PageInfo
	for _, p := range m.footer.RowGroups[rg].Columns[col].Pages {
		out = append(out, PageInfo{Encoding: p.Encoding, Rows: p.NumRows, StoredBytes: p.Len})
	}
	return out
}

// ColumnStatsForFile aggregates chunk statistics across all row groups.
func (m *FileMetadata) ColumnStatsForFile(col int) ColumnStats {
	t := m.Schema.Field(col).Type
	agg := ColumnStats{Min: arrow.NullScalar(t), Max: arrow.NullScalar(t)}
	for rg := range m.footer.RowGroups {
		cs := m.ColumnChunkStats(rg, col)
		agg.NullCount += cs.NullCount
		agg.NumRows += cs.NumRows
		if cs.HasMinMax {
			if !agg.HasMinMax {
				agg.Min, agg.Max, agg.HasMinMax = cs.Min, cs.Max, true
			} else {
				if scalarLess(cs.Min, agg.Min) {
					agg.Min = cs.Min
				}
				if scalarLess(agg.Max, cs.Max) {
					agg.Max = cs.Max
				}
			}
		}
	}
	return agg
}

func scalarLess(a, b arrow.Scalar) bool {
	if a.Null || b.Null {
		return false
	}
	switch a.Type.ID {
	case arrow.FLOAT32, arrow.FLOAT64:
		return a.AsFloat64() < b.AsFloat64()
	case arrow.STRING, arrow.BINARY:
		return a.AsString() < b.AsString()
	case arrow.BOOL:
		return !a.AsBool() && b.AsBool()
	default:
		return a.AsInt64() < b.AsInt64()
	}
}

var errFormat = fmt.Errorf("parquet: malformed GPQ file")
