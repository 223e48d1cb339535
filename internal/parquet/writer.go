package parquet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// WriterOptions configures GPQ file writing.
type WriterOptions struct {
	// RowGroupRows is the maximum rows per row group (default 131072).
	RowGroupRows int
	// PageRows is the maximum rows per data page (default 8192).
	PageRows int
	// Compression applies the LZ byte codec to the value bytes of pages it
	// shrinks (default on via DefaultWriterOptions). The page encoding is
	// not an option: the writer picks the smallest per page.
	Compression bool
	// Dictionary enables dictionary encoding of low-cardinality string
	// columns.
	Dictionary bool
	// BloomFilters builds per-chunk Bloom filters on integer and string
	// columns.
	BloomFilters bool
	// KV is arbitrary metadata stored in the footer (e.g. sort order).
	KV map[string]string
}

// DefaultWriterOptions returns the recommended writer configuration.
func DefaultWriterOptions() WriterOptions {
	return WriterOptions{
		RowGroupRows: 128 * 1024,
		PageRows:     8192,
		Compression:  true,
		Dictionary:   true,
		BloomFilters: true,
	}
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.RowGroupRows <= 0 {
		o.RowGroupRows = 128 * 1024
	}
	if o.PageRows <= 0 {
		o.PageRows = 8192
	}
	return o
}

// FileWriter writes record batches into a GPQ file.
type FileWriter struct {
	w           *bufio.Writer
	offset      int64
	schema      *arrow.Schema
	opts        WriterOptions
	footer      fileFooter
	pending     []*arrow.RecordBatch
	pendingRows int
	closed      bool
	enc         pageEncoder
}

// NewFileWriter writes a GPQ file with the given schema to w.
func NewFileWriter(w io.Writer, schema *arrow.Schema, opts WriterOptions) (*FileWriter, error) {
	opts = opts.withDefaults()
	schemaJSON, err := arrow.MarshalSchema(schema)
	if err != nil {
		return nil, err
	}
	fw := &FileWriter{
		w:      bufio.NewWriterSize(w, 1<<20),
		schema: schema,
		opts:   opts,
		footer: fileFooter{Schema: schemaJSON, KV: opts.KV, Version: formatVersion},
	}
	if err := fw.writeRaw([]byte(Magic)); err != nil {
		return nil, err
	}
	return fw, nil
}

func (fw *FileWriter) writeRaw(b []byte) error {
	n, err := fw.w.Write(b)
	fw.offset += int64(n)
	return err
}

// Write appends a batch; row groups are flushed as they fill.
func (fw *FileWriter) Write(batch *arrow.RecordBatch) error {
	if fw.closed {
		return fmt.Errorf("parquet: writer is closed")
	}
	if !batch.Schema().Equal(fw.schema) {
		return fmt.Errorf("parquet: batch schema %s does not match file schema %s", batch.Schema(), fw.schema)
	}
	fw.pending = append(fw.pending, batch)
	fw.pendingRows += batch.NumRows()
	for fw.pendingRows >= fw.opts.RowGroupRows {
		if err := fw.flushRowGroup(fw.opts.RowGroupRows); err != nil {
			return err
		}
	}
	return nil
}

// flushRowGroup writes the first `rows` pending rows as one row group.
func (fw *FileWriter) flushRowGroup(rows int) error {
	if rows > fw.pendingRows {
		rows = fw.pendingRows
	}
	if rows == 0 {
		return nil
	}
	// Gather exactly `rows` rows from pending batches.
	var parts []*arrow.RecordBatch
	need := rows
	for need > 0 {
		head := fw.pending[0]
		if head.NumRows() <= need {
			parts = append(parts, head)
			need -= head.NumRows()
			fw.pending = fw.pending[1:]
		} else {
			parts = append(parts, head.Slice(0, need))
			fw.pending[0] = head.Slice(need, head.NumRows()-need)
			need = 0
		}
	}
	fw.pendingRows -= rows
	group, err := compute.ConcatBatches(fw.schema, parts)
	if err != nil {
		return err
	}
	rgMeta := rowGroupMeta{NumRows: int64(group.NumRows())}
	for c := 0; c < group.NumCols(); c++ {
		chunkMeta, err := fw.writeColumnChunk(group.Column(c))
		if err != nil {
			return err
		}
		rgMeta.Columns = append(rgMeta.Columns, chunkMeta)
	}
	fw.footer.RowGroups = append(fw.footer.RowGroups, rgMeta)
	fw.footer.NumRows += int64(group.NumRows())
	return nil
}

func columnStats(a arrow.Array) statsMeta {
	meta := statsMeta{NullCount: int64(a.NullCount()), NumRows: int64(a.Len())}
	if mn, mx, ok := compute.MinMaxFast(a); ok {
		meta.Min = statsValueOf(mn)
		meta.Max = statsValueOf(mx)
		// Truncated string maxes must be widened to stay an upper bound.
		if meta.Max != nil && meta.Max.S != nil && mx.Type.ID == arrow.STRING && len(mx.AsString()) > 64 {
			widened := widenStringBound(*meta.Max.S)
			meta.Max.S = &widened
		}
	}
	return meta
}

// widenStringBound returns a string >= any string with the given prefix.
func widenStringBound(s string) string {
	b := []byte(s)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xFF {
			b[i]++
			return string(b[:i+1])
		}
	}
	return s + "\xff"
}

func bloomEligible(t *arrow.DataType) bool {
	switch t.ID {
	case arrow.STRING, arrow.BINARY, arrow.INT8, arrow.INT16, arrow.INT32, arrow.INT64,
		arrow.UINT8, arrow.UINT16, arrow.UINT32, arrow.UINT64, arrow.DATE32, arrow.TIMESTAMP, arrow.DECIMAL:
		return true
	}
	return false
}

// tryBuildDict returns dictionary values and per-row indexes when the
// column is a string column whose cardinality makes dictionary encoding
// worthwhile.
func tryBuildDict(a arrow.Array) (*arrow.StringArray, []uint32, bool) {
	sa, ok := a.(*arrow.StringArray)
	if !ok {
		return nil, nil, false
	}
	n := sa.Len()
	if n < 64 {
		return nil, nil, false
	}
	const maxDict = 1 << 16
	dict := make(map[string]uint32, 1024)
	indexes := make([]uint32, n)
	db := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		if sa.IsNull(i) {
			continue
		}
		v := sa.Value(i)
		idx, ok := dict[v]
		if !ok {
			if len(dict) >= maxDict || len(dict) > n/2+16 {
				return nil, nil, false
			}
			idx = uint32(len(dict))
			key := string(sa.ValueBytes(i)) // copy out of shared buffer
			dict[key] = idx
			db.Append(key)
		}
		indexes[i] = idx
	}
	return db.Finish().(*arrow.StringArray), indexes, true
}

// writePage stores one encoded page, its value section through the byte
// codec when compression is on.
func (fw *FileWriter) writePage(p encodedPage) (off, length, rawLen int64, codec string, err error) {
	values := p.values
	if fw.opts.Compression {
		values, codec = fw.enc.compress(values)
	}
	off = fw.offset
	if err := fw.writeRaw(p.head); err != nil {
		return 0, 0, 0, "", err
	}
	if err := fw.writeRaw(values); err != nil {
		return 0, 0, 0, "", err
	}
	return off, fw.offset - off, int64(len(p.head) + len(p.values)), codec, nil
}

func (fw *FileWriter) writeColumnChunk(col arrow.Array) (columnChunkMeta, error) {
	meta := columnChunkMeta{Stats: columnStats(col)}
	n := col.Len()

	var dictArr *arrow.StringArray
	var dictIdx []uint32
	useDict := false
	if fw.opts.Dictionary {
		dictArr, dictIdx, useDict = tryBuildDict(col)
	}
	if useDict {
		page, err := fw.enc.encode(dictArr)
		if err != nil {
			return meta, err
		}
		off, length, rawLen, codec, err := fw.writePage(page)
		if err != nil {
			return meta, err
		}
		meta.Dict = &dictMeta{Offset: off, Len: length, NumValues: int64(dictArr.Len()),
			Encoding: page.encoding, Codec: codec, RawLen: rawLen}
	}

	for start := 0; start < n; start += fw.opts.PageRows {
		end := start + fw.opts.PageRows
		if end > n {
			end = n
		}
		rows := col.Slice(start, end-start)
		var page encodedPage
		if useDict {
			page = fw.enc.encodeDictIndexes(dictIdx[start:end], rows.Validity(), dictArr.Len())
		} else {
			var err error
			if page, err = fw.enc.encode(rows); err != nil {
				return meta, err
			}
		}
		off, length, rawLen, codec, err := fw.writePage(page)
		if err != nil {
			return meta, err
		}
		meta.Pages = append(meta.Pages, pageMeta{
			Offset:   off,
			Len:      length,
			NumRows:  int64(end - start),
			FirstRow: int64(start),
			Encoding: page.encoding,
			Codec:    codec,
			RawLen:   rawLen,
			Stats:    columnStats(rows),
		})
	}

	if fw.opts.BloomFilters && bloomEligible(col.DataType()) {
		var bf *bloomFilter
		if useDict {
			bf = newBloomFilter(int64(dictArr.Len()))
			bf.insertArray(dictArr)
		} else {
			bf = newBloomFilter(int64(n))
			bf.insertArray(col)
		}
		off := fw.offset
		if err := fw.writeRaw(bf.bits); err != nil {
			return meta, err
		}
		meta.Bloom = &bloomMeta{Offset: off, Len: int64(len(bf.bits)), NumHashes: bf.k}
	}
	return meta, nil
}

// Close flushes remaining rows and writes the footer. The writer cannot be
// used afterwards.
func (fw *FileWriter) Close() error {
	if fw.closed {
		return nil
	}
	fw.closed = true
	for fw.pendingRows > 0 {
		if err := fw.flushRowGroup(fw.opts.RowGroupRows); err != nil {
			return err
		}
	}
	footerJSON, err := json.Marshal(&fw.footer)
	if err != nil {
		return err
	}
	if err := fw.writeRaw(footerJSON); err != nil {
		return err
	}
	var tail [8]byte
	binary.LittleEndian.PutUint32(tail[:4], uint32(len(footerJSON)))
	copy(tail[4:], Magic)
	if err := fw.writeRaw(tail[:]); err != nil {
		return err
	}
	return fw.w.Flush()
}

// WriteFile writes all batches to path as a single GPQ file.
func WriteFile(path string, schema *arrow.Schema, batches []*arrow.RecordBatch, opts WriterOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fw, err := NewFileWriter(f, schema, opts)
	if err != nil {
		f.Close()
		return err
	}
	for _, b := range batches {
		if err := fw.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := fw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
