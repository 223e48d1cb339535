package parquet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// WriterOptions configures GPQ file writing.
type WriterOptions struct {
	// RowGroupRows is the maximum rows per row group (default 131072).
	RowGroupRows int
	// PageRows is the maximum rows per data page (default 8192). The page
	// encoding is not an option: the writer picks the smallest per page,
	// and every integer and string chunk gets a Bloom filter.
	PageRows int
	// KV is arbitrary metadata stored in the footer (e.g. sort order).
	KV map[string]string
}

// DefaultWriterOptions returns the recommended writer configuration.
func DefaultWriterOptions() WriterOptions {
	return WriterOptions{
		RowGroupRows: 128 * 1024,
		PageRows:     8192,
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
//
// A row group's column chunks are encoded in parallel, one column at a
// time per worker, on runtime.GOMAXPROCS(0) workers. Each worker encodes
// into the chunk's own buffer with offsets relative to the chunk; the
// writer then appends the chunks in column order and rebases their
// offsets, so the file is the same bytes at any core count. One row
// group's encoded chunks are held in memory at a time.
type FileWriter struct {
	w           *bufio.Writer
	offset      int64
	schema      *arrow.Schema
	opts        WriterOptions
	footer      fileFooter
	pending     []*arrow.RecordBatch
	pendingRows int
	closed      bool
	// encs holds one page encoder per worker and chunks one encoded chunk
	// per column, both reused from row group to row group.
	encs   []*pageEncoder
	chunks []encodedChunk
}

// encodedChunk is one column chunk encoded in memory: its bytes and its
// metadata, offsets relative to the start of buf.
type encodedChunk struct {
	buf  []byte
	meta columnChunkMeta
	err  error
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

	fw.encodeChunks(parts)
	rgMeta := rowGroupMeta{NumRows: int64(rows)}
	for c := range fw.chunks {
		if err := fw.chunks[c].err; err != nil {
			return err
		}
	}
	for c := range fw.chunks {
		chunk := &fw.chunks[c]
		chunk.meta.rebase(fw.offset)
		if err := fw.writeRaw(chunk.buf); err != nil {
			return err
		}
		rgMeta.Columns = append(rgMeta.Columns, chunk.meta)
	}
	fw.footer.RowGroups = append(fw.footer.RowGroups, rgMeta)
	fw.footer.NumRows += int64(rows)
	return nil
}

// encodeChunks encodes every column of the row group made of parts into
// fw.chunks. Workers claim columns in order from a shared cursor; all of
// them have returned when it does.
func (fw *FileWriter) encodeChunks(parts []*arrow.RecordBatch) {
	ncols := fw.schema.NumFields()
	if len(fw.chunks) != ncols {
		fw.chunks = make([]encodedChunk, ncols)
	}
	workers := min(runtime.GOMAXPROCS(0), ncols)
	for len(fw.encs) < workers {
		fw.encs = append(fw.encs, &pageEncoder{})
	}
	var next atomic.Int64
	work := func(e *pageEncoder) {
		for c := int(next.Add(1) - 1); c < ncols; c = int(next.Add(1) - 1) {
			chunk := &fw.chunks[c]
			cols := make([]arrow.Array, len(parts))
			for i, p := range parts {
				cols[i] = p.Column(c)
			}
			col, err := compute.Concat(cols)
			if err == nil {
				chunk.buf, chunk.meta, err = e.encodeChunk(chunk.buf[:0], col, fw.opts)
			}
			chunk.err = err
		}
	}
	var wg sync.WaitGroup
	for _, e := range fw.encs[1:workers] {
		wg.Add(1)
		go func(e *pageEncoder) {
			defer wg.Done()
			work(e)
		}(e)
	}
	work(fw.encs[0])
	wg.Wait()
}

// rebase moves the chunk's offsets from relative to its start to
// absolute, for a chunk stored at base.
func (m *columnChunkMeta) rebase(base int64) {
	for i := range m.Pages {
		m.Pages[i].Offset += base
	}
	if m.Bloom != nil {
		m.Bloom.Offset += base
	}
}

// valueBounds is the untruncated min and max of some values; ok is false
// when there are none.
type valueBounds struct {
	min, max arrow.Scalar
	ok       bool
}

func boundsOf(a arrow.Array) valueBounds {
	mn, mx, ok := compute.MinMaxFast(a)
	return valueBounds{mn, mx, ok}
}

// fold widens b to cover o. It is exact for every type whose values are
// totally ordered; a float chunk's bounds are taken over the whole chunk
// instead, because min and max skip NaN unless it comes first.
func (b *valueBounds) fold(o valueBounds) {
	switch {
	case !o.ok:
	case !b.ok:
		*b = o
	default:
		if compute.CompareScalars(o.min, b.min) < 0 {
			b.min = o.min
		}
		if compute.CompareScalars(o.max, b.max) > 0 {
			b.max = o.max
		}
	}
}

// stats returns the stored statistics for values with these bounds.
func (b valueBounds) stats(nulls, rows int) statsMeta {
	meta := statsMeta{NullCount: int64(nulls), NumRows: int64(rows)}
	if b.ok {
		meta.Min = statsValueOf(b.min)
		meta.Max = statsValueOf(b.max)
		// Truncated string maxes must be widened to stay an upper bound.
		if meta.Max != nil && meta.Max.S != nil && b.max.Type.ID == arrow.STRING && len(b.max.AsString()) > 64 {
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

// appendPage appends one encoded page to dst and returns its placement
// and encoding, the offset relative to dst.
func appendPage(dst []byte, p encodedPage) ([]byte, pageMeta) {
	off := int64(len(dst))
	dst = append(append(dst, p.head...), p.values...)
	return dst, pageMeta{Offset: off, Len: int64(len(dst)) - off, Encoding: p.encoding}
}

// encodeChunk appends col encoded as one column chunk — data pages, then
// a Bloom filter — to dst and returns it with the chunk's metadata,
// offsets relative to the start of dst.
func (e *pageEncoder) encodeChunk(dst []byte, col arrow.Array, opts WriterOptions) ([]byte, columnChunkMeta, error) {
	var meta columnChunkMeta
	n := col.Len()
	var bounds valueBounds
	for start := 0; start < n; start += opts.PageRows {
		end := min(start+opts.PageRows, n)
		rows := col.Slice(start, end-start)
		page, err := e.encode(rows)
		if err != nil {
			return dst, meta, err
		}
		var pm pageMeta
		dst, pm = appendPage(dst, page)
		pageBounds := boundsOf(rows)
		bounds.fold(pageBounds)
		pm.NumRows, pm.FirstRow = int64(end-start), int64(start)
		pm.Stats = pageBounds.stats(rows.NullCount(), rows.Len())
		meta.Pages = append(meta.Pages, pm)
	}
	if statsKind(col.DataType()) == 'f' {
		bounds = boundsOf(col)
	}
	meta.Stats = bounds.stats(col.NullCount(), n)

	if bloomEligible(col.DataType()) {
		bf := newBloomFilter(int64(n))
		bf.insertArray(col)
		meta.Bloom = &bloomMeta{Offset: int64(len(dst)), Len: int64(len(bf.bits)), NumHashes: bf.k}
		dst = append(dst, bf.bits...)
	}
	return dst, meta, nil
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
