package parquet

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// FileReader reads GPQ files with projection, predicate, and limit
// pushdown.
type FileReader struct {
	r    io.ReaderAt
	size int64
	meta *FileMetadata
	// closer is set when the reader owns the underlying file.
	closer io.Closer
	// fingerprint identifies the file version (path|size|mtime) for the
	// shared page cache and the mmap registry; empty for readers over
	// arbitrary io.ReaderAt sources.
	fingerprint string
	// mm is the shared memory mapping when the mmap fast path is active;
	// readRange then returns zero-copy views instead of heap copies.
	mm *Mapping
}

// fileFingerprint identifies a file version for cache keying: a changed
// file gets a new fingerprint, so stale cache entries are never served.
func fileFingerprint(path string, st os.FileInfo) string {
	return fmt.Sprintf("%s|%d|%d", path, st.Size(), st.ModTime().UnixNano())
}

// openMapped opens path, preferring the shared mmap fast path: when the
// file maps, the descriptor is closed immediately (the mapping outlives
// it) and the returned reader serves zero-copy reads. Otherwise the
// reader owns the descriptor as before.
func openMapped(path string) (r io.ReaderAt, size int64, fp string, mm *Mapping, closer io.Closer, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, "", nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, "", nil, nil, err
	}
	size = st.Size()
	fp = fileFingerprint(path, st)
	if m := mapFile(f, size, fp); m != nil {
		f.Close()
		return m, size, fp, m, nil, nil
	}
	return f, size, fp, nil, f, nil
}

// OpenFile opens a GPQ file from the filesystem, using a shared memory
// mapping for reads when the platform supports it.
func OpenFile(path string) (*FileReader, error) {
	r, size, fp, mm, closer, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	meta, err := ReadMetadata(r, size)
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, err
	}
	return &FileReader{r: r, size: size, meta: meta, closer: closer, fingerprint: fp, mm: mm}, nil
}

// OpenFileWithMeta opens a GPQ file reusing an already-parsed footer
// (e.g. the catalog's metadata cache), skipping the footer decode that
// OpenFile performs. The metadata must describe the file at path.
func OpenFileWithMeta(path string, meta *FileMetadata) (*FileReader, error) {
	r, size, fp, mm, closer, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	return &FileReader{r: r, size: size, meta: meta, closer: closer, fingerprint: fp, mm: mm}, nil
}

// NewReader reads a GPQ file from any random-access source.
func NewReader(r io.ReaderAt, size int64) (*FileReader, error) {
	meta, err := ReadMetadata(r, size)
	if err != nil {
		return nil, err
	}
	return &FileReader{r: r, size: size, meta: meta}, nil
}

// ReadMetadata decodes only the footer of a GPQ file; catalogs use this to
// plan without touching data pages.
func ReadMetadata(r io.ReaderAt, size int64) (*FileMetadata, error) {
	if size < int64(len(Magic))*2+4 {
		return nil, errFormat
	}
	head := make([]byte, 4)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head) != Magic {
		return nil, fmt.Errorf("parquet: bad magic %q", head)
	}
	tail := make([]byte, 8)
	if _, err := r.ReadAt(tail, size-8); err != nil {
		return nil, err
	}
	if string(tail[4:]) != Magic {
		return nil, fmt.Errorf("parquet: bad trailing magic")
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footerLen <= 0 || footerLen > size-8 {
		return nil, errFormat
	}
	footerJSON := make([]byte, footerLen)
	if _, err := r.ReadAt(footerJSON, size-8-footerLen); err != nil {
		return nil, err
	}
	var footer fileFooter
	if err := json.Unmarshal(footerJSON, &footer); err != nil {
		return nil, fmt.Errorf("parquet: decoding footer: %w", err)
	}
	schema, err := arrow.UnmarshalSchema(footer.Schema)
	if err != nil {
		return nil, err
	}
	return &FileMetadata{Schema: schema, NumRows: footer.NumRows, KV: footer.KV, footer: &footer}, nil
}

// Metadata returns the decoded file metadata.
func (fr *FileReader) Metadata() *FileMetadata { return fr.meta }

// Schema returns the file schema.
func (fr *FileReader) Schema() *arrow.Schema { return fr.meta.Schema }

// NumRows returns the total row count.
func (fr *FileReader) NumRows() int64 { return fr.meta.NumRows }

// Fingerprint identifies the file version backing this reader for cache
// keying; empty when the reader wraps an arbitrary io.ReaderAt.
func (fr *FileReader) Fingerprint() string { return fr.fingerprint }

// Close releases the underlying file when the reader owns it. Mapped
// readers hold no descriptor, so Close is a no-op for them (the mapping
// is process-lifetime by design — see Mapping).
func (fr *FileReader) Close() error {
	if fr.closer != nil {
		return fr.closer.Close()
	}
	return nil
}

// readRange returns length bytes at off. Mapped readers return an
// immutable zero-copy view of the mapping; otherwise a fresh copy.
func (fr *FileReader) readRange(off, length int64) ([]byte, error) {
	if fr.mm != nil {
		return fr.mm.Bytes(off, length)
	}
	buf := make([]byte, length)
	if _, err := fr.r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// chunkDict loads the dictionary page of a column chunk.
func (fr *FileReader) chunkDict(chunk *columnChunkMeta) (*arrow.StringArray, error) {
	d := chunk.Dict
	stored, err := fr.readRange(d.Offset, d.Len)
	if err != nil {
		return nil, err
	}
	arr, err := decodePage(stored, d.encoding(), d.Codec, d.RawLen, int(d.NumValues), arrow.String, nil)
	if err != nil {
		return nil, err
	}
	return arr.(*arrow.StringArray), nil
}

// decodePage decodes one data page of a column chunk.
func (fr *FileReader) decodePage(page *pageMeta, t *arrow.DataType, dict *arrow.StringArray) (arrow.Array, error) {
	stored, err := fr.readRange(page.Offset, page.Len)
	if err != nil {
		return nil, err
	}
	return decodePage(stored, page.Encoding, page.Codec, page.RawLen, int(page.NumRows), t, dict)
}

// loadDict returns the chunk dictionary, shared through the page cache
// when one is attached (key Page=DictPage).
func (s *Scanner) loadDict(rg, col int, chunk *columnChunkMeta) (*arrow.StringArray, error) {
	if s.opts.Cache == nil || s.fr.fingerprint == "" {
		return s.fr.chunkDict(chunk)
	}
	key := PageKey{File: s.fr.fingerprint, RowGroup: rg, Col: col, Page: DictPage}
	arr, hit, err := s.opts.Cache.CachedPage(key, func() (arrow.Array, error) {
		return s.fr.chunkDict(chunk)
	})
	if err != nil {
		return nil, err
	}
	s.countCache(hit)
	return arr.(*arrow.StringArray), nil
}

// loadPage decodes one data page, shared through the page cache when one
// is attached. Cached arrays are immutable shared views.
func (s *Scanner) loadPage(rg, col, pi int, page *pageMeta, t *arrow.DataType, dict *arrow.StringArray) (arrow.Array, error) {
	if s.opts.Cache == nil || s.fr.fingerprint == "" {
		return s.fr.decodePage(page, t, dict)
	}
	key := PageKey{File: s.fr.fingerprint, RowGroup: rg, Col: col, Page: pi}
	arr, hit, err := s.opts.Cache.CachedPage(key, func() (arrow.Array, error) {
		return s.fr.decodePage(page, t, dict)
	})
	if err != nil {
		return nil, err
	}
	s.countCache(hit)
	return arr, nil
}

func (s *Scanner) countCache(hit bool) {
	if hit {
		s.PageCacheHits++
	} else {
		s.PageCacheMisses++
	}
}

// readColumnSelection decodes the rows of (rowGroup, col) covered by sel,
// in row order, skipping pages with no selected rows. Fully-selected
// pages pass through untouched; partially-selected pages are filtered
// with a vectorized mask (cheaper than assembling per-range slices when
// the selection is fragmented).
func (s *Scanner) readColumnSelection(rg, col int, sel RowSelection) (arrow.Array, error) {
	fr := s.fr
	chunk := &fr.meta.footer.RowGroups[rg].Columns[col]
	t := fr.meta.Schema.Field(col).Type
	var dict *arrow.StringArray
	var parts []arrow.Array
	for pi := range chunk.Pages {
		page := &chunk.Pages[pi]
		start, end := page.FirstRow, page.FirstRow+page.NumRows
		pageSel := sel.IntersectRange(start, end)
		if pageSel.IsEmpty() {
			continue
		}
		if chunk.Dict != nil && dict == nil {
			var err error
			if dict, err = s.loadDict(rg, col, chunk); err != nil {
				return nil, err
			}
		}
		arr, err := s.loadPage(rg, col, pi, page, t, dict)
		if err != nil {
			return nil, err
		}
		if pageSel.Count() == page.NumRows {
			parts = append(parts, arr)
			continue
		}
		n := int(page.NumRows)
		bits := arrow.NewBitmap(n)
		for _, r := range pageSel.Ranges() {
			bits.SetRange(int(r.Start-start), int(r.End-start))
		}
		mask := arrow.NewBool(bits, nil, n)
		filtered, err := compute.Filter(arr, mask)
		if err != nil {
			return nil, err
		}
		parts = append(parts, filtered)
	}
	if len(parts) == 0 {
		return arrow.NewBuilder(t).Finish(), nil
	}
	return compute.Concat(parts)
}

// ScanOptions configures a pushed-down scan.
type ScanOptions struct {
	// Projection lists file-schema column indexes to read; nil means all.
	Projection []int
	// Predicate is evaluated during the scan; matching rows are returned.
	Predicate Predicate
	// Limit stops the scan after this many rows; <0 means no limit.
	Limit int64
	// BatchRows sets the output batch size (default 8192).
	BatchRows int
	// RowGroups restricts the scan to these row-group indexes, scanned in
	// the order given; nil means every row group. This is the unit of
	// intra-file scan parallelism: a table provider can split one file
	// across partitions by handing each scanner a disjoint subset.
	RowGroups []int
	// Readahead is the number of row groups a background goroutine decodes
	// ahead of the consumer (I/O + decode overlap); 0 keeps the scan fully
	// synchronous.
	Readahead int
	// DisablePruning turns off row-group and page statistics pruning
	// (predicate still evaluated row-level); used by ablation benchmarks.
	DisablePruning bool
	// DisableLateMaterialization decodes all projected columns before
	// evaluating the predicate; used by ablation benchmarks.
	DisableLateMaterialization bool
	// Cache, when set, shares decoded pages across scanners through the
	// process-wide page cache (requires a reader opened from a path, which
	// carries the file fingerprint the cache keys on).
	Cache *PageCache
}

// groupResult carries one decoded row group through the readahead pipeline.
type groupResult struct {
	batches []*arrow.RecordBatch
	err     error
}

// Scanner incrementally produces filtered, projected batches.
type Scanner struct {
	fr        *FileReader
	opts      ScanOptions
	schema    *arrow.Schema
	remaining int64
	groups    []int
	gi        int
	queue     []*arrow.RecordBatch

	// Readahead pipeline state (nil/unused when opts.Readahead == 0).
	// The producer goroutine owns queue/remaining/counters; the consumer
	// side only touches pending and the channel.
	startOnce sync.Once
	closeOnce sync.Once
	out       chan groupResult
	quit      chan struct{}
	pending   []*arrow.RecordBatch

	// Pruning counters for EXPLAIN-style introspection and tests. With
	// readahead enabled they are only safe to read after Next returned
	// io.EOF (the pipeline channel close publishes them).
	RowGroupsPruned  int
	RowGroupsMatched int
	PagesSkipped     int
	// BloomSkipped counts row groups rejected by a Bloom filter probe (a
	// subset of RowGroupsPruned).
	BloomSkipped int
	// PageCacheHits / PageCacheMisses count shared-page-cache lookups by
	// this scanner (hits include joining another scanner's in-flight
	// decode). Zero when no cache is attached.
	PageCacheHits   int
	PageCacheMisses int
}

// Scan starts a pushed-down scan over the file.
func (fr *FileReader) Scan(opts ScanOptions) (*Scanner, error) {
	if opts.BatchRows <= 0 {
		opts.BatchRows = 8192
	}
	if opts.Projection == nil {
		opts.Projection = make([]int, fr.meta.Schema.NumFields())
		for i := range opts.Projection {
			opts.Projection[i] = i
		}
	}
	for _, c := range opts.Projection {
		if c < 0 || c >= fr.meta.Schema.NumFields() {
			return nil, fmt.Errorf("parquet: projection column %d out of range", c)
		}
	}
	groups := opts.RowGroups
	if groups == nil {
		groups = make([]int, fr.meta.NumRowGroups())
		for i := range groups {
			groups[i] = i
		}
	} else {
		for _, rg := range groups {
			if rg < 0 || rg >= fr.meta.NumRowGroups() {
				return nil, fmt.Errorf("parquet: row group %d out of range", rg)
			}
		}
	}
	limit := opts.Limit
	if limit < 0 {
		limit = -1
	}
	return &Scanner{
		fr:        fr,
		opts:      opts,
		schema:    fr.meta.Schema.Select(opts.Projection),
		remaining: limit,
		groups:    groups,
	}, nil
}

// Schema returns the projected output schema.
func (s *Scanner) Schema() *arrow.Schema { return s.schema }

// Next returns the next batch, or (nil, io.EOF) at end of scan.
func (s *Scanner) Next() (*arrow.RecordBatch, error) {
	if s.opts.Readahead > 0 {
		return s.nextPipelined()
	}
	for {
		if len(s.queue) > 0 {
			b := s.queue[0]
			s.queue = s.queue[1:]
			return b, nil
		}
		if s.remaining == 0 || s.gi >= len(s.groups) {
			return nil, io.EOF
		}
		rg := s.groups[s.gi]
		s.gi++
		if err := s.scanRowGroup(rg); err != nil {
			return nil, err
		}
	}
}

// Close stops the readahead goroutine (if any). Abandoning a pipelined
// scan without Close leaks the producer; Close is safe to call multiple
// times and on synchronous scanners.
func (s *Scanner) Close() {
	s.closeOnce.Do(func() {
		if s.quit != nil {
			close(s.quit)
		}
	})
	if s.out != nil {
		// Drain so a producer blocked on send observes quit promptly.
		for range s.out {
		}
	}
}

// nextPipelined serves batches from the background decode pipeline.
func (s *Scanner) nextPipelined() (*arrow.RecordBatch, error) {
	s.startOnce.Do(s.startPrefetch)
	for {
		if len(s.pending) > 0 {
			b := s.pending[0]
			s.pending = s.pending[1:]
			return b, nil
		}
		res, ok := <-s.out
		if !ok {
			return nil, io.EOF
		}
		if res.err != nil {
			return nil, res.err
		}
		s.pending = res.batches
	}
}

// startPrefetch launches the readahead producer: it decodes row groups
// sequentially (preserving limit accounting and pruning order) and parks
// up to opts.Readahead decoded groups in a bounded channel while the
// consumer drains the current one.
func (s *Scanner) startPrefetch() {
	depth := s.opts.Readahead
	if depth > 2 {
		depth = 2 // double-buffering captures nearly all of the overlap
	}
	s.quit = make(chan struct{})
	s.out = make(chan groupResult, depth)
	go func() {
		defer close(s.out)
		for _, rg := range s.groups {
			if s.remaining == 0 {
				return
			}
			select {
			case <-s.quit:
				return
			default:
			}
			err := s.scanRowGroup(rg)
			res := groupResult{batches: s.queue, err: err}
			s.queue = nil
			if err == nil && len(res.batches) == 0 {
				continue // pruned or fully filtered: nothing to publish
			}
			select {
			case s.out <- res:
			case <-s.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// keepRowGroup applies chunk statistics and Bloom filter pruning.
func (s *Scanner) keepRowGroup(rg int) bool {
	pred := s.opts.Predicate
	for _, col := range pred.Columns() {
		if !pred.KeepColumnStats(col, s.fr.meta.ColumnChunkStats(rg, col)) {
			return false
		}
	}
	for _, probe := range pred.EqProbes() {
		chunk := &s.fr.meta.footer.RowGroups[rg].Columns[probe.Col]
		if chunk.Bloom == nil {
			continue
		}
		bits, err := s.fr.readRange(chunk.Bloom.Offset, chunk.Bloom.Len)
		if err != nil {
			return true // fail open
		}
		bf := &bloomFilter{bits: bits, k: chunk.Bloom.NumHashes}
		if !bf.MightContain(probe.Value) {
			s.BloomSkipped++
			return false
		}
	}
	return true
}

// candidateSelection intersects per-column page-statistics selections for
// the predicate columns.
func (s *Scanner) candidateSelection(rg int, numRows int64) RowSelection {
	pred := s.opts.Predicate
	sel := SelectAll(numRows)
	for _, col := range pred.Columns() {
		chunk := &s.fr.meta.footer.RowGroups[rg].Columns[col]
		t := s.fr.meta.Schema.Field(col).Type
		var ranges []RowRange
		for pi := range chunk.Pages {
			page := &chunk.Pages[pi]
			if pred.KeepColumnStats(col, page.Stats.toStats(t)) {
				ranges = append(ranges, RowRange{page.FirstRow, page.FirstRow + page.NumRows})
			} else {
				s.PagesSkipped++
			}
		}
		sel = sel.Intersect(FromRanges(ranges))
		if sel.IsEmpty() {
			break
		}
	}
	return sel
}

// maskToSelection converts a boolean mask aligned to sel's rows into an
// exact row selection. The scan works byte-at-a-time over the packed
// (value AND validity) bits so all-false bytes skip 8 rows at once — this
// runs once per predicate scan over every candidate row.
func maskToSelection(sel RowSelection, mask *arrow.BoolArray) RowSelection {
	n := mask.Len()
	vals := mask.ValuesBitmap()
	valid := mask.Validity()
	// effective[i] = value AND valid.
	nb := (n + 7) / 8
	effective := make([]byte, nb)
	for i := 0; i < nb; i++ {
		b := byte(0)
		if i < len(vals) {
			b = vals[i]
		}
		if valid != nil {
			if i < len(valid) {
				b &= valid[i]
			} else {
				b = 0
			}
		}
		effective[i] = b
	}
	var out []RowRange
	push := func(row int64) {
		if k := len(out); k > 0 && out[k-1].End == row {
			out[k-1].End = row + 1
		} else {
			out = append(out, RowRange{row, row + 1})
		}
	}
	i := 0
	for _, r := range sel.Ranges() {
		row := r.Start
		for row < r.End {
			// Byte-aligned fast paths.
			if i%8 == 0 && r.End-row >= 8 {
				b := effective[i/8]
				switch b {
				case 0x00:
					i += 8
					row += 8
					continue
				case 0xFF:
					if k := len(out); k > 0 && out[k-1].End == row {
						out[k-1].End = row + 8
					} else {
						out = append(out, RowRange{row, row + 8})
					}
					i += 8
					row += 8
					continue
				}
			}
			if effective[i/8]&(1<<(i%8)) != 0 {
				push(row)
			}
			i++
			row++
		}
	}
	return RowSelection{ranges: out}
}

func (s *Scanner) scanRowGroup(rg int) error {
	numRows := s.fr.meta.RowGroupRows(rg)
	pred := s.opts.Predicate

	sel := SelectAll(numRows)
	if pred != nil {
		if !s.opts.DisablePruning {
			if !s.keepRowGroup(rg) {
				s.RowGroupsPruned++
				return nil
			}
			sel = s.candidateSelection(rg, numRows)
			if sel.IsEmpty() {
				s.RowGroupsPruned++
				return nil
			}
		}
		if s.opts.DisableLateMaterialization {
			// Ablation mode: decode every projected column in full, then
			// filter — the strategy late materialization avoids.
			return s.scanRowGroupEager(rg, numRows)
		}
		// Decode predicate columns within the candidate selection and
		// evaluate to get the exact row selection.
		predCols := make(map[int]arrow.Array, len(pred.Columns()))
		for _, col := range pred.Columns() {
			arr, err := s.readColumnSelection(rg, col, sel)
			if err != nil {
				return err
			}
			predCols[col] = arr
		}
		mask, err := pred.Evaluate(predCols, int(sel.Count()))
		if err != nil {
			return err
		}
		sel = maskToSelection(sel, mask)
		if sel.IsEmpty() {
			return nil
		}
	}
	s.RowGroupsMatched++

	// Apply any remaining limit by truncating the selection.
	if s.remaining >= 0 && sel.Count() > s.remaining {
		var kept []RowRange
		left := s.remaining
		for _, r := range sel.Ranges() {
			if left <= 0 {
				break
			}
			take := minI64(r.End-r.Start, left)
			kept = append(kept, RowRange{r.Start, r.Start + take})
			left -= take
		}
		sel = RowSelection{ranges: kept}
	}

	cols := make([]arrow.Array, len(s.opts.Projection))
	for i, col := range s.opts.Projection {
		arr, err := s.readColumnSelection(rg, col, sel)
		if err != nil {
			return err
		}
		cols[i] = arr
	}
	total := int(sel.Count())
	if s.remaining > 0 {
		s.remaining -= int64(total)
	}
	batch := arrow.NewRecordBatchWithRows(s.schema, cols, total)
	for off := 0; off < total; off += s.opts.BatchRows {
		n := s.opts.BatchRows
		if off+n > total {
			n = total - off
		}
		s.queue = append(s.queue, batch.Slice(off, n))
	}
	return nil
}

// scanRowGroupEager decodes every projected column of a row group fully,
// evaluates the predicate afterwards, and filters — the late
// materialization ablation baseline.
func (s *Scanner) scanRowGroupEager(rg int, numRows int64) error {
	all := SelectAll(numRows)
	pred := s.opts.Predicate
	predCols := make(map[int]arrow.Array, len(pred.Columns()))
	for _, col := range pred.Columns() {
		arr, err := s.readColumnSelection(rg, col, all)
		if err != nil {
			return err
		}
		predCols[col] = arr
	}
	cols := make([]arrow.Array, len(s.opts.Projection))
	for i, col := range s.opts.Projection {
		if arr, ok := predCols[col]; ok {
			cols[i] = arr
			continue
		}
		arr, err := s.readColumnSelection(rg, col, all)
		if err != nil {
			return err
		}
		cols[i] = arr
	}
	mask, err := pred.Evaluate(predCols, int(numRows))
	if err != nil {
		return err
	}
	batch := arrow.NewRecordBatchWithRows(s.schema, cols, int(numRows))
	filtered, err := compute.FilterBatch(batch, compute.CoalesceBoolToFalse(mask))
	if err != nil {
		return err
	}
	if filtered.NumRows() == 0 {
		return nil
	}
	s.RowGroupsMatched++
	total := filtered.NumRows()
	if s.remaining >= 0 && int64(total) > s.remaining {
		filtered = filtered.Slice(0, int(s.remaining))
		total = filtered.NumRows()
	}
	if s.remaining > 0 {
		s.remaining -= int64(total)
	}
	for off := 0; off < total; off += s.opts.BatchRows {
		n := s.opts.BatchRows
		if off+n > total {
			n = total - off
		}
		s.queue = append(s.queue, filtered.Slice(off, n))
	}
	return nil
}
