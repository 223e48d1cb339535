package parquet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/memory"
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
	// footer cache, the page cache and the mmap registry; empty for
	// readers over arbitrary io.ReaderAt sources.
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

// footers is the process-wide footer cache: decoded footers keyed by
// file version (the fingerprint the mmap registry and the page cache key
// on), so every scan unit's OpenFile skips the footer decode while its
// file is unchanged, and a file rewritten in place is decoded afresh.
// Each footer costs 1, so the budget is an entry count.
var footers = memory.NewSizedLRU[string, *FileMetadata](4096, nil, "")

// FooterCacheStats returns the footer cache's cumulative counters.
func FooterCacheStats() memory.SizedStats { return footers.Stats() }

// OpenFile opens a GPQ file from the filesystem, using a shared memory
// mapping for reads when the platform supports it and the footer cache
// for its metadata.
func OpenFile(path string) (*FileReader, error) {
	r, size, fp, mm, closer, err := openMapped(path)
	if err != nil {
		return nil, err
	}
	meta, _, err := footers.GetOrLoad(fp, func() (*FileMetadata, int64, error) {
		m, err := ReadMetadata(r, size)
		return m, 1, err
	})
	if err != nil {
		if closer != nil {
			closer.Close()
		}
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
// plan without touching data pages. A file it cannot frame or decode, a
// footer of another format version, a row group that does not hold
// exactly one column chunk per schema field or whose row count is
// negative, a footer row count that is not the sum of its row groups',
// or a chunk entry checkChunk rejects is a format error.
func ReadMetadata(r io.ReaderAt, size int64) (*FileMetadata, error) {
	if size < int64(len(Magic))*2+4 {
		return nil, errFormat
	}
	head := make([]byte, 4)
	if err := readFull(r, head, 0); err != nil {
		return nil, err
	}
	if string(head) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", errFormat, head)
	}
	tail := make([]byte, 8)
	if err := readFull(r, tail, size-8); err != nil {
		return nil, err
	}
	if string(tail[4:]) != Magic {
		return nil, fmt.Errorf("%w: bad trailing magic", errFormat)
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if footerLen <= 0 || footerLen > size-8 {
		return nil, errFormat
	}
	footerJSON := make([]byte, footerLen)
	if err := readFull(r, footerJSON, size-8-footerLen); err != nil {
		return nil, err
	}
	var footer fileFooter
	if err := json.Unmarshal(footerJSON, &footer); err != nil {
		return nil, fmt.Errorf("%w: decoding footer: %v", errFormat, err)
	}
	if footer.Version != formatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", errFormat, footer.Version, formatVersion)
	}
	schema, err := arrow.UnmarshalSchema(footer.Schema)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errFormat, err)
	}
	dataEnd := size - 8 - footerLen
	total := int64(0)
	for rg, g := range footer.RowGroups {
		if len(g.Columns) != schema.NumFields() {
			return nil, fmt.Errorf("%w: row group %d holds %d column chunks for %d fields", errFormat, rg, len(g.Columns), schema.NumFields())
		}
		if g.NumRows < 0 || g.NumRows > math.MaxInt64-total {
			return nil, fmt.Errorf("%w: row group %d of %d rows", errFormat, rg, g.NumRows)
		}
		total += g.NumRows
		// Column 0's pages (none without columns) must tile the row group,
		// and every chunk is cut where they are.
		var lead []pageMeta
		if len(g.Columns) > 0 {
			lead = g.Columns[0].Pages
		}
		if err := checkPages(lead, lead, g.NumRows); err != nil {
			return nil, fmt.Errorf("%w: row group %d column 0: %v", errFormat, rg, err)
		}
		for c := range g.Columns {
			if err := checkChunk(&g.Columns[c], schema.Field(c).Type, g.NumRows, lead, dataEnd); err != nil {
				return nil, fmt.Errorf("%w: row group %d column %d: %v", errFormat, rg, c, err)
			}
		}
	}
	if footer.NumRows != total {
		return nil, fmt.Errorf("%w: footer claims %d rows, its row groups hold %d", errFormat, footer.NumRows, total)
	}
	return &FileMetadata{Schema: schema, NumRows: footer.NumRows, KV: footer.KV, footer: &footer}, nil
}

// checkChunk rejects a column chunk entry of a rows-row group that the
// scanner could not read or whose statistics lie: pages cut at other rows
// than lead, statistics checkStats rejects, a Bloom filter larger than
// the writer ever makes or with no hash functions, or any of them empty
// or outside the data section [len(Magic), dataEnd).
func checkChunk(c *columnChunkMeta, t *arrow.DataType, rows int64, lead []pageMeta, dataEnd int64) error {
	if err := checkPages(c.Pages, lead, rows); err != nil {
		return err
	}
	kind := statsKind(t)
	if err := checkStats(&c.Stats, kind, rows); err != nil {
		return err
	}
	for i := range c.Pages {
		p := &c.Pages[i]
		if err := checkStats(&p.Stats, kind, p.NumRows); err != nil {
			return fmt.Errorf("page %d: %v", i, err)
		}
		if err := checkSpan("page", p.Offset, p.Len, dataEnd); err != nil {
			return err
		}
	}
	if b := c.Bloom; b != nil {
		if b.Len > maxBloomBytes {
			return fmt.Errorf("Bloom filter of %d bytes", b.Len)
		}
		if b.NumHashes < 1 {
			return fmt.Errorf("Bloom filter with %d hashes", b.NumHashes)
		}
		return checkSpan("Bloom filter", b.Offset, b.Len, dataEnd)
	}
	return nil
}

// checkPages rejects pages that do not tile [0, rows) in order with
// positive row counts, or whose row counts differ from lead's.
func checkPages(pages, lead []pageMeta, rows int64) error {
	if len(pages) != len(lead) {
		return fmt.Errorf("%d pages where column 0 has %d", len(pages), len(lead))
	}
	next := int64(0)
	for i, p := range pages {
		if p.FirstRow != next || p.NumRows <= 0 || p.NumRows > rows-next || p.NumRows != lead[i].NumRows {
			return fmt.Errorf("page %d covers rows [%d, %d) after row %d, column 0's page %d rows",
				i, p.FirstRow, p.FirstRow+p.NumRows, next, lead[i].NumRows)
		}
		next += p.NumRows
	}
	if next != rows {
		return fmt.Errorf("pages end at row %d of %d", next, rows)
	}
	return nil
}

// checkStats rejects statistics of rows rows that claim another row
// count, a null count outside [0, rows], or a min or max that does not
// set exactly the field of kind.
func checkStats(m *statsMeta, kind byte, rows int64) error {
	if m.NumRows != rows || m.NullCount < 0 || m.NullCount > rows {
		return fmt.Errorf("statistics of %d rows with %d nulls for %d rows", m.NumRows, m.NullCount, rows)
	}
	for _, v := range []*statsValue{m.Min, m.Max} {
		if v != nil && v.kind() != kind {
			return fmt.Errorf("min or max not of statistics kind %q", kind)
		}
	}
	return nil
}

// checkSpan rejects n bytes at off unless they are non-empty and lie in
// the data section [len(Magic), dataEnd).
func checkSpan(what string, off, n, dataEnd int64) error {
	if n <= 0 || off < int64(len(Magic)) || off > dataEnd-n {
		return fmt.Errorf("%s at offset %d, %d bytes, outside the data section", what, off, n)
	}
	return nil
}

// readFull reads len(buf) bytes at off. A source that ends before them
// is a truncated file, so the format error: an io.EOF passed on would
// read as the end of a scan.
func readFull(r io.ReaderAt, buf []byte, off int64) error {
	n, err := r.ReadAt(buf, off)
	switch {
	case n == len(buf):
		return nil
	case err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("%w: %d of %d bytes at offset %d", errFormat, n, len(buf), off)
	}
	return err
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
	if err := readFull(fr.r, buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// decodePage decodes one data page of a column chunk.
func (fr *FileReader) decodePage(page *pageMeta, t *arrow.DataType) (arrow.Array, error) {
	stored, err := fr.readRange(page.Offset, page.Len)
	if err != nil {
		return nil, err
	}
	return decodePage(stored, page.Encoding, int(page.NumRows), t)
}

// loadPage decodes one data page, shared through the page cache when one
// is attached. Cached arrays are immutable shared views.
func (s *Scanner) loadPage(rg, col, pi int, page *pageMeta, t *arrow.DataType) (arrow.Array, error) {
	if s.opts.Cache == nil || s.fr.fingerprint == "" {
		return s.fr.decodePage(page, t)
	}
	key := PageKey{File: s.fr.fingerprint, RowGroup: rg, Col: col, Page: pi}
	arr, hit, err := s.opts.Cache.CachedPage(key, func() (arrow.Array, error) {
		return s.fr.decodePage(page, t)
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

// ScanOptions configures a pushed-down scan.
type ScanOptions struct {
	// Projection lists file-schema column indexes to read; nil means all.
	Projection []int
	// Predicate is evaluated during the scan; matching rows are returned.
	Predicate Predicate
	// Limit, when > 0, stops the scan after this many rows; 0 or less
	// means no limit.
	Limit int64
	// BatchRows sets the output batch size (default 8192).
	BatchRows int
	// Ranges restricts the scan to these parts of row groups, scanned in
	// the order given; nil means every row group, whole. This is the unit
	// of intra-file scan parallelism: a table provider splits one file
	// across partitions by handing each scanner ranges that tile a disjoint
	// share of it.
	Ranges []RowRange
	// Readahead is the number of ranges a background goroutine decodes
	// ahead of the consumer (I/O + decode overlap); 0 keeps the scan fully
	// synchronous.
	Readahead int
	// DisablePruning turns off row-group and page statistics pruning
	// (predicate still evaluated row-level); used by ablation benchmarks.
	DisablePruning bool
	// DisableLateMaterialization loads every projected page of a stripe
	// before evaluating the predicate on it; used by ablation benchmarks.
	DisableLateMaterialization bool
	// Cache, when set, shares decoded pages across scanners through the
	// process-wide page cache (requires a reader opened from a path, which
	// carries the file fingerprint the cache keys on).
	Cache *PageCache
}

// RowRange is the part of row group RowGroup that a scanner reads: the page
// stripes whose first row falls in [Start, End). Ranges that tile
// [0, rows) of a row group read each of its rows exactly once, wherever
// they cut it (FileMetadata.SplitRowGroup cuts at stripe boundaries).
type RowRange struct {
	RowGroup   int
	Start, End int64
}

// String renders the range as "rg3:0-8192".
func (r RowRange) String() string { return fmt.Sprintf("rg%d:%d-%d", r.RowGroup, r.Start, r.End) }

// groupResult carries one decoded range through the readahead pipeline.
type groupResult struct {
	batches []*arrow.RecordBatch
	err     error
}

// Scanner incrementally produces filtered, projected batches.
type Scanner struct {
	fr        *FileReader
	opts      ScanOptions
	schema    *arrow.Schema
	remaining int64 // rows the limit still allows; -1 without a limit
	ranges    []RowRange
	ri        int
	queue     []*arrow.RecordBatch

	// Readahead pipeline state (nil/unused when opts.Readahead == 0).
	// The producer goroutine owns queue/remaining/counters; the consumer
	// side only touches pending and the channel.
	startOnce sync.Once
	closeOnce sync.Once
	out       chan groupResult
	quit      chan struct{}
	pending   []*arrow.RecordBatch

	// Stripe-loop state, owned by whichever goroutine runs scanRange.
	// cur holds the current stripe's loaded pages by file column; pend
	// holds, per projected column, the page of every pending stripe, and
	// runs the pending selected rows in order (Run.Src indexes pend's
	// inner slices).
	predCols []int
	needed   []int
	cur      map[int]arrow.Array
	pend     [][]arrow.Array
	npend    int
	runs     []compute.Run
	pendRows int

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
	// RowsZeroCopy counts emitted rows whose batch is a decoded page or a
	// slice of one; RowsGathered counts rows copied into a batch from
	// several runs. Together they are the rows the scanner emitted.
	RowsZeroCopy int
	RowsGathered int
}

// Scan starts a pushed-down scan over the file.
func (fr *FileReader) Scan(opts ScanOptions) (*Scanner, error) {
	if opts.BatchRows <= 0 {
		opts.BatchRows = 8192
	}
	nf := fr.meta.Schema.NumFields()
	if opts.Projection == nil {
		opts.Projection = make([]int, nf)
		for i := range opts.Projection {
			opts.Projection[i] = i
		}
	}
	for _, c := range opts.Projection {
		if c < 0 || c >= nf {
			return nil, fmt.Errorf("parquet: projection column %d out of range", c)
		}
	}
	ranges := opts.Ranges
	if ranges == nil {
		ranges = make([]RowRange, fr.meta.NumRowGroups())
		for rg := range ranges {
			ranges[rg] = RowRange{RowGroup: rg, End: fr.meta.RowGroupRows(rg)}
		}
	} else {
		for _, r := range ranges {
			if r.RowGroup < 0 || r.RowGroup >= fr.meta.NumRowGroups() {
				return nil, fmt.Errorf("parquet: row group %d out of range", r.RowGroup)
			}
			if r.Start < 0 || r.Start > r.End || r.End > fr.meta.RowGroupRows(r.RowGroup) {
				return nil, fmt.Errorf("parquet: row range %s out of range", r)
			}
		}
	}
	remaining := opts.Limit
	if remaining <= 0 {
		remaining = -1
	}
	s := &Scanner{
		fr:        fr,
		opts:      opts,
		schema:    fr.meta.Schema.Select(opts.Projection),
		remaining: remaining,
		ranges:    ranges,
		cur:       make(map[int]arrow.Array),
		pend:      make([][]arrow.Array, len(opts.Projection)),
	}
	seen := make([]bool, nf)
	need := func(cols []int) {
		for _, c := range cols {
			if !seen[c] {
				seen[c] = true
				s.needed = append(s.needed, c)
			}
		}
	}
	need(opts.Projection)
	if opts.Predicate != nil {
		s.predCols = opts.Predicate.Columns()
		need(s.predCols)
	}
	return s, nil
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
		if s.remaining == 0 || s.ri >= len(s.ranges) {
			return nil, io.EOF
		}
		r := s.ranges[s.ri]
		s.ri++
		if err := s.scanRange(r); err != nil {
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

// startPrefetch launches the readahead producer: it decodes ranges
// sequentially (preserving limit accounting and pruning order) and parks
// up to opts.Readahead decoded ranges in a bounded channel while the
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
		for _, r := range s.ranges {
			if s.remaining == 0 {
				return
			}
			select {
			case <-s.quit:
				return
			default:
			}
			err := s.scanRange(r)
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
	for _, col := range s.predCols {
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

// stripes returns the page stripes of row group rg as the pages of its
// first needed column: page i of every column chunk covers the rows of
// stripe i (ReadMetadata checks it). With no needed column (an empty
// projection and no predicate) the whole row group is one stripe.
func (s *Scanner) stripes(rg int) []pageMeta {
	group := &s.fr.meta.footer.RowGroups[rg]
	if len(s.needed) == 0 {
		return []pageMeta{{NumRows: group.NumRows}}
	}
	return group.Columns[s.needed[0]].Pages
}

// scanRange scans the stripes of range r one at a time. Page statistics
// may skip a stripe; the predicate runs on the predicate columns' pages as
// decoded (or cached); the other projected pages load only for stripes
// with selected rows, whose runs queue until BatchRows rows are pending.
// The range's last batch takes what is left. The pruning counters count
// the range as one row group.
func (s *Scanner) scanRange(r RowRange) error {
	rg := r.RowGroup
	stripes := s.stripes(rg)
	pred := s.opts.Predicate
	prune := pred != nil && !s.opts.DisablePruning
	if prune && !s.keepRowGroup(rg) {
		s.RowGroupsPruned++
		return nil
	}
	// Pages are held for one stripe.
	defer clear(s.cur)
	candidate, matched := false, false
	for si := range stripes {
		if s.remaining == 0 {
			break
		}
		if first := stripes[si].FirstRow; first < r.Start || first >= r.End {
			continue
		}
		if prune && !s.keepStripe(rg, si) {
			continue
		}
		candidate = true
		clear(s.cur)
		rows := int(stripes[si].NumRows)
		first := len(s.runs)
		if pred == nil {
			s.runs = append(s.runs, compute.Run{Src: s.npend, End: rows})
		} else {
			if s.opts.DisableLateMaterialization {
				if err := s.load(rg, si, s.opts.Projection); err != nil {
					return err
				}
			}
			if err := s.load(rg, si, s.predCols); err != nil {
				return err
			}
			mask, err := pred.Evaluate(s.cur, rows)
			if err != nil {
				return err
			}
			s.runs = compute.AppendRuns(s.runs, s.npend, mask)
		}
		added := s.limitRuns(first)
		if added == 0 {
			continue
		}
		matched = true
		if err := s.load(rg, si, s.opts.Projection); err != nil {
			return err
		}
		for i, c := range s.opts.Projection {
			s.pend[i] = append(s.pend[i], s.cur[c])
		}
		s.npend++
		s.pendRows += added
		for s.pendRows >= s.opts.BatchRows {
			if err := s.emit(s.opts.BatchRows); err != nil {
				return err
			}
		}
	}
	if s.pendRows > 0 {
		if err := s.emit(s.pendRows); err != nil {
			return err
		}
	}
	if prune && !candidate {
		s.RowGroupsPruned++
	}
	if matched {
		s.RowGroupsMatched++
	}
	return nil
}

// keepStripe applies page statistics to stripe si of row group rg,
// counting every predicate-column page that refutes the predicate.
func (s *Scanner) keepStripe(rg, si int) bool {
	chunks := s.fr.meta.footer.RowGroups[rg].Columns
	keep := true
	for _, col := range s.predCols {
		stats := chunks[col].Pages[si].Stats.toStats(s.fr.meta.Schema.Field(col).Type)
		if !s.opts.Predicate.KeepColumnStats(col, stats) {
			s.PagesSkipped++
			keep = false
		}
	}
	return keep
}

// load decodes page si of each listed column the current stripe has not
// loaded yet.
func (s *Scanner) load(rg, si int, cols []int) error {
	for _, col := range cols {
		if _, ok := s.cur[col]; ok {
			continue
		}
		chunk := &s.fr.meta.footer.RowGroups[rg].Columns[col]
		arr, err := s.loadPage(rg, col, si, &chunk.Pages[si], s.fr.meta.Schema.Field(col).Type)
		if err != nil {
			return err
		}
		s.cur[col] = arr
	}
	return nil
}

// limitRuns trims the runs from index first on to the remaining limit,
// charges them against it and returns how many rows they hold.
func (s *Scanner) limitRuns(first int) int {
	added := 0
	for i := first; i < len(s.runs); i++ {
		r := &s.runs[i]
		if s.remaining >= 0 && int64(added+r.End-r.Start) >= s.remaining {
			r.End = r.Start + int(s.remaining) - added
			s.runs = s.runs[:i+1]
			added = int(s.remaining)
			break
		}
		added += r.End - r.Start
	}
	if s.remaining > 0 {
		s.remaining -= int64(added)
	}
	return added
}

// emit queues the first n pending rows as one batch. The rows of one run
// leave as that page or a slice of it; rows of several runs are gathered,
// each value copied once. Stripes no pending run names are dropped.
func (s *Scanner) emit(n int) error {
	k, rows := 0, 0
	for rows < n {
		rows += s.runs[k].End - s.runs[k].Start
		k++
	}
	over := rows - n
	s.runs[k-1].End -= over
	cols := make([]arrow.Array, len(s.pend))
	for i, pages := range s.pend {
		col, err := compute.GatherRuns(pages, s.runs[:k])
		if err != nil {
			return err
		}
		cols[i] = col
	}
	if k == 1 || len(cols) == 0 {
		s.RowsZeroCopy += n
	} else {
		s.RowsGathered += n
	}
	s.queue = append(s.queue, arrow.NewRecordBatchWithRows(s.schema, cols, n))

	if over > 0 {
		k--
		s.runs[k].Start, s.runs[k].End = s.runs[k].End, s.runs[k].End+over
	}
	s.runs = s.runs[:copy(s.runs, s.runs[k:])]
	s.pendRows -= n
	drop := s.npend
	if len(s.runs) > 0 {
		drop = s.runs[0].Src
	}
	for i := range s.runs {
		s.runs[i].Src -= drop
	}
	for i, pages := range s.pend {
		kept := copy(pages, pages[drop:])
		clear(pages[kept:])
		s.pend[i] = pages[:kept]
	}
	s.npend -= drop
	return nil
}
