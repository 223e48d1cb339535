package catalog

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"gofusion/internal/arrow"
	"gofusion/internal/csvio"
	"gofusion/internal/jsonio"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
)

// GPQTable is a TableProvider over one or more GPQ files, with projection,
// predicate and limit pushdown, file-level pruning, and partitioned reads.
type GPQTable struct {
	files []string
	// footers are the files' footers as the table opened them; planning
	// prunes and deals row groups from these. Scan units open their files
	// with parquet.OpenFile, whose footer cache serves the same footers
	// while the files are unchanged.
	footers []*parquet.FileMetadata
	schema  *arrow.Schema
	stats   Statistics
	order   []OrderedCol
	// pages, when set, is the process-wide decoded-page cache threaded
	// into every scan this table plans.
	pages *parquet.PageCache
}

// NewGPQTable opens a GPQ-backed table. All files must share a schema.
func NewGPQTable(files []string) (*GPQTable, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("catalog: GPQ table needs at least one file")
	}
	t := &GPQTable{files: files, footers: make([]*parquet.FileMetadata, len(files))}
	for i, f := range files {
		fr, err := parquet.OpenFile(f)
		if err != nil {
			return nil, err
		}
		meta := fr.Metadata()
		fr.Close()
		t.footers[i] = meta
		if i == 0 {
			t.schema = meta.Schema
			if so, ok := meta.KV["sort_order"]; ok {
				t.order = parseSortOrder(so)
			}
		} else if !meta.Schema.Equal(t.schema) {
			return nil, fmt.Errorf("catalog: %s schema differs from %s", f, files[0])
		}
		t.stats.NumRows += meta.NumRows
		if st, err := os.Stat(f); err == nil {
			t.stats.TotalBytes += st.Size()
		}
	}
	return t, nil
}

func parseSortOrder(s string) []OrderedCol {
	var out []OrderedCol
	for _, part := range strings.Split(s, ",") {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) == 0 {
			continue
		}
		out = append(out, OrderedCol{
			Name: fields[0],
			Desc: len(fields) > 1 && strings.EqualFold(fields[1], "DESC"),
		})
	}
	return out
}

// Files returns the table's backing file paths.
func (t *GPQTable) Files() []string { return t.files }

// Append writes batches onto the table's last backing file in place (the
// file's size/mtime fingerprint rotates, so the footer, page and mmap
// caches key the new contents separately). The receiver's footers,
// statistics and sort order are NOT refreshed — re-open the table over
// Files() to plan against the grown file.
func (t *GPQTable) Append(batches []*arrow.RecordBatch, opts parquet.WriterOptions) error {
	return parquet.AppendFile(t.files[len(t.files)-1], batches, opts)
}

// SetPageCache attaches the shared decoded-page cache; subsequent Scans
// thread it into their readers. Nil detaches.
func (t *GPQTable) SetPageCache(pc *parquet.PageCache) { t.pages = pc }

// Schema returns the table schema.
func (t *GPQTable) Schema() *arrow.Schema { return t.schema }

// Statistics returns exact row counts from file footers.
func (t *GPQTable) Statistics() Statistics { return t.stats }

// scanUnit is the work unit of a partitioned GPQ scan: row ranges, in file
// order, within one file.
type scanUnit struct {
	file   string
	meta   *parquet.FileMetadata
	ranges []parquet.RowRange
	rows   int64
	// split is shared by the pieces of a row group cut into several
	// ranges; nil for a unit of whole row groups.
	split *splitGroup
}

// splitGroup counts a row group cut into several ranges once, however
// many scanners read its pieces: scanned if any piece matched rows,
// pruned (and Bloom-skipped) if every piece was.
type splitGroup struct {
	pieces  int32
	pruned  atomic.Int32
	bloom   atomic.Int32
	matched atomic.Bool
}

// count folds one piece's scanner counters into the row group's and
// returns what the row group adds to the scan's counters.
func (g *splitGroup) count(matched, pruned, bloom int) (int, int, int) {
	m, p, b := 0, 0, 0
	if matched > 0 && g.matched.CompareAndSwap(false, true) {
		m = 1
	}
	if pruned > 0 && g.pruned.Add(1) == g.pieces {
		p = 1
	}
	if bloom > 0 && g.bloom.Add(1) == g.pieces {
		b = 1
	}
	return m, p, b
}

// planUnits builds one scan unit per surviving row group, pruning at file
// granularity (aggregated footer stats) and then at row-group granularity
// (per-chunk stats). Bloom-filter and page-level pruning stay in the
// scanner, which reads data pages anyway.
func (t *GPQTable) planUnits(pred parquet.Predicate) (units []scanUnit, pruned int, err error) {
	for i, f := range t.files {
		meta := t.footers[i]
		if pred != nil {
			keep := true
			for _, col := range pred.Columns() {
				if !pred.KeepColumnStats(col, fileColumnStats(meta, col)) {
					keep = false
					break
				}
			}
			if !keep {
				pruned += meta.NumRowGroups()
				continue
			}
		}
		for rg := 0; rg < meta.NumRowGroups(); rg++ {
			if pred != nil {
				keep := true
				for _, col := range pred.Columns() {
					if !pred.KeepColumnStats(col, meta.ColumnChunkStats(rg, col)) {
						keep = false
						break
					}
				}
				if !keep {
					pruned++
					continue
				}
			}
			rows := meta.RowGroupRows(rg)
			units = append(units, scanUnit{file: f, meta: meta,
				ranges: []parquet.RowRange{{RowGroup: rg, End: rows}}, rows: rows})
		}
	}
	return units, pruned, nil
}

// chunksPerPartition is how many chunks a partitioned scan aims to give
// each partition to claim, so that the tail balances itself.
const chunksPerPartition = 4

// splitUnits cuts row groups into ranges aligned to page stripes when
// fewer than target survive, about target ranges in all, each row group
// into a share of them in proportion to its rows. With enough row groups
// it returns units as they are.
func splitUnits(units []scanUnit, target int) []scanUnit {
	if len(units) >= target {
		return units
	}
	var total int64
	for _, u := range units {
		total += u.rows
	}
	var out []scanUnit
	for _, u := range units {
		n := 1
		if total > 0 {
			n = int(max(1, (u.rows*int64(target)+total/2)/total))
		}
		pieces := u.meta.SplitRowGroup(u.ranges[0].RowGroup, n)
		if len(pieces) == 1 {
			out = append(out, u)
			continue
		}
		split := &splitGroup{pieces: int32(len(pieces))}
		for _, r := range pieces {
			out = append(out, scanUnit{file: u.file, meta: u.meta,
				ranges: []parquet.RowRange{r}, rows: r.End - r.Start, split: split})
		}
	}
	return out
}

// dealUnits deals units into numParts chunks, balancing by footer row
// counts: each unit goes to the least-loaded chunk (ties to the lowest
// index), and a unit of whole row groups that follows one of its file's
// in the same chunk merges into it, so the chunk opens the file once.
// Pieces of split row groups stay apart, each read by a scanner of its
// own.
func dealUnits(units []scanUnit, numParts int) [][]scanUnit {
	parts := make([][]scanUnit, numParts)
	loads := make([]int64, numParts)
	for _, u := range units {
		best := 0
		for p := 1; p < numParts; p++ {
			if loads[p] < loads[best] {
				best = p
			}
		}
		if n := len(parts[best]); n > 0 && parts[best][n-1].file == u.file &&
			parts[best][n-1].split == nil && u.split == nil {
			prev := &parts[best][n-1]
			prev.ranges = append(prev.ranges, u.ranges...)
			prev.rows += u.rows
		} else {
			parts[best] = append(parts[best], u)
		}
		loads[best] += u.rows
	}
	return parts
}

// unitsDetail lists the ranges of each chunk for EXPLAIN, in the order the
// chunks are claimed, e.g. "u0=data.gpq[rg0-3] u1=data.gpq[rg4-7]", or
// "u0=data.gpq[rg0:0-32768]" for a piece of a split row group. Long
// listings truncate.
func unitsDetail(chunks [][]scanUnit) string {
	var sb strings.Builder
	for c, us := range chunks {
		if c > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "u%d=", c)
		for i, u := range us {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(filepath.Base(u.file))
			sb.WriteString(rangesString(u))
		}
		if sb.Len() > 160 && c < len(chunks)-1 {
			fmt.Fprintf(&sb, " …(+%d units)", len(chunks)-1-c)
			break
		}
	}
	return sb.String()
}

// rangesString renders a unit's ranges: a piece of a split row group as
// "[rg0:0-32768]", whole row groups compacted into "[rg0-3,rg7]".
func rangesString(u scanUnit) string {
	if u.split != nil {
		return "[" + u.ranges[0].String() + "]"
	}
	var sb strings.Builder
	sb.WriteByte('[')
	rs := u.ranges
	for i := 0; i < len(rs); {
		j := i
		for j+1 < len(rs) && rs[j+1].RowGroup == rs[j].RowGroup+1 {
			j++
		}
		if i > 0 {
			sb.WriteByte(',')
		}
		if i == j {
			fmt.Fprintf(&sb, "rg%d", rs[i].RowGroup)
		} else {
			fmt.Fprintf(&sb, "rg%d-%d", rs[i].RowGroup, rs[j].RowGroup)
		}
		i = j + 1
	}
	sb.WriteByte(']')
	return sb.String()
}

// scanChunks groups the units into the chunks the scan's partitions
// claim. One partition reads one chunk of every unit in file order, so a
// declared sort order can survive. More partitions share about
// chunksPerPartition chunks each, dealt row-balanced (same-file neighbours
// merge so each chunk opens its file once) and ordered largest first so
// the longest chunks start earliest and the tail balances itself.
func scanChunks(units []scanUnit, numParts int) [][]scanUnit {
	if numParts <= 1 {
		return dealUnits(units, 1)
	}
	var chunks [][]scanUnit
	for _, us := range dealUnits(units, min(numParts*chunksPerPartition, len(units))) {
		if len(us) > 0 {
			chunks = append(chunks, us)
		}
	}
	rowsOf := func(us []scanUnit) int64 {
		var r int64
		for _, u := range us {
			r += u.rows
		}
		return r
	}
	sort.SliceStable(chunks, func(i, j int) bool { return rowsOf(chunks[i]) > rowsOf(chunks[j]) })
	return chunks
}

// Scan prepares a pushed-down partitioned scan. Row groups refuted by
// footer statistics are pruned at plan time (file level, then chunk
// level). When fewer survive than the chunks the partitions should share,
// they are cut into ranges aligned to page stripes (splitUnits). The units
// are grouped into chunks (scanChunks) that up to req.Partitions
// partitions claim from one shared cursor — so a single large file still
// scans in parallel, and a partition that finishes early takes the next
// chunk instead of idling.
func (t *GPQTable) Scan(req ScanRequest) (*ScanResult, error) {
	pred, exact := CompileFilters(req.Filters, t.schema)
	limit := req.Limit
	if slices.Contains(exact, false) {
		limit = NoLimit
	}

	units, pruned, err := t.planUnits(pred)
	if err != nil {
		return nil, err
	}
	groups := len(units)
	if req.Partitions > 1 {
		units = splitUnits(units, req.Partitions*chunksPerPartition)
	}
	numParts := max(1, min(req.Partitions, len(units)))
	queue := &chunkQueue{chunks: scanChunks(units, numParts)}

	outSchema := t.schema
	if req.Projection != nil {
		outSchema = t.schema.Select(req.Projection)
	}
	order := t.order
	if len(t.files) > 1 || numParts > 1 {
		// Order survives only when one partition reads one file's row
		// groups in file order; splitting a file across partitions or
		// interleaving files within a partition destroys it.
		order = nil
	}
	detail := fmt.Sprintf("rowgroups=%d pruned=%d", groups, pruned)
	if len(units) > 0 {
		detail += " " + unitsDetail(queue.chunks)
	}
	if numParts > 1 {
		detail += fmt.Sprintf(" scheduler=morsel units=%d", len(queue.chunks))
	}
	rt := &ScanRuntime{}
	rt.RowGroupsPruned.Add(int64(pruned)) // plan-time file/row-group pruning
	pages := req.PageCache
	if pages == nil {
		pages = t.pages
	}
	opts := parquet.ScanOptions{
		Projection: req.Projection,
		Predicate:  pred,
		BatchRows:  req.BatchRows,
		Readahead:  req.Readahead,
		Cache:      pages,
	}
	return &ScanResult{
		Schema:       outSchema,
		Partitions:   numParts,
		ExactFilters: exact,
		SortOrder:    order,
		Detail:       detail,
		Runtime:      rt,
		// Every partition claims from the same queue, so which one asks
		// does not matter.
		Open: func(int) (Stream, error) {
			return &gpqStream{queue: queue, schema: outSchema, rt: rt, opts: opts,
				rows: newRowLimit(limit)}, nil
		},
	}, nil
}

func fileColumnStats(meta *parquet.FileMetadata, col int) parquet.ColumnStats {
	return meta.ColumnStatsForFile(col)
}

// chunkQueue is the work of one prepared scan: its chunks and the atomic
// cursor every partition stream claims the next one with. Whatever
// consumes the partitions (a pipeline, a join build, an exchange), a
// stream stuck on a fat chunk claims fewer, so skew balances itself.
type chunkQueue struct {
	chunks [][]scanUnit
	next   atomic.Int64
}

// claim returns the next unclaimed chunk, or false once all are claimed.
func (q *chunkQueue) claim() ([]scanUnit, bool) {
	i := q.next.Add(1) - 1
	if i >= int64(len(q.chunks)) {
		return nil, false
	}
	return q.chunks[i], true
}

// gpqStream is one partition of a GPQ scan: it claims chunks from the
// scan's queue and reads their units one scanner at a time, with
// optional readahead inside each scanner. Closing it mid-chunk closes
// only the current scanner; chunks it never claimed stay for the other
// partitions, and nothing of them was opened.
type gpqStream struct {
	queue   *chunkQueue
	units   []scanUnit // the rest of the claimed chunk
	unit    scanUnit   // the unit scanner reads
	schema  *arrow.Schema
	opts    parquet.ScanOptions
	rows    rowLimit
	rt      *ScanRuntime
	reader  *parquet.FileReader
	scanner *parquet.Scanner
}

func (s *gpqStream) Schema() *arrow.Schema { return s.schema }

func (s *gpqStream) Next() (*arrow.RecordBatch, error) {
	for {
		if s.scanner == nil {
			if s.rows.done() {
				return nil, io.EOF
			}
			if len(s.units) == 0 {
				chunk, ok := s.queue.claim()
				if !ok {
					return nil, io.EOF
				}
				s.units = chunk
				continue
			}
			unit := s.units[0]
			fr, err := parquet.OpenFile(unit.file)
			if err != nil {
				return nil, err
			}
			s.units = s.units[1:]
			opts := s.opts
			opts.Ranges = unit.ranges
			opts.Limit = s.rows.left // math.MaxInt64 without a limit
			sc, err := fr.Scan(opts)
			if err != nil {
				fr.Close()
				return nil, err
			}
			s.reader, s.scanner, s.unit = fr, sc, unit
		}
		b, err := s.scanner.Next()
		if err == io.EOF {
			s.closeCurrent()
			continue
		}
		if err != nil {
			return nil, err
		}
		return s.rows.take(b), nil
	}
}

func (s *gpqStream) closeCurrent() {
	if s.scanner != nil {
		// Close first: it stops and joins the readahead producer, making
		// the scanner's pruning counters safe to read.
		s.scanner.Close()
		matched, pruned, bloom := s.scanner.RowGroupsMatched, s.scanner.RowGroupsPruned, s.scanner.BloomSkipped
		if s.unit.split != nil {
			matched, pruned, bloom = s.unit.split.count(matched, pruned, bloom)
		}
		s.rt.RowGroupsPruned.Add(int64(pruned))
		s.rt.RowGroupsScanned.Add(int64(matched))
		s.rt.PagesPruned.Add(int64(s.scanner.PagesSkipped))
		s.rt.BloomSkipped.Add(int64(bloom))
		s.rt.PageCacheHits.Add(int64(s.scanner.PageCacheHits))
		s.rt.PageCacheMisses.Add(int64(s.scanner.PageCacheMisses))
		s.rt.RowsZeroCopy.Add(int64(s.scanner.RowsZeroCopy))
		s.rt.RowsGathered.Add(int64(s.scanner.RowsGathered))
	}
	if s.reader != nil {
		s.reader.Close()
	}
	s.reader, s.scanner = nil, nil
}

func (s *gpqStream) Close() { s.closeCurrent() }

// CSVTable is a TableProvider over a CSV file with projection pushdown.
type CSVTable struct {
	path   string
	schema *arrow.Schema
	opts   csvio.Options
}

// NewCSVTable opens a CSV-backed table, inferring the schema when schema
// is nil.
func NewCSVTable(path string, schema *arrow.Schema, opts csvio.Options) (*CSVTable, error) {
	if schema == nil {
		inferred, err := csvio.InferSchema(path, opts)
		if err != nil {
			return nil, err
		}
		schema = inferred
	}
	return &CSVTable{path: path, schema: schema, opts: opts}, nil
}

// Schema returns the table schema.
func (t *CSVTable) Schema() *arrow.Schema { return t.schema }

// Statistics returns the file size only; row counts require a full parse.
func (t *CSVTable) Statistics() Statistics {
	st := UnknownStats()
	if fi, err := os.Stat(t.path); err == nil {
		st.TotalBytes = fi.Size()
	}
	return st
}

// Scan reads the file in one partition with projection pushdown.
func (t *CSVTable) Scan(req ScanRequest) (*ScanResult, error) {
	outSchema := t.schema
	if req.Projection != nil {
		outSchema = t.schema.Select(req.Projection)
	}
	limit := req.Limit
	if len(req.Filters) > 0 {
		limit = NoLimit
	}
	return &ScanResult{
		Schema:       outSchema,
		Partitions:   1,
		ExactFilters: make([]bool, len(req.Filters)),
		Open: func(int) (Stream, error) {
			opts := t.opts
			if req.BatchRows > 0 {
				opts.BatchRows = req.BatchRows
			}
			r, err := csvio.NewReader(t.path, t.schema, req.Projection, opts)
			if err != nil {
				return nil, err
			}
			return &limitStream{inner: &csvStream{r: r}, rows: newRowLimit(limit)}, nil
		},
	}, nil
}

type csvStream struct{ r *csvio.Reader }

func (s *csvStream) Schema() *arrow.Schema             { return s.r.Schema() }
func (s *csvStream) Next() (*arrow.RecordBatch, error) { return s.r.Next() }
func (s *csvStream) Close()                            { s.r.Close() }

// JSONTable is a TableProvider over an NDJSON file.
type JSONTable struct {
	path   string
	schema *arrow.Schema
	opts   jsonio.Options
}

// NewJSONTable opens an NDJSON-backed table, inferring the schema when
// schema is nil.
func NewJSONTable(path string, schema *arrow.Schema, opts jsonio.Options) (*JSONTable, error) {
	if schema == nil {
		inferred, err := jsonio.InferSchema(path, opts)
		if err != nil {
			return nil, err
		}
		schema = inferred
	}
	return &JSONTable{path: path, schema: schema, opts: opts}, nil
}

// Schema returns the table schema.
func (t *JSONTable) Schema() *arrow.Schema { return t.schema }

// Statistics returns the file size only.
func (t *JSONTable) Statistics() Statistics {
	st := UnknownStats()
	if fi, err := os.Stat(t.path); err == nil {
		st.TotalBytes = fi.Size()
	}
	return st
}

// Scan reads the file in one partition; projection is applied after
// decoding.
func (t *JSONTable) Scan(req ScanRequest) (*ScanResult, error) {
	outSchema := t.schema
	if req.Projection != nil {
		outSchema = t.schema.Select(req.Projection)
	}
	limit := req.Limit
	if len(req.Filters) > 0 {
		limit = NoLimit
	}
	return &ScanResult{
		Schema:       outSchema,
		Partitions:   1,
		ExactFilters: make([]bool, len(req.Filters)),
		Open: func(int) (Stream, error) {
			opts := t.opts
			if req.BatchRows > 0 {
				opts.BatchRows = req.BatchRows
			}
			r, err := jsonio.NewReader(t.path, t.schema, opts)
			if err != nil {
				return nil, err
			}
			return &limitStream{
				inner: &jsonStream{r: r, projection: req.Projection, schema: outSchema},
				rows:  newRowLimit(limit),
			}, nil
		},
	}, nil
}

type jsonStream struct {
	r          *jsonio.Reader
	projection []int
	schema     *arrow.Schema
}

func (s *jsonStream) Schema() *arrow.Schema { return s.schema }
func (s *jsonStream) Close()                { s.r.Close() }
func (s *jsonStream) Next() (*arrow.RecordBatch, error) {
	b, err := s.r.Next()
	if err != nil {
		return nil, err
	}
	if s.projection != nil {
		b = b.Project(s.projection)
	}
	return b, nil
}

// limitStream truncates an inner stream at a pushed-down limit.
type limitStream struct {
	inner Stream
	rows  rowLimit
}

func (s *limitStream) Schema() *arrow.Schema { return s.inner.Schema() }
func (s *limitStream) Close()                { s.inner.Close() }
func (s *limitStream) Next() (*arrow.RecordBatch, error) {
	if s.rows.done() {
		return nil, io.EOF
	}
	b, err := s.inner.Next()
	if err != nil {
		return nil, err
	}
	return s.rows.take(b), nil
}

// ListingTable builds a TableProvider from a directory of data files of
// one format ("gpq", "csv", "json"), in the style of Hive-partitioned
// listings. Files are discovered recursively and sorted for determinism.
func ListingTable(dir, format string) (TableProvider, error) {
	ext := "." + format
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(strings.ToLower(d.Name()), ext) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("catalog: no %s files under %s", format, dir)
	}
	switch format {
	case "gpq":
		return NewGPQTable(files)
	case "csv":
		if len(files) == 1 {
			return NewCSVTable(files[0], nil, csvio.DefaultOptions())
		}
		return nil, fmt.Errorf("catalog: multi-file CSV listings are not supported")
	case "json":
		if len(files) == 1 {
			return NewJSONTable(files[0], nil, jsonio.Options{})
		}
		return nil, fmt.Errorf("catalog: multi-file JSON listings are not supported")
	}
	return nil, fmt.Errorf("catalog: unknown format %q", format)
}

var _ logical.TableSource = (TableProvider)(nil)
