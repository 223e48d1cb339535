// Package catalog implements the catalog and data source APIs (paper
// Sections 5.2, 7.2, 7.3): CatalogProvider -> SchemaProvider ->
// TableProvider, with built-in providers for in-memory tables and GPQ /
// CSV / JSON files. Built-in providers use exactly the API exposed to
// user-defined providers, including projection, filter, and limit
// pushdown, partitioned parallel reads, and known sort orders.
package catalog

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
)

// Stream incrementally produces record batches; Next returns io.EOF when
// exhausted. Streams are single-consumer.
type Stream interface {
	Schema() *arrow.Schema
	Next() (*arrow.RecordBatch, error)
	Close()
}

// OrderedCol names a column of a known sort order.
type OrderedCol struct {
	Name string
	Desc bool
}

// Statistics summarizes a table for planning.
type Statistics struct {
	// NumRows is the exact or estimated row count, -1 when unknown.
	NumRows int64
	// TotalBytes is the on-disk size, -1 when unknown.
	TotalBytes int64
}

// UnknownStats is the zero-knowledge statistics value.
func UnknownStats() Statistics { return Statistics{NumRows: -1, TotalBytes: -1} }

// NoLimit is the ScanRequest.Limit value for an unbounded scan: the
// zero value, like any Limit <= 0.
const NoLimit int64 = 0

// ScanRequest carries pushdown information into a provider scan.
type ScanRequest struct {
	// Projection selects provider-schema column indexes; nil means all.
	Projection []int
	// Filters are conjuncts the provider may apply (fully, partially, or
	// not at all); ScanResult.ExactFilters reports which were exact.
	Filters []logical.Expr
	// Limit, when > 0, lets each partition stop after this many rows; 0
	// or less means no limit. A provider applies it only when it applies
	// every filter exactly; the engine enforces the query's own limit
	// above the scan either way.
	Limit int64
	// Partitions is the desired read parallelism (providers may return
	// fewer).
	Partitions int
	// BatchRows is the preferred output batch size.
	BatchRows int
	// Readahead asks file-backed providers to decode this many units (row
	// groups) ahead of the consumer per partition; 0 disables pipelining.
	Readahead int
	// PageCache, when set, asks file-backed providers to share decoded
	// pages through the process-wide cache. Providers without page
	// structure ignore it.
	PageCache *parquet.PageCache
}

// ScanResult describes a prepared scan: a projected schema and a factory
// for per-partition streams.
type ScanResult struct {
	Schema     *arrow.Schema
	Partitions int
	// Open starts reading one partition. Each partition may be opened at
	// most once. The provider decides what a partition reads: the opened
	// partitions together return the scan, and a provider may hand its
	// work to whichever partition asks next.
	Open func(partition int) (Stream, error)
	// ExactFilters[i] reports whether Filters[i] was applied exactly (the
	// engine then drops its own re-evaluation).
	ExactFilters []bool
	// SortOrder describes a known output ordering (within every
	// partition), or nil.
	SortOrder []OrderedCol
	// Detail is an optional provider-specific description of how the scan
	// was partitioned (e.g. row-group ranges), surfaced in EXPLAIN.
	Detail string
	// Runtime, when non-nil, aggregates runtime pruning counters across
	// the scan's partition streams for EXPLAIN ANALYZE. Providers without
	// statistics leave it nil.
	Runtime *ScanRuntime
	// Unbounded marks a tailing scan: partition streams block awaiting new
	// data instead of returning io.EOF, until the source is sealed or the
	// query is cancelled. The planner refuses to place full-pipeline
	// breakers (sorts, non-watermark final aggregation) above an unbounded
	// scan.
	Unbounded bool
	// Watermark is the 1-based index (into Schema) of the source's declared
	// event-time column, 0 when none. Streaming aggregation groups on it to
	// emit finalized groups as the watermark advances.
	Watermark int
}

// CtxStream is an optional Stream extension for tailing sources whose Next
// blocks awaiting data: the engine binds the query context so blocked
// reads unblock on cancellation. BindContext is called at most once,
// before the first Next.
type CtxStream interface {
	Stream
	BindContext(ctx context.Context)
}

// ScanRuntime accumulates runtime scan counters across all partitions of
// one prepared scan. Plan-time pruning (whole files / row groups
// refuted before any stream opens) is pre-added by the provider; stream
// close flushes per-reader counters. All fields are atomics so partition
// streams update them concurrently.
type ScanRuntime struct {
	// RowGroupsPruned counts row groups skipped by min/max statistics or
	// Bloom filters (plan-time plus runtime).
	RowGroupsPruned atomic.Int64
	// RowGroupsScanned counts row groups actually decoded.
	RowGroupsScanned atomic.Int64
	// PagesPruned counts data pages skipped by page-level statistics.
	PagesPruned atomic.Int64
	// BloomSkipped counts row groups rejected specifically by a Bloom
	// filter probe (a subset of RowGroupsPruned).
	BloomSkipped atomic.Int64
	// PageCacheHits / PageCacheMisses count shared decoded-page cache
	// lookups across the scan's streams (zero when no cache is attached).
	PageCacheHits   atomic.Int64
	PageCacheMisses atomic.Int64
	// RowsZeroCopy / RowsGathered split the rows the scanners emitted into
	// those passed on as decoded pages or slices of them and those gathered
	// into new arrays.
	RowsZeroCopy atomic.Int64
	RowsGathered atomic.Int64
}

// TableProvider is the data source extension point.
type TableProvider interface {
	// Schema returns the full table schema.
	Schema() *arrow.Schema
	// Scan prepares a (possibly pushed-down) scan.
	Scan(req ScanRequest) (*ScanResult, error)
	// Statistics returns planning statistics.
	Statistics() Statistics
}

// SchemaProvider is a named collection of tables.
type SchemaProvider interface {
	TableNames() []string
	Table(name string) (TableProvider, bool)
}

// CatalogProvider is a named collection of schemas.
type CatalogProvider interface {
	SchemaNames() []string
	SchemaByName(name string) (SchemaProvider, bool)
}

// stamps issues write stamps. The counter is process-wide, so a stamp is
// never issued twice: a replaced schema or a re-created table cannot
// reproduce a stamp that a cache entry recorded.
var stamps atomic.Uint64

// stamped is a table or schema with the stamp it was given when it was
// last registered or written in place.
type stamped[T any] struct {
	v     T
	stamp uint64
}

func newStamp[T any](v T) stamped[T] { return stamped[T]{v: v, stamp: stamps.Add(1)} }

// MemorySchema is the built-in mutable SchemaProvider. Every table it
// holds carries a write stamp, renewed on each Register of its name and
// each Touch, so caches can check the tables they read one by one.
type MemorySchema struct {
	mu     sync.RWMutex
	tables map[string]stamped[TableProvider]
}

// NewMemorySchema returns an empty schema.
func NewMemorySchema() *MemorySchema {
	return &MemorySchema{tables: map[string]stamped[TableProvider]{}}
}

// Register adds or replaces a table under a fresh stamp.
func (s *MemorySchema) Register(name string, t TableProvider) {
	s.mu.Lock()
	s.tables[strings.ToLower(name)] = newStamp(t)
	s.mu.Unlock()
}

// Deregister removes a table.
func (s *MemorySchema) Deregister(name string) {
	s.mu.Lock()
	delete(s.tables, strings.ToLower(name))
	s.mu.Unlock()
}

// Touch gives a registered table a fresh stamp without replacing it.
// In-place writers (StreamTable appends) call it so that caches over the
// table observe the write.
func (s *MemorySchema) Touch(name string) {
	key := strings.ToLower(name)
	s.mu.Lock()
	if e, ok := s.tables[key]; ok {
		s.tables[key] = newStamp(e.v)
	}
	s.mu.Unlock()
}

// TableNames lists registered tables, sorted.
func (s *MemorySchema) TableNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table looks up a table by name (case-insensitive).
func (s *MemorySchema) Table(name string) (TableProvider, bool) {
	t, _, ok := s.Lookup(name)
	return t, ok
}

// Lookup is Table with the table's write stamp, read together; the stamp
// is 0 when the table does not exist.
func (s *MemorySchema) Lookup(name string) (TableProvider, uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.tables[strings.ToLower(name)]
	return e.v, e.stamp, ok
}

// MemoryCatalog is the built-in mutable CatalogProvider. Each schema
// carries the stamp of its registration.
type MemoryCatalog struct {
	mu      sync.RWMutex
	schemas map[string]stamped[SchemaProvider]
}

// NewMemoryCatalog returns a catalog with an empty "public" schema.
func NewMemoryCatalog() *MemoryCatalog {
	c := &MemoryCatalog{schemas: map[string]stamped[SchemaProvider]{}}
	c.RegisterSchema("public", NewMemorySchema())
	return c
}

// RegisterSchema adds or replaces a schema under a fresh stamp.
func (c *MemoryCatalog) RegisterSchema(name string, s SchemaProvider) {
	c.mu.Lock()
	c.schemas[strings.ToLower(name)] = newStamp(s)
	c.mu.Unlock()
}

// Lookup resolves table in schema. The stamp identifies what was found:
// a MemorySchema table's own write stamp; for any other SchemaProvider,
// whose contents are its own business, the stamp of the schema's
// registration; 0 when the schema does not exist. A table that does not
// exist in an existing MemorySchema also reads 0, so a lookup's stamp
// changes whenever a registration or a write changes what it finds.
func (c *MemoryCatalog) Lookup(schema, table string) (t TableProvider, stamp uint64, schemaFound bool) {
	c.mu.RLock()
	sp, ok := c.schemas[strings.ToLower(schema)]
	c.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	if ms, ok := sp.v.(*MemorySchema); ok {
		t, stamp, _ = ms.Lookup(table)
		return t, stamp, true
	}
	t, _ = sp.v.Table(table)
	return t, sp.stamp, true
}

// SchemaNames lists schemas, sorted.
func (c *MemoryCatalog) SchemaNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.schemas))
	for n := range c.schemas {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SchemaByName looks up a schema (case-insensitive).
func (c *MemoryCatalog) SchemaByName(name string) (SchemaProvider, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.schemas[strings.ToLower(name)]
	return s.v, ok
}

// rowLimit counts a partition's rows down against a pushed-down scan
// limit; a limit <= 0 never runs out.
type rowLimit struct{ left int64 }

func newRowLimit(limit int64) rowLimit {
	if limit <= 0 {
		limit = math.MaxInt64
	}
	return rowLimit{left: limit}
}

// done reports whether the limit is used up.
func (l *rowLimit) done() bool { return l.left == 0 }

// take truncates b to the rows still allowed and charges them.
func (l *rowLimit) take(b *arrow.RecordBatch) *arrow.RecordBatch {
	if int64(b.NumRows()) > l.left {
		b = b.Slice(0, int(l.left))
	}
	l.left -= int64(b.NumRows())
	return b
}

// batchStream adapts a batch slice into a Stream.
type batchStream struct {
	schema  *arrow.Schema
	batches []*arrow.RecordBatch
	pos     int
}

// NewBatchStream wraps pre-materialized batches as a Stream.
func NewBatchStream(schema *arrow.Schema, batches []*arrow.RecordBatch) Stream {
	return &batchStream{schema: schema, batches: batches}
}

func (s *batchStream) Schema() *arrow.Schema { return s.schema }
func (s *batchStream) Close()                {}
func (s *batchStream) Next() (*arrow.RecordBatch, error) {
	if s.pos >= len(s.batches) {
		return nil, io.EOF
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

// MemTable is an in-memory TableProvider over partitioned record batches.
type MemTable struct {
	schema     *arrow.Schema
	partitions [][]*arrow.RecordBatch
	sortOrder  []OrderedCol
	numRows    int64
	// tailRows counts the rows of the last partition, which appends fill
	// up to a batch before starting another.
	tailRows int64
}

// NewMemTable builds a table from one batch list per partition.
func NewMemTable(schema *arrow.Schema, partitions [][]*arrow.RecordBatch) (*MemTable, error) {
	m := &MemTable{schema: schema, partitions: partitions}
	for _, part := range partitions {
		rows, err := m.rowsOf(part)
		if err != nil {
			return nil, err
		}
		m.numRows += rows
		m.tailRows = rows
	}
	return m, nil
}

// rowsOf counts the rows of batches bound for this table, checking that
// each has the table's schema.
func (m *MemTable) rowsOf(batches []*arrow.RecordBatch) (int64, error) {
	var rows int64
	for _, b := range batches {
		if !b.Schema().Equal(m.schema) {
			return 0, fmt.Errorf("catalog: batch schema %s != table schema %s", b.Schema(), m.schema)
		}
		rows += int64(b.NumRows())
	}
	return rows, nil
}

// WithSortOrder declares a known per-partition sort order.
func (m *MemTable) WithSortOrder(order []OrderedCol) *MemTable {
	m.sortOrder = order
	return m
}

// WithAppended returns a new MemTable holding this table's rows followed
// by batches (INSERT semantics: the original table is immutable, so
// in-flight scans keep their snapshot; callers re-register the returned
// table). While the last partition holds fewer than batchRows rows, the
// appended rows are concatenated into it as one new batch; otherwise they
// start a new partition. A table grown by many small appends so keeps
// about one partition of one batch per batchRows rows. Only the appended
// batches are checked, and no batch or partition slice the original
// holds is modified. A known sort order is dropped — the appended rows
// need not respect it.
func (m *MemTable) WithAppended(batches []*arrow.RecordBatch, batchRows int) (*MemTable, error) {
	rows, err := m.rowsOf(batches)
	if err != nil {
		return nil, err
	}
	out := &MemTable{schema: m.schema, numRows: m.numRows + rows, partitions: m.partitions}
	if rows == 0 {
		out.tailRows = m.tailRows
		return out, nil
	}
	last := len(m.partitions) - 1
	if last < 0 || m.tailRows >= int64(batchRows) {
		out.partitions = append(slices.Clip(m.partitions), batches)
		out.tailRows = rows
		return out, nil
	}
	tail, err := compute.ConcatBatches(m.schema, append(slices.Clip(m.partitions[last]), batches...))
	if err != nil {
		return nil, err
	}
	out.partitions = append(m.partitions[:last:last], []*arrow.RecordBatch{tail})
	out.tailRows = m.tailRows + rows
	return out, nil
}

// Schema returns the table schema.
func (m *MemTable) Schema() *arrow.Schema { return m.schema }

// Statistics returns the exact row count.
func (m *MemTable) Statistics() Statistics {
	return Statistics{NumRows: m.numRows, TotalBytes: -1}
}

// Scan implements projection and limit pushdown over in-memory batches.
func (m *MemTable) Scan(req ScanRequest) (*ScanResult, error) {
	outSchema := m.schema
	if req.Projection != nil {
		outSchema = m.schema.Select(req.Projection)
	}
	parts := m.partitions
	if len(parts) == 0 {
		parts = [][]*arrow.RecordBatch{nil}
	}
	// Respect the requested parallelism: a table grown by appends
	// accumulates one partition per batch of rows, but providers may only return
	// *fewer* partitions than asked for, never more.
	// Contiguous grouping keeps each original partition intact; the
	// per-partition sort order claim cannot survive concatenation.
	order := m.sortOrder
	if req.Partitions > 0 && len(parts) > req.Partitions {
		merged := make([][]*arrow.RecordBatch, req.Partitions)
		for i, p := range parts {
			tgt := i * req.Partitions / len(parts)
			merged[tgt] = append(merged[tgt], p...)
		}
		parts = merged
		order = nil
	}
	// Limit pushdown is only sound with no (unapplied) filters.
	limit := req.Limit
	if len(req.Filters) > 0 {
		limit = NoLimit
	}
	return &ScanResult{
		Schema:       outSchema,
		Partitions:   len(parts),
		ExactFilters: make([]bool, len(req.Filters)),
		SortOrder:    order,
		Open: func(p int) (Stream, error) {
			var out []*arrow.RecordBatch
			rows := newRowLimit(limit)
			for _, b := range parts[p] {
				if rows.done() {
					break
				}
				if req.Projection != nil {
					b = b.Project(req.Projection)
				}
				out = append(out, rows.take(b))
			}
			return NewBatchStream(outSchema, out), nil
		},
	}, nil
}

// funcStream adapts a next function into a Stream (for providers that
// synthesize batches on demand).
type funcStream struct {
	schema *arrow.Schema
	next   func() (*arrow.RecordBatch, error)
}

// NewBatchStreamFunc wraps a next callback as a Stream; next returns
// io.EOF when exhausted.
func NewBatchStreamFunc(schema *arrow.Schema, next func() (*arrow.RecordBatch, error)) Stream {
	return &funcStream{schema: schema, next: next}
}

func (s *funcStream) Schema() *arrow.Schema             { return s.schema }
func (s *funcStream) Next() (*arrow.RecordBatch, error) { return s.next() }
func (s *funcStream) Close()                            {}
