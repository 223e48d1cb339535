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
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gofusion/internal/arrow"
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

// NoLimit is the ScanRequest.Limit value for an unbounded scan. The
// Limit zero value means "return 0 rows" — a scan request built without
// an explicit Limit silently yields nothing (the COPY INTO staging path
// shipped exactly this bug). The scanlimit analyzer rejects ScanRequest
// literals that omit the field.
const NoLimit int64 = -1

// ScanRequest carries pushdown information into a provider scan.
type ScanRequest struct {
	// Projection selects provider-schema column indexes; nil means all.
	Projection []int
	// Filters are conjuncts the provider may apply (fully, partially, or
	// not at all); ScanResult.ExactFilters reports which were exact.
	Filters []logical.Expr
	// Limit stops the scan after this many rows; NoLimit (-1) for none.
	// The zero value means 0 rows, so literals must set it explicitly
	// (enforced by the scanlimit analyzer). Only valid when every filter
	// is applied exactly.
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
	// most once.
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
	// Morsels, when non-nil, exposes the scan as dynamically schedulable
	// units so the engine can replace the static per-partition Open split
	// with a shared work queue drained by all workers (morsel-driven
	// scheduling). Providers only publish it when the output is unordered,
	// since workers interleave units arbitrarily.
	Morsels *MorselSet
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

// MorselSet describes the dynamically schedulable units of a scan: finer
// grained than partitions (typically one or a few row groups each) so
// that workers finishing early steal remaining units instead of idling
// behind a static row-balanced deal that mispredicts per-unit cost.
type MorselSet struct {
	// Rows[i] estimates unit i's row count (footer counts for files).
	// Units are ordered largest-first so long units start earliest.
	Rows []int64
	// Open starts reading one unit. Each unit may be opened at most once;
	// distinct units may be opened from different goroutines.
	Open func(unit int) (Stream, error)
}

// Units returns the number of schedulable units.
func (m *MorselSet) Units() int { return len(m.Rows) }

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

// MemorySchema is the built-in mutable SchemaProvider.
type MemorySchema struct {
	mu      sync.RWMutex
	tables  map[string]TableProvider
	version atomic.Int64
}

// NewMemorySchema returns an empty schema.
func NewMemorySchema() *MemorySchema {
	return &MemorySchema{tables: map[string]TableProvider{}}
}

// Register adds or replaces a table, bumping the schema version.
func (s *MemorySchema) Register(name string, t TableProvider) {
	s.mu.Lock()
	s.tables[strings.ToLower(name)] = t
	s.mu.Unlock()
	s.version.Add(1)
}

// Deregister removes a table, bumping the schema version.
func (s *MemorySchema) Deregister(name string) {
	s.mu.Lock()
	delete(s.tables, strings.ToLower(name))
	s.mu.Unlock()
	s.version.Add(1)
}

// Version is a counter bumped on every Register/Deregister; caches keyed
// on it are invalidated by any table change in this schema.
func (s *MemorySchema) Version() int64 { return s.version.Load() }

// BumpVersion advances the schema version without changing registrations.
// In-place writers (StreamTable appends, GPQ file appends) call it so
// version-keyed caches observe the mutation.
func (s *MemorySchema) BumpVersion() { s.version.Add(1) }

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
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// MemoryCatalog is the built-in mutable CatalogProvider.
type MemoryCatalog struct {
	mu      sync.RWMutex
	schemas map[string]SchemaProvider
	version atomic.Int64
}

// NewMemoryCatalog returns a catalog with an empty "public" schema.
func NewMemoryCatalog() *MemoryCatalog {
	c := &MemoryCatalog{schemas: map[string]SchemaProvider{}}
	c.RegisterSchema("public", NewMemorySchema())
	return c
}

// RegisterSchema adds or replaces a schema, bumping the catalog version.
func (c *MemoryCatalog) RegisterSchema(name string, s SchemaProvider) {
	c.mu.Lock()
	c.schemas[strings.ToLower(name)] = s
	c.mu.Unlock()
	c.version.Add(1)
}

// Version summarizes catalog state for cache invalidation: the catalog's
// own registration counter plus every versioned schema's counter, so a
// table registered, replaced, or dropped anywhere changes the value.
func (c *MemoryCatalog) Version() int64 {
	v := c.version.Load()
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, s := range c.schemas {
		if vs, ok := s.(interface{ Version() int64 }); ok {
			v += vs.Version()
		}
	}
	return v
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
	return s, ok
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
}

// NewMemTable builds a table from one batch list per partition.
func NewMemTable(schema *arrow.Schema, partitions [][]*arrow.RecordBatch) (*MemTable, error) {
	var rows int64
	for _, part := range partitions {
		for _, b := range part {
			if !b.Schema().Equal(schema) {
				return nil, fmt.Errorf("catalog: batch schema %s != table schema %s", b.Schema(), schema)
			}
			rows += int64(b.NumRows())
		}
	}
	return &MemTable{schema: schema, partitions: partitions, numRows: rows}, nil
}

// WithSortOrder declares a known per-partition sort order.
func (m *MemTable) WithSortOrder(order []OrderedCol) *MemTable {
	m.sortOrder = order
	return m
}

// WithAppended returns a new MemTable sharing this table's partitions
// plus batches as one more partition (INSERT semantics: the original
// table is immutable, so in-flight scans keep their snapshot; callers
// re-register the returned table). A known sort order is dropped — the
// appended rows need not respect it.
func (m *MemTable) WithAppended(batches []*arrow.RecordBatch) (*MemTable, error) {
	parts := make([][]*arrow.RecordBatch, 0, len(m.partitions)+1)
	parts = append(parts, m.partitions...)
	if len(batches) > 0 {
		parts = append(parts, batches)
	}
	return NewMemTable(m.schema, parts)
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
	// Respect the requested parallelism: a table grown by repeated appends
	// accumulates one partition per INSERT, but providers may only return
	// *fewer* partitions than asked for, never more (a CollectLeft join
	// under TargetPartitions=1 relies on a single probe partition).
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
		limit = -1
	}
	return &ScanResult{
		Schema:       outSchema,
		Partitions:   len(parts),
		ExactFilters: make([]bool, len(req.Filters)),
		SortOrder:    order,
		Open: func(p int) (Stream, error) {
			src := parts[p]
			var out []*arrow.RecordBatch
			var taken int64
			for _, b := range src {
				if req.Projection != nil {
					b = b.Project(req.Projection)
				}
				if limit >= 0 {
					if taken >= limit {
						break
					}
					if taken+int64(b.NumRows()) > limit {
						b = b.Slice(0, int(limit-taken))
					}
				}
				taken += int64(b.NumRows())
				out = append(out, b)
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
