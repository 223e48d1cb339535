package catalog

import (
	"context"
	"fmt"
	"io"
	"sync"

	"gofusion/internal/arrow"
)

// StreamTable is an append-only in-memory table serving the streaming
// workload class: writers Append batches over time, readers tail the log
// with scans that block awaiting new data instead of returning io.EOF.
// A scan prepared before Seal is unbounded (its streams only terminate on
// cancellation or a later Seal); after Seal the table behaves like a
// bounded single-partition MemTable. All methods are safe for concurrent
// use; batch data itself is immutable once appended.
type StreamTable struct {
	mu      sync.Mutex
	schema  *arrow.Schema
	batches []*arrow.RecordBatch
	numRows int64
	sealed  bool
	// notify is closed-and-replaced on every append/seal so blocked tail
	// streams wake up (broadcast semantics without per-reader channels).
	notify chan struct{}
	// watermark is the 0-based schema index of the declared event-time
	// column, -1 when none.
	watermark int
	// onWrite lets the owning session renew the table's write stamp, so
	// in-place appends invalidate the caches over it.
	onWrite func()
}

// NewStreamTable returns an empty unbounded table.
func NewStreamTable(schema *arrow.Schema) *StreamTable {
	return &StreamTable{schema: schema, notify: make(chan struct{}), watermark: -1}
}

// WithWatermark declares the event-time column driving streaming
// aggregation. The column must exist and carry an integer-family type
// (ints, date, timestamp) so watermark comparisons are exact.
func (t *StreamTable) WithWatermark(col string) (*StreamTable, error) {
	idx := t.schema.FieldIndex(col)
	if idx < 0 {
		return nil, fmt.Errorf("catalog: watermark column %q not in schema", col)
	}
	switch t.schema.Field(idx).Type.ID {
	case arrow.INT8, arrow.INT16, arrow.INT32, arrow.INT64,
		arrow.UINT8, arrow.UINT16, arrow.UINT32, arrow.UINT64,
		arrow.DATE32, arrow.TIMESTAMP:
	default:
		return nil, fmt.Errorf("catalog: watermark column %q must be integer, date, or timestamp typed, got %s",
			col, t.schema.Field(idx).Type)
	}
	t.watermark = idx
	return t, nil
}

// OnWrite registers a callback invoked after every successful Append or
// Seal (outside the table lock). Sessions use it to renew the table's
// write stamp, so cached plans and results over it invalidate.
func (t *StreamTable) OnWrite(fn func()) { t.onWrite = fn }

// Append adds batches to the log and wakes blocked tail readers.
func (t *StreamTable) Append(batches ...*arrow.RecordBatch) error {
	t.mu.Lock()
	if t.sealed {
		t.mu.Unlock()
		return fmt.Errorf("catalog: append to sealed stream table")
	}
	for _, b := range batches {
		if !b.Schema().Equal(t.schema) {
			t.mu.Unlock()
			return fmt.Errorf("catalog: batch schema %s != stream schema %s", b.Schema(), t.schema)
		}
	}
	for _, b := range batches {
		if b.NumRows() == 0 {
			continue
		}
		t.batches = append(t.batches, b)
		t.numRows += int64(b.NumRows())
	}
	t.broadcastLocked()
	t.mu.Unlock()
	if t.onWrite != nil {
		t.onWrite()
	}
	return nil
}

// Seal marks the end of the stream: tail readers drain the remaining
// batches and then see io.EOF, and future scans are bounded. Idempotent.
func (t *StreamTable) Seal() {
	t.mu.Lock()
	already := t.sealed
	t.sealed = true
	t.broadcastLocked()
	t.mu.Unlock()
	if !already && t.onWrite != nil {
		t.onWrite()
	}
}

// broadcastLocked wakes every blocked reader. Callers hold t.mu.
func (t *StreamTable) broadcastLocked() {
	close(t.notify)
	t.notify = make(chan struct{})
}

// Sealed reports whether the stream has ended.
func (t *StreamTable) Sealed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sealed
}

// Rows returns the number of rows appended so far.
func (t *StreamTable) Rows() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.numRows
}

// Schema returns the table schema.
func (t *StreamTable) Schema() *arrow.Schema { return t.schema }

// Statistics reports the exact row count once sealed. While the stream is
// live the count is only a snapshot of an unbounded input, so it reports
// unknown: a heuristic that trusted it could elect the stream as a hash
// build side (join ordering builds on the smaller input), which can never
// finish building.
func (t *StreamTable) Statistics() Statistics {
	if !t.Sealed() {
		return UnknownStats()
	}
	return Statistics{NumRows: t.Rows(), TotalBytes: -1}
}

// Scan prepares a tailing read. Projection is applied per batch; filters
// are left to the engine (ExactFilters all false); limit pushdown applies
// only when no filters are present. The result is unbounded iff the table
// is not yet sealed at scan time — in-flight tail streams still honor a
// later Seal.
func (t *StreamTable) Scan(req ScanRequest) (*ScanResult, error) {
	outSchema := t.schema
	if req.Projection != nil {
		outSchema = t.schema.Select(req.Projection)
	}
	limit := req.Limit
	if len(req.Filters) > 0 {
		limit = NoLimit
	}
	wm := 0
	if t.watermark >= 0 {
		if req.Projection == nil {
			wm = t.watermark + 1
		} else {
			for i, c := range req.Projection {
				if c == t.watermark {
					wm = i + 1
					break
				}
			}
		}
	}
	unbounded := !t.Sealed()
	return &ScanResult{
		Schema:       outSchema,
		Partitions:   1,
		ExactFilters: make([]bool, len(req.Filters)),
		Unbounded:    unbounded,
		Watermark:    wm,
		Detail:       "tail",
		Open: func(p int) (Stream, error) {
			return &tailStream{t: t, schema: outSchema, proj: req.Projection, rows: newRowLimit(limit)}, nil
		},
	}, nil
}

// tailStream reads the table log from the start and then blocks for more
// data until the table seals or the bound query context is cancelled.
type tailStream struct {
	t      *StreamTable
	schema *arrow.Schema
	proj   []int
	pos    int
	rows   rowLimit
	ctx    context.Context
	closed bool
}

// BindContext attaches the query context so blocked reads cancel.
func (s *tailStream) BindContext(ctx context.Context) { s.ctx = ctx }

func (s *tailStream) Schema() *arrow.Schema { return s.schema }
func (s *tailStream) Close()                { s.closed = true }

func (s *tailStream) Next() (*arrow.RecordBatch, error) {
	if s.closed || s.rows.done() {
		return nil, io.EOF
	}
	var done <-chan struct{}
	if s.ctx != nil {
		done = s.ctx.Done()
	}
	for {
		s.t.mu.Lock()
		if s.pos < len(s.t.batches) {
			b := s.t.batches[s.pos]
			s.pos++
			s.t.mu.Unlock()
			if s.proj != nil {
				b = b.Project(s.proj)
			}
			return s.rows.take(b), nil
		}
		if s.t.sealed {
			s.t.mu.Unlock()
			return nil, io.EOF
		}
		notify := s.t.notify
		s.t.mu.Unlock()
		// Block until a writer appends/seals or the query is cancelled. A
		// nil done channel blocks forever on that arm, which is correct for
		// engine-driven reads: the engine always binds its query context.
		select {
		case <-notify:
		case <-done:
			return nil, s.ctx.Err()
		}
	}
}
