package core

import (
	"context"

	"gofusion/internal/arrow"
	"gofusion/internal/exec"
	"gofusion/internal/physical"
)

// QueryStream is a live pull-based query result: batches arrive as the
// sources produce them, which for unbounded (tailing) sources means Next
// blocks awaiting data instead of ending. Close cancels the query context
// — unblocking any tail read — and releases the per-query runtime; it is
// idempotent and must be called exactly once when done. Collect-style
// execution and the result cache are bypassed: a live stream's output is
// not a cacheable value.
type QueryStream struct {
	stream physical.Stream
	// cleanup cancels the query context and releases the runtime.
	cleanup func()
	closed  bool
}

// Schema returns the result schema.
func (qs *QueryStream) Schema() *arrow.Schema { return qs.stream.Schema() }

// Next returns the next batch; io.EOF after the last one (for unbounded
// sources: only after every source seals), or the context error when the
// query is cancelled.
func (qs *QueryStream) Next() (*arrow.RecordBatch, error) { return qs.stream.Next() }

// Close cancels the query and releases its runtime.
func (qs *QueryStream) Close() {
	if qs.closed {
		return
	}
	qs.closed = true
	qs.stream.Close()
	qs.cleanup()
}

// Execute starts the frame as a live stream under the given context:
// the incremental counterpart to Collect for streaming queries. Multiple
// output partitions are merged into one stream. Cancelling ctx (or calling
// Close) unblocks tail reads waiting on live sources.
func (df *DataFrame) Execute(ctx context.Context) (*QueryStream, error) {
	if df.err != nil {
		return nil, df.err
	}
	pp, err := df.session.physicalPlanFor(df)
	if err != nil {
		return nil, err
	}
	if pp.Partitions() > 1 {
		pp = &exec.CoalescePartitionsExec{Input: pp}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ectx, cleanup := df.session.newExecContext(ctx)
	s, err := pp.Execute(ectx, 0)
	if err != nil {
		cleanup()
		return nil, err
	}
	return &QueryStream{stream: s, cleanup: cleanup}, nil
}
