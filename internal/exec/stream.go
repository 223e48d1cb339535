// Package exec implements the streaming execution engine (paper Section
// 5.5): partitioned operators exchanging arrow RecordBatches. Streaming
// operators, every aggregation — two-phase partitioned hash grouping,
// ordered grouping and watermark aggregation — and the hash join probe are
// Pushers run by the one driver loop in pipeline.go, alone or fused with
// their neighbours; scans schedule their own morsels; the other pipeline
// breakers are pull streams: Volcano-style repartitioning across
// goroutines, external sort with spilling, top-k, merge / nested loop /
// symmetric joins and window evaluation. The package also holds the physical planner and optimizer
// that lower logical plans onto these operators.
package exec

import (
	"fmt"
	"io"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/physical"
)

// funcStream adapts next/close functions into a Stream.
type funcStream struct {
	schema *arrow.Schema
	next   func() (*arrow.RecordBatch, error)
	close  func()
	closed bool
}

// NewFuncStream builds a Stream from callbacks; close may be nil.
func NewFuncStream(schema *arrow.Schema, next func() (*arrow.RecordBatch, error), close func()) physical.Stream {
	return &funcStream{schema: schema, next: next, close: close}
}

func (s *funcStream) Schema() *arrow.Schema { return s.schema }
func (s *funcStream) Next() (*arrow.RecordBatch, error) {
	return s.next()
}
func (s *funcStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.close != nil {
		s.close()
	}
}

// batchOrErr travels through exchange channels. A hash exchange sends each
// batch with its rows' hashes.
type batchOrErr struct {
	batch  *arrow.RecordBatch
	hashes []uint64
	err    error
}

// chanStream reads batches from a channel fed by producer goroutines.
type chanStream struct {
	schema *arrow.Schema
	ctx    *physical.ExecContext
	ch     <-chan batchOrErr
	stop   func()
	done   bool
	// drained is bumped when the channel is read to its close without a
	// cancel: the consumer saw everything the producers sent.
	drained *physical.Counter
	// last is where the stream keeps the batch it delivered last, with its
	// hashes, for the consumer to ask after (exchange.hashesOf).
	last *batchOrErr
}

func (s *chanStream) Schema() *arrow.Schema { return s.schema }
func (s *chanStream) Next() (*arrow.RecordBatch, error) {
	if s.done {
		return nil, io.EOF
	}
	// A cancelled query fails at its next read, even with batches buffered.
	if err := checkCancel(s.ctx); err != nil {
		s.done = true
		return nil, err
	}
	be, ok := <-s.ch
	if !ok {
		s.done, s.ch = true, nil
		// Producers that give up on cancellation close the channel too: a
		// cancelled exchange must not pass for a complete one.
		if err := checkCancel(s.ctx); err != nil {
			return nil, err
		}
		s.drained.Add(1)
		return nil, io.EOF
	}
	if be.err != nil {
		s.done = true
		return nil, be.err
	}
	*s.last = be
	return be.batch, nil
}
func (s *chanStream) Close() {
	if s.stop != nil {
		s.stop()
	}
	// Drain so producers unblock, unless the channel was read to its close.
	if ch := s.ch; ch != nil {
		go func() {
			for range ch {
			}
		}()
	}
	s.done = true
}

// drainAll pulls every batch from a stream.
func drainAll(s physical.Stream) ([]*arrow.RecordBatch, error) {
	defer s.Close()
	var out []*arrow.RecordBatch
	for {
		b, err := s.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if b.NumRows() > 0 {
			out = append(out, b)
		}
	}
}

// CollectPlan executes every partition of a plan concurrently and returns
// all batches.
func CollectPlan(ctx *physical.ExecContext, plan physical.ExecutionPlan) ([]*arrow.RecordBatch, error) {
	n := plan.Partitions()
	if n == 1 {
		s, err := plan.Execute(ctx, 0)
		if err != nil {
			return nil, err
		}
		return drainAll(s)
	}
	results := make([][]*arrow.RecordBatch, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s, err := plan.Execute(ctx, p)
			if err != nil {
				errs[p] = err
				return
			}
			results[p], errs[p] = drainAll(s)
		}(p)
	}
	wg.Wait()
	var out []*arrow.RecordBatch
	for p := 0; p < n; p++ {
		if errs[p] != nil {
			return nil, errs[p]
		}
		out = append(out, results[p]...)
	}
	return out, nil
}

// CollectBatch executes a plan and concatenates the result into one batch.
func CollectBatch(ctx *physical.ExecContext, plan physical.ExecutionPlan) (*arrow.RecordBatch, error) {
	batches, err := CollectPlan(ctx, plan)
	if err != nil {
		return nil, err
	}
	return compute.ConcatBatches(plan.Schema(), batches)
}

// emptyStream is a stream without batches.
func emptyStream(schema *arrow.Schema) physical.Stream {
	return NewFuncStream(schema, func() (*arrow.RecordBatch, error) { return nil, io.EOF }, nil)
}

// batchRows is the row count operators cut their output batches to.
func batchRows(ctx *physical.ExecContext) int {
	if ctx.BatchRows <= 0 {
		return 8192
	}
	return ctx.BatchRows
}

// sliceNext hands b out as zero-copy slices of batchRows rows, then io.EOF.
func sliceNext(ctx *physical.ExecContext, b *arrow.RecordBatch) func() (*arrow.RecordBatch, error) {
	pos := 0
	return func() (*arrow.RecordBatch, error) {
		if pos >= b.NumRows() {
			return nil, io.EOF
		}
		n := min(batchRows(ctx), b.NumRows()-pos)
		out := b.Slice(pos, n)
		pos += n
		return out, nil
	}
}

// forEachBatch reads in to its end, handing every non-empty batch to fn and
// checking for cancellation before each read.
func forEachBatch(ctx *physical.ExecContext, in physical.Stream, fn func(*arrow.RecordBatch) error) error {
	for {
		if err := checkCancel(ctx); err != nil {
			return err
		}
		b, err := in.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if b.NumRows() > 0 {
			if err := fn(b); err != nil {
				return err
			}
		}
	}
}

// ctxDoneChan returns the context's cancellation channel, or nil (which
// blocks forever in a select) when the query has no context.
func ctxDoneChan(ctx *physical.ExecContext) <-chan struct{} {
	if ctx.Ctx == nil {
		return nil
	}
	return ctx.Ctx.Done()
}

func checkCancel(ctx *physical.ExecContext) error {
	if ctx.Ctx == nil {
		return nil
	}
	select {
	case <-ctx.Ctx.Done():
		return ctx.Ctx.Err()
	default:
		return nil
	}
}

func oneChild(children []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(children) != 1 {
		return nil, fmt.Errorf("exec: expected 1 child, got %d", len(children))
	}
	return children[0], nil
}
