package exec

import (
	"fmt"
	"io"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/physical"
)

// PipelineExec runs a fused pipeline segment: a chain of two or more
// push-capable operators compiled into one batch-at-a-time loop per
// worker, with no per-operator stream frames between them (ROADMAP open
// item 2; PAPERS.md "Push vs. Pull-Based Loop Fusion"). It is the
// multi-stage case of runPushers, the driver every Pushable operator's
// own Execute uses for its single stage.
//
// The fused operators keep their original child links (Stages[0]'s
// streamed child is Source; a join stage keeps its build side as its other
// child), and Children returns the top of that chain — so
// EXPLAIN renders the segment as an annotated group with the real
// operators nested beneath, and CheckPlanMetrics walks them unchanged.
type PipelineExec struct {
	physical.OpMetrics
	// Source feeds the segment: a scan or any pipeline breaker's output.
	Source physical.ExecutionPlan
	// Stages are the fused operators bottom-up; each implements
	// physical.Pushable.
	Stages []physical.ExecutionPlan
}

// top returns the head of the fused chain (the node whose schema and
// partitioning the segment presents).
func (e *PipelineExec) top() physical.ExecutionPlan {
	if n := len(e.Stages); n > 0 {
		return e.Stages[n-1]
	}
	return e.Source
}

func (e *PipelineExec) Schema() *arrow.Schema { return e.top().Schema() }
func (e *PipelineExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.top()}
}
func (e *PipelineExec) Partitions() int                      { return e.top().Partitions() }
func (e *PipelineExec) OutputOrdering() []physical.SortField { return e.top().OutputOrdering() }

func (e *PipelineExec) String() string {
	return fmt.Sprintf("PipelineExec: stages=%d", len(e.Stages))
}

// WithChildren rebuilds the segment from a (possibly rewritten) chain
// top by re-extracting the maximal pushable suffix.
func (e *PipelineExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	top, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	source, stages := extractFusedChain(top)
	return &PipelineExec{Source: source, Stages: stages}, nil
}

// extractFusedChain walks down from top collecting the contiguous run of
// push-capable operators along their streamed children; the first
// non-pushable node is the segment source. Stages come back bottom-up.
func extractFusedChain(top physical.ExecutionPlan) (physical.ExecutionPlan, []physical.ExecutionPlan) {
	var rev []physical.ExecutionPlan
	n := top
	for canPush(n) {
		rev = append(rev, n)
		n = streamedChild(n)
	}
	stages := make([]physical.ExecutionPlan, len(rev))
	for i, s := range rev {
		stages[len(rev)-1-i] = s
	}
	return n, stages
}

func canPush(p physical.ExecutionPlan) bool {
	pe, ok := p.(physical.Pushable)
	return ok && pe.CanPush()
}

// streamedIndex is the position in Children() of the input a push stage is
// fed from: the probe (right) side of a join, the only input of every
// other stage.
func streamedIndex(p physical.ExecutionPlan) int {
	if _, join := p.(joinOp); join {
		return 1
	}
	return 0
}

func streamedChild(p physical.ExecutionPlan) physical.ExecutionPlan {
	return p.Children()[streamedIndex(p)]
}

// withStreamedChild rebuilds p over a new streamed input, keeping its other
// children (a join's build side).
func withStreamedChild(p, child physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	children := append([]physical.ExecutionPlan(nil), p.Children()...)
	children[streamedIndex(p)] = child
	return p.WithChildren(children)
}

// Execute runs the segment with per-stage accounting: every stage charges
// its exclusive push time and its output to its own MetricsSet, and the
// segment's metrics cover the whole loop.
func (e *PipelineExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	s, err := runPushers(ctx, partition, e.Schema(), e.Source, e.Stages)
	if err != nil {
		return nil, err
	}
	for i, st := range e.Stages {
		if mp, ok := st.(physical.MetricsProvider); ok {
			s.stages[i].m = mp.Metrics()
		}
	}
	return physical.InstrumentStream(s, e.Metrics()), nil
}

// executePushed is Execute for a Pushable operator running on its own: a
// one-stage loop over its input, instrumented once with the operator's
// metrics so elapsed_compute is inclusive of the input (as for every pull
// operator) and output_rows is counted once. Inside a PipelineExec the
// same operator reports its exclusive time.
func executePushed(ctx *physical.ExecContext, partition int, op interface {
	physical.Pushable
	physical.MetricsProvider
}) (physical.Stream, error) {
	s, err := runPushers(ctx, partition, op.Schema(), streamedChild(op), []physical.ExecutionPlan{op})
	if err != nil {
		return nil, err
	}
	return physical.InstrumentStream(s, op.Metrics()), nil
}

// runPushers opens one partition of source and compiles stages into the
// loop that drives it. The source opens first: a stage that fails to
// compile (a join build over its memory budget) closes it again, which
// tells an exchange below that this output will not be read.
func runPushers(ctx *physical.ExecContext, partition int, schema *arrow.Schema,
	source physical.ExecutionPlan, stages []physical.ExecutionPlan) (*fusedStream, error) {

	src, err := source.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	fused := make([]*fusedStage, len(stages))
	for i, st := range stages {
		push, ok := st.(physical.Pushable)
		if !ok {
			src.Close()
			closeStages(fused[:i])
			return nil, fmt.Errorf("exec: fused stage %T is not pushable (optimizer bug)", st)
		}
		pusher, err := push.PushInto(ctx, partition)
		if err != nil {
			src.Close()
			closeStages(fused[:i])
			return nil, err
		}
		fs := &fusedStage{pusher: pusher}
		fs.emit = fs.collect
		fused[i] = fs
	}
	return &fusedStream{schema: schema, ctx: ctx, src: src, stages: fused}, nil
}

func closeStages(stages []*fusedStage) {
	for _, st := range stages {
		st.pusher.Close()
	}
}

// fusedStage is one operator's per-partition state inside a fused loop.
type fusedStage struct {
	pusher physical.Pusher
	// m is the operator's own MetricsSet inside a PipelineExec; nil when
	// the operator runs alone and its whole stream is instrumented instead.
	m    *physical.MetricsSet
	emit physical.EmitFn
	// buf collects the batches emitted by the current Push/Flush round;
	// the driver hands it to the next stage after the call returns.
	buf []*arrow.RecordBatch
	// done marks that the operator will never emit again (limit
	// satisfied); the driver stops feeding the pipeline.
	done bool
}

// collect is the stage's EmitFn: it counts output into the operator's
// own MetricsSet — preserving per-operator pull-mode accounting inside
// the fused loop — and buffers the batch for the next stage.
func (st *fusedStage) collect(b *arrow.RecordBatch) error {
	if b == nil || b.NumRows() == 0 {
		return nil
	}
	if st.m != nil {
		st.m.AddOutput(int64(b.NumRows()))
	}
	st.buf = append(st.buf, b)
	return nil
}

// fusedStream drives a fused segment for one worker: pull a source
// batch, cascade it through every stage in-line, and hand the chain's
// outputs to the consumer. There are no goroutines or channels between
// stages; each stage's compute time accrues to its own operator.
type fusedStream struct {
	schema *arrow.Schema
	ctx    *physical.ExecContext
	src    physical.Stream
	stages []*fusedStage
	// out[head:] are the chain's outputs not yet handed to the consumer.
	out  []*arrow.RecordBatch
	head int
	// pending[pendHead:] are the Flush output of stages[flushAt-1] not yet
	// cascaded through the stages above it; flushAt is the next stage to
	// flush once the source is done.
	pending  []*arrow.RecordBatch
	pendHead int
	flushAt  int
	// one is process's single-batch input, kept here so that the per-batch
	// loop allocates nothing of its own.
	one     [1]*arrow.RecordBatch
	srcDone bool
	closed  bool
}

func (s *fusedStream) Schema() *arrow.Schema { return s.schema }

func (s *fusedStream) Next() (*arrow.RecordBatch, error) {
	for {
		// A cancelled query fails at its next read, also while a breaker's
		// Flush output is still queued.
		if err := checkCancel(s.ctx); err != nil {
			return nil, err
		}
		if s.head < len(s.out) {
			b := s.out[s.head]
			s.out[s.head] = nil
			s.head++
			return b, nil
		}
		s.out, s.head = s.out[:0], 0
		if s.srcDone {
			drained, err := s.flushStep()
			if err != nil {
				return nil, err
			}
			if drained {
				return nil, io.EOF
			}
			continue
		}
		b, err := s.src.Next()
		if err == io.EOF {
			s.srcDone = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if b.NumRows() == 0 {
			continue
		}
		if err := s.process(0, b); err != nil {
			return nil, err
		}
	}
}

// process cascades one batch through stages[from:], appending whatever
// survives the full chain to the output queue. When a stage reports
// done, the source stops and batches bound for that stage are dropped —
// batches it already emitted still flow downstream.
func (s *fusedStream) process(from int, b *arrow.RecordBatch) error {
	s.one[0] = b
	in := s.one[:]
	for i := from; i < len(s.stages); i++ {
		st := s.stages[i]
		if st.done || len(in) == 0 {
			return nil
		}
		st.buf = st.buf[:0]
		start := st.startTimer()
		for _, ib := range in {
			done, err := st.pusher.Push(ib, st.emit)
			if err != nil {
				st.addElapsed(start)
				return err
			}
			if done {
				st.done = true
				s.srcDone = true
				break
			}
		}
		st.addElapsed(start)
		in = st.buf
	}
	s.out = append(s.out, in...)
	return nil
}

// flushStep drains buffered stage state after the source is exhausted (or
// a limit fired), one step per call: it cascades the next queued Flush
// batch through the stages above the one that emitted it or, with none
// queued, flushes the next stage. Stages flush bottom-up, each after the
// output of the ones below has passed through it, preserving batch order;
// a breaker's Flush output (an aggregate's groups) reaches the consumer
// one batch per Next, so the stages above never hold all of it at once.
// It reports true once every stage has flushed and nothing is queued.
func (s *fusedStream) flushStep() (bool, error) {
	if s.pendHead < len(s.pending) {
		b := s.pending[s.pendHead]
		s.pending[s.pendHead] = nil
		s.pendHead++
		return false, s.process(s.flushAt, b)
	}
	if s.flushAt == len(s.stages) {
		return true, nil
	}
	st := s.stages[s.flushAt]
	s.flushAt++
	if st.done {
		return false, nil
	}
	st.buf = st.buf[:0]
	start := st.startTimer()
	err := st.pusher.Flush(st.emit)
	st.addElapsed(start)
	// Nothing pushes into a flushed stage again, so its buffer is handed
	// over as the queue.
	s.pending, s.pendHead, st.buf = st.buf, 0, nil
	return false, err
}

// startTimer reads the clock only for a stage that accounts its own time.
func (st *fusedStage) startTimer() (start time.Time) {
	if st.m != nil {
		start = time.Now()
	}
	return start
}

func (st *fusedStage) addElapsed(start time.Time) {
	if st.m != nil {
		st.m.AddElapsed(time.Since(start))
	}
}

func (s *fusedStream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	s.src.Close()
	for _, st := range s.stages {
		st.pusher.Close()
	}
}
