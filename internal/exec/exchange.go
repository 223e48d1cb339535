package exec

import (
	"io"
	"sync"
	"sync/atomic"

	"gofusion/internal/arrow"
	"gofusion/internal/physical"
)

// exchange is the goroutine boundary shared by RepartitionExec and
// CoalescePartitionsExec: one producer goroutine per input partition
// routes batches into bounded output channels, each read by one chanStream.
type exchange struct {
	outputs []chan batchOrErr
	// abandoned[p] is closed when output p's consumer closes its stream;
	// producers stop delivering to that output instead of blocking forever
	// on a channel nobody drains.
	abandoned []chan struct{}
	stopOnce  []sync.Once
	// live counts the outputs not yet abandoned; producers stop reading
	// their input when it reaches zero.
	live    atomic.Int32
	ctxDone <-chan struct{}
	// drained counts the outputs whose consumer read them to the end. Once
	// it equals len(outputs) no row was dropped on the way — no limit, error
	// or cancel made a consumer walk away — and every count is final.
	drained *physical.Counter
	// last[p] is the value output p's stream delivered last; only the
	// goroutine reading output p touches it.
	last []batchOrErr
}

// startExchange launches one producer per partition of input. router
// builds each producer's routing function, which delivers a non-empty
// batch through send; an error from it fails every output. The output
// channels are closed once all producers have returned. m is the owning
// operator's metrics, where the exchange publishes outputs_drained.
func startExchange(ctx *physical.ExecContext, input physical.ExecutionPlan, outs, depth int, m *physical.MetricsSet,
	router func(x *exchange, p int) func(*arrow.RecordBatch) error) *exchange {

	x := &exchange{
		outputs:   make([]chan batchOrErr, outs),
		abandoned: make([]chan struct{}, outs),
		stopOnce:  make([]sync.Once, outs),
		ctxDone:   ctxDoneChan(ctx),
		drained:   m.Counter("outputs_drained"),
		last:      make([]batchOrErr, outs),
	}
	x.live.Store(int32(outs))
	for i := range x.outputs {
		x.outputs[i] = make(chan batchOrErr, depth)
		x.abandoned[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for p := 0; p < input.Partitions(); p++ {
		wg.Add(1)
		ctx.Go(func() {
			defer wg.Done()
			x.produce(ctx, input, p, router(x, p))
		})
	}
	ctx.Go(func() {
		wg.Wait()
		for _, ch := range x.outputs {
			close(ch)
		}
	})
	return x
}

func (x *exchange) produce(ctx *physical.ExecContext, input physical.ExecutionPlan, p int, route func(*arrow.RecordBatch) error) {
	s, err := input.Execute(ctx, p)
	if err != nil {
		x.fanError(err)
		return
	}
	defer s.Close()
	for x.live.Load() > 0 {
		if err := checkCancel(ctx); err != nil {
			x.fanError(err)
			return
		}
		b, err := s.Next()
		if err == io.EOF {
			return
		}
		if err == nil && b.NumRows() > 0 {
			err = route(b)
		}
		if err != nil {
			x.fanError(err)
			return
		}
	}
}

// send delivers v to output p, giving up when that output's consumer has
// closed its stream or the query is cancelled. Reports whether the value
// was delivered.
func (x *exchange) send(p int, v batchOrErr) bool {
	select {
	case x.outputs[p] <- v:
		return true
	case <-x.abandoned[p]:
		return false
	case <-x.ctxDone:
		return false
	}
}

func (x *exchange) fanError(err error) {
	for p := range x.outputs {
		x.send(p, batchOrErr{err: err})
	}
}

// stream returns output p's consumer side; closing it abandons the output.
func (x *exchange) stream(ctx *physical.ExecContext, schema *arrow.Schema, p int) physical.Stream {
	stop := func() {
		x.stopOnce[p].Do(func() {
			x.live.Add(-1)
			close(x.abandoned[p])
		})
	}
	return &chanStream{schema: schema, ctx: ctx, ch: x.outputs[p], stop: stop, drained: x.drained, last: &x.last[p]}
}

// hashesOf returns the row hashes sent with b when b is the batch output p
// delivered last, else nil. The consumer of output p calls it from the
// goroutine that reads the output.
func (x *exchange) hashesOf(p int, b *arrow.RecordBatch) []uint64 {
	if last := x.last[p]; last.batch == b {
		return last.hashes
	}
	return nil
}
