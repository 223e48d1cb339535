package exec

import (
	"fmt"
	"io"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/physical"
)

// PartitionScheme selects how RepartitionExec routes rows.
type PartitionScheme int

// Partitioning schemes.
const (
	RoundRobinPartitioning PartitionScheme = iota
	HashPartitioning
)

// RepartitionExec is the Volcano-style exchange operator (paper Section
// 5.5): it redistributes N input partitions into M output partitions,
// decoupling producer and consumer parallelism. Hash partitioning routes
// rows by key hash so equal keys meet in the same partition.
type RepartitionExec struct {
	physical.OpMetrics
	Input  physical.ExecutionPlan
	Scheme PartitionScheme
	// HashExprs are the partitioning keys for HashPartitioning.
	HashExprs []physical.PhysicalExpr
	// NumParts is the output partition count.
	NumParts int

	mu      sync.Mutex
	started bool
	outputs []chan batchOrErr
	// abandoned[p] is closed when output partition p's consumer closes its
	// stream; producers stop delivering to that partition instead of
	// blocking forever on a channel nobody drains.
	abandoned []chan struct{}
	stopOnce  []sync.Once
	ctxDone   <-chan struct{}
}

func (e *RepartitionExec) Schema() *arrow.Schema { return e.Input.Schema() }
func (e *RepartitionExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *RepartitionExec) Partitions() int { return e.NumParts }
func (e *RepartitionExec) OutputOrdering() []physical.SortField {
	return nil
}
func (e *RepartitionExec) String() string {
	if e.Scheme == HashPartitioning {
		return fmt.Sprintf("RepartitionExec: hash(%d exprs) into %d", len(e.HashExprs), e.NumParts)
	}
	return fmt.Sprintf("RepartitionExec: round-robin into %d", e.NumParts)
}
func (e *RepartitionExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &RepartitionExec{Input: c, Scheme: e.Scheme, HashExprs: e.HashExprs, NumParts: e.NumParts}, nil
}

// start launches one producer goroutine per input partition; each routes
// its rows into the output channels.
func (e *RepartitionExec) start(ctx *physical.ExecContext) {
	depth := ctx.ExchangeBufferDepth()
	e.outputs = make([]chan batchOrErr, e.NumParts)
	e.abandoned = make([]chan struct{}, e.NumParts)
	e.stopOnce = make([]sync.Once, e.NumParts)
	e.ctxDone = ctxDoneChan(ctx)
	for i := range e.outputs {
		e.outputs[i] = make(chan batchOrErr, depth)
		e.abandoned[i] = make(chan struct{})
	}
	n := e.Input.Partitions()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			e.produce(ctx, p)
		}(p)
	}
	go func() {
		wg.Wait()
		for _, ch := range e.outputs {
			close(ch)
		}
	}()
}

// send delivers v to output partition p, giving up when that partition's
// consumer has closed its stream or the query is cancelled. Reports
// whether the value was delivered.
func (e *RepartitionExec) send(p int, v batchOrErr) bool {
	select {
	case e.outputs[p] <- v:
		return true
	case <-e.abandoned[p]:
		return false
	case <-e.ctxDone:
		return false
	}
}

func (e *RepartitionExec) fanError(err error) {
	for p := range e.outputs {
		e.send(p, batchOrErr{err: err})
	}
}

func (e *RepartitionExec) produce(ctx *physical.ExecContext, p int) {
	s, err := e.Input.Execute(ctx, p)
	if err != nil {
		e.fanError(err)
		return
	}
	defer s.Close()
	sent := e.Metrics().Counter("batches_sent")
	rr := p % e.NumParts
	// Hash buffer reused across batches: the same compute.HashBatch
	// kernels drive aggregation group tables and join build/probe, so all
	// three hash consumers agree on row hashes.
	var hashBuf []uint64
	for {
		if err := checkCancel(ctx); err != nil {
			e.fanError(err)
			return
		}
		b, err := s.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			e.fanError(err)
			return
		}
		if b.NumRows() == 0 {
			continue
		}
		switch e.Scheme {
		case RoundRobinPartitioning:
			if e.send(rr, batchOrErr{batch: b}) {
				sent.Add(1)
			}
			rr = (rr + 1) % e.NumParts
		case HashPartitioning:
			parts, buf, err := e.splitByHash(b, hashBuf)
			hashBuf = buf
			if err != nil {
				e.fanError(err)
				return
			}
			for i, pb := range parts {
				if pb != nil && pb.NumRows() > 0 {
					if e.send(i, batchOrErr{batch: pb}) {
						sent.Add(1)
					}
				}
			}
		}
	}
}

func (e *RepartitionExec) splitByHash(b *arrow.RecordBatch, hashBuf []uint64) ([]*arrow.RecordBatch, []uint64, error) {
	n := b.NumRows()
	keys := make([]arrow.Array, len(e.HashExprs))
	for i, x := range e.HashExprs {
		a, err := physical.EvalToArray(x, b)
		if err != nil {
			return nil, hashBuf, err
		}
		keys[i] = a
	}
	hashes := compute.HashBatch(keys, n, hashBuf)
	masks := make([]arrow.Bitmap, e.NumParts)
	counts := make([]int, e.NumParts)
	for i := range masks {
		masks[i] = arrow.NewBitmap(n)
	}
	for i, h := range hashes {
		p := int(h % uint64(e.NumParts))
		masks[p].Set(i)
		counts[p]++
	}
	out := make([]*arrow.RecordBatch, e.NumParts)
	for p := 0; p < e.NumParts; p++ {
		if counts[p] == 0 {
			continue
		}
		if counts[p] == n {
			out[p] = b
			continue
		}
		mask := arrow.NewBool(masks[p], nil, n)
		fb, err := compute.FilterBatch(b, mask)
		if err != nil {
			return nil, hashes, err
		}
		out[p] = fb
	}
	return out, hashes, nil
}

func (e *RepartitionExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	e.mu.Lock()
	if !e.started {
		e.started = true
		e.start(ctx)
	}
	ch := e.outputs[partition]
	e.mu.Unlock()
	stop := func() {
		e.stopOnce[partition].Do(func() { close(e.abandoned[partition]) })
	}
	return physical.InstrumentStream(&chanStream{schema: e.Schema(), ctx: ctx, ch: ch, stop: stop}, e.Metrics()), nil
}
