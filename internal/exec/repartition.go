package exec

import (
	"fmt"
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

	// x is the running exchange, started by the first Execute so every
	// output partition of one run reads the same producers.
	once sync.Once
	x    *exchange
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

// router builds input partition p's routing function: round-robin deals
// whole batches, hash partitioning splits each batch by key hash.
func (e *RepartitionExec) router(x *exchange, p int) func(*arrow.RecordBatch) error {
	sent := e.Metrics().Counter("batches_sent")
	send := func(out int, b *arrow.RecordBatch) {
		if x.send(out, batchOrErr{batch: b}) {
			sent.Add(1)
		}
	}
	if e.Scheme == RoundRobinPartitioning {
		rr := p % e.NumParts
		return func(b *arrow.RecordBatch) error {
			send(rr, b)
			rr = (rr + 1) % e.NumParts
			return nil
		}
	}
	// Hash buffer reused across batches: the same compute.HashBatch
	// kernels drive aggregation group tables and join build/probe, so all
	// three hash consumers agree on row hashes.
	var hashBuf []uint64
	return func(b *arrow.RecordBatch) error {
		parts, buf, err := e.splitByHash(b, hashBuf)
		hashBuf = buf
		if err != nil {
			return err
		}
		for i, pb := range parts {
			if pb != nil && pb.NumRows() > 0 {
				send(i, pb)
			}
		}
		return nil
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
	e.once.Do(func() {
		e.x = startExchange(ctx, e.Input, e.NumParts, ctx.ExchangeBufferDepth(), e.router)
	})
	return physical.InstrumentStream(e.x.stream(ctx, e.Schema(), partition), e.Metrics()), nil
}
