package exec

import (
	"fmt"
	"math/bits"
	"slices"
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
	send := func(out int, v batchOrErr) {
		if x.send(out, v) {
			sent.Add(1)
		}
	}
	if e.Scheme == RoundRobinPartitioning {
		rr := p % e.NumParts
		return func(b *arrow.RecordBatch) error {
			send(rr, batchOrErr{batch: b})
			rr = (rr + 1) % e.NumParts
			return nil
		}
	}
	// The row hashes come from the compute.HashBatch kernels that group
	// tables use, and travel with each output batch: a consumer whose keys
	// are HashExprs (the final aggregate, both sides of a partitioned hash
	// join) looks them up instead of hashing the rows again (handedHashes).
	var sc hashScatter
	return func(b *arrow.RecordBatch) error {
		parts, err := e.splitByHash(b, &sc)
		if err != nil {
			return err
		}
		for i, v := range parts {
			if v.batch != nil {
				send(i, v)
			}
		}
		return nil
	}
}

// hashScatter is one producer's reusable scratch for splitByHash.
type hashScatter struct {
	hashes []uint64
	next   []int   // per output: write cursor into idx
	idx    []int32 // row numbers grouped by output, input order within each
}

// hashPartition maps a row hash to one of n outputs from the hash's high
// bits (the high word of h*n). groupTable places keys by h's low bits, so a
// choice made from the low bits — h % n — would hand every downstream table
// hashes that agree in those bits and leave most of its home slots unused.
func hashPartition(h uint64, n int) int {
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// splitByHash scatters b's rows over NumParts outputs in one pass: a
// counting pass over the row hashes sizes each output, a second fills
// per-output row lists, and every column and the hashes are gathered once
// per non-empty output. out[p] has a nil batch when no row went to p, and
// b itself when all did.
func (e *RepartitionExec) splitByHash(b *arrow.RecordBatch, sc *hashScatter) ([]batchOrErr, error) {
	n := b.NumRows()
	keys := make([]arrow.Array, len(e.HashExprs))
	for i, x := range e.HashExprs {
		a, err := physical.EvalToArray(x, b, nil)
		if err != nil {
			return nil, err
		}
		keys[i] = a
	}
	sc.hashes = compute.HashBatch(keys, n, sc.hashes)

	if cap(sc.next) < e.NumParts {
		sc.next = make([]int, e.NumParts)
	}
	next := sc.next[:e.NumParts]
	for p := range next {
		next[p] = 0
	}
	for _, h := range sc.hashes {
		next[hashPartition(h, e.NumParts)]++
	}
	out := make([]batchOrErr, e.NumParts)
	start := 0
	for p, c := range next {
		if c == n {
			// The hashes go downstream with b; the next batch hashes into
			// a fresh buffer.
			out[p] = batchOrErr{batch: b, hashes: sc.hashes}
			sc.hashes = nil
			return out, nil
		}
		next[p] = start
		start += c
	}
	if cap(sc.idx) < n {
		sc.idx = make([]int32, n)
	}
	idx := sc.idx[:n]
	for i, h := range sc.hashes {
		p := hashPartition(h, e.NumParts)
		idx[next[p]] = int32(i)
		next[p]++
	}
	// The hashes in the order of idx, so each output's are a slice.
	hashes := make([]uint64, n)
	for k, r := range idx {
		hashes[k] = sc.hashes[r]
	}
	// next[p] is now the end of output p's row list.
	start = 0
	for p, end := range next {
		if end > start {
			out[p] = batchOrErr{batch: compute.TakeBatch(b, idx[start:end]), hashes: hashes[start:end:end]}
		}
		start = end
	}
	return out, nil
}

func (e *RepartitionExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	e.once.Do(func() {
		e.x = startExchange(ctx, e.Input, e.NumParts, ctx.ExchangeBufferDepth(), e.Metrics(), e.router)
	})
	return physical.InstrumentStream(e.x.stream(ctx, e.Schema(), partition), e.Metrics()), nil
}

// handedHashes returns, when input is a hash exchange on exactly keys —
// the same expressions, in order — the lookup of the row hashes it sent
// with a batch that output partition delivered (nil for any other batch);
// otherwise nil. Call the lookup only after opening that output.
func handedHashes(input physical.ExecutionPlan, keys []physical.PhysicalExpr, partition int) func(*arrow.RecordBatch) []uint64 {
	rep, ok := input.(*RepartitionExec)
	if !ok || rep.Scheme != HashPartitioning || !slices.Equal(rep.HashExprs, keys) {
		return nil
	}
	return func(b *arrow.RecordBatch) []uint64 { return rep.x.hashesOf(partition, b) }
}
