package exec

import (
	"bytes"
	"container/heap"
	"fmt"
	"io"
	"strings"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// SortSpec is one physical sort key.
type SortSpec struct {
	Expr       physical.PhysicalExpr
	Descending bool
	NullsFirst bool
}

func (s SortSpec) String() string {
	dir := "ASC"
	if s.Descending {
		dir = "DESC"
	}
	return fmt.Sprintf("%s %s", s.Expr, dir)
}

// sortExprs lists the key expressions of a sort.
func sortExprs(keys []SortSpec) []physical.PhysicalExpr {
	exprs := make([]physical.PhysicalExpr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return exprs
}

func sortEncoder(keys []SortSpec) (*rowformat.Encoder, error) {
	opts := make([]rowformat.SortOption, len(keys))
	for i, k := range keys {
		opts[i] = rowformat.SortOption{Descending: k.Descending, NullsFirst: k.NullsFirst}
	}
	return rowformat.NewEncoder(exprTypes(sortExprs(keys)), opts)
}

// encodeSortKeys renders each row's normalized sort key.
func encodeSortKeys(enc *rowformat.Encoder, keys []SortSpec, b *arrow.RecordBatch) ([][]byte, error) {
	cols, err := evalExprs(sortExprs(keys), b)
	if err != nil {
		return nil, err
	}
	return enc.EncodeRows(cols, b.NumRows()), nil
}

// batchBytes estimates a batch's memory footprint.
func batchBytes(b *arrow.RecordBatch) int64 {
	var total int64
	for _, c := range b.Columns() {
		total += arrayBytes(c)
	}
	return total
}

// arrayBytes estimates one column's memory footprint.
func arrayBytes(c arrow.Array) int64 {
	total := int64(len(c.Validity()))
	if arr, ok := c.(*arrow.StringArray); ok {
		return total + int64(len(arr.Data())) + int64(4*arr.Len())
	}
	w := c.DataType().BitWidth()
	if w == 0 {
		w = 64
	}
	return total + int64(c.Len()*w/8)
}

// ExternalSortExec fully sorts its input (per partition), spilling sorted
// runs to disk and merging them with a loser-tree-style heap when memory
// is exhausted (paper Section 6.2).
type ExternalSortExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	Keys  []SortSpec
}

func (e *ExternalSortExec) Schema() *arrow.Schema { return e.Input.Schema() }
func (e *ExternalSortExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *ExternalSortExec) Partitions() int { return e.Input.Partitions() }
func (e *ExternalSortExec) String() string {
	parts := make([]string, len(e.Keys))
	for i, k := range e.Keys {
		parts[i] = k.String()
	}
	return "SortExec: " + strings.Join(parts, ", ")
}
func (e *ExternalSortExec) OutputOrdering() []physical.SortField {
	var out []physical.SortField
	for _, k := range e.Keys {
		c, ok := k.Expr.(*physical.ColumnExpr)
		if !ok {
			return nil
		}
		out = append(out, physical.SortField{Col: c.Index, Descending: k.Descending, NullsFirst: k.NullsFirst})
	}
	return out
}
func (e *ExternalSortExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &ExternalSortExec{Input: c, Keys: e.Keys}, nil
}

// sortRun sorts buffered batches into a single ordered batch; keys holds
// one key per buffered row, in batch order.
func (e *ExternalSortExec) sortRun(batches []*arrow.RecordBatch, keys *rowKeys) (*arrow.RecordBatch, error) {
	full, err := compute.ConcatBatches(e.Schema(), batches)
	if err != nil {
		return nil, err
	}
	return compute.TakeBatch(full, sortRowKeys(keys)), nil
}

func (e *ExternalSortExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	in, err := e.Input.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	enc, err := sortEncoder(e.Keys)
	if err != nil {
		in.Close()
		return nil, err
	}

	res := memory.NewReservation(ctx.Pool, "SortExec")
	unregister := memory.RegisterConsumer(ctx.Pool)
	var spills []*memory.SpillFile
	var pending []*arrow.RecordBatch
	var pendingKeys rowKeys
	var pendingBytes int64

	// out is the sorted output stream built on first Next (in-memory slice
	// or spill merge); cleanup owns closing it.
	var out physical.Stream
	cleanup := func() {
		if out != nil {
			out.Close()
		}
		in.Close()
		res.Free()
		unregister()
		for _, sp := range spills {
			sp.Release()
		}
	}

	m := e.Metrics()
	spillRun := func(cause error) error {
		if ctx.Disk == nil || !ctx.Disk.Enabled() {
			// Keep the reservation failure in the chain so callers (the
			// server's statusFor) can classify this as retryable pressure.
			if cause != nil {
				return fmt.Errorf("exec: sort exceeded memory budget and spilling is disabled: %w", cause)
			}
			return fmt.Errorf("exec: sort exceeded memory budget and spilling is disabled")
		}
		sorted, err := e.sortRun(pending, &pendingKeys)
		if err != nil {
			return err
		}
		sf, err := ctx.Disk.CreateTemp("sort")
		if err != nil {
			return err
		}
		m.AddSpill(batchBytes(sorted))
		const chunk = 8192
		for off := 0; off < sorted.NumRows(); off += chunk {
			n := chunk
			if off+n > sorted.NumRows() {
				n = sorted.NumRows() - off
			}
			if err := arrow.WriteBatch(sf.File(), sorted.Slice(off, n)); err != nil {
				return err
			}
		}
		spills = append(spills, sf)
		pending, pendingBytes = nil, 0
		pendingKeys.reset()
		res.Shrink(res.Size())
		return nil
	}

	started := false
	next := func() (*arrow.RecordBatch, error) {
		if !started {
			started = true
			for {
				if err := checkCancel(ctx); err != nil {
					return nil, err
				}
				b, err := in.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					return nil, err
				}
				if b.NumRows() == 0 {
					continue
				}
				cols, err := evalExprs(sortExprs(e.Keys), b)
				if err != nil {
					return nil, err
				}
				pending = append(pending, b)
				pendingKeys.appendRows(enc, cols, b.NumRows())
				pendingBytes += batchBytes(b)
				if err := res.Resize(pendingBytes); err != nil {
					if serr := spillRun(err); serr != nil {
						return nil, serr
					}
				} else {
					m.UpdateMemPeak(res.Size())
				}
			}
			if len(spills) == 0 {
				// Pure in-memory sort.
				if len(pending) == 0 {
					out = NewFuncStream(e.Schema(), func() (*arrow.RecordBatch, error) { return nil, io.EOF }, nil)
				} else {
					sorted, err := e.sortRun(pending, &pendingKeys)
					if err != nil {
						return nil, err
					}
					pending, pendingKeys = nil, rowKeys{}
					pos := 0
					out = NewFuncStream(e.Schema(), func() (*arrow.RecordBatch, error) {
						if pos >= sorted.NumRows() {
							return nil, io.EOF
						}
						n := ctx.BatchRows
						if n <= 0 {
							n = 8192
						}
						if pos+n > sorted.NumRows() {
							n = sorted.NumRows() - pos
						}
						b := sorted.Slice(pos, n)
						pos += n
						return b, nil
					}, nil)
				}
			} else {
				// Spill the final run, then merge all runs.
				if len(pending) > 0 {
					if err := spillRun(nil); err != nil {
						return nil, err
					}
				}
				ms, err := e.mergeSpills(ctx, enc, spills)
				if err != nil {
					return nil, err
				}
				out = ms
			}
		}
		return out.Next()
	}
	return physical.InstrumentStream(NewFuncStream(e.Schema(), next, cleanup), m), nil
}

// runCursor iterates one sorted spilled run.
type runCursor struct {
	file   *memory.SpillFile
	schema *arrow.Schema
	enc    *rowformat.Encoder
	keys   []SortSpec
	batch  *arrow.RecordBatch
	bkeys  [][]byte
	row    int
	done   bool
}

func (c *runCursor) advanceBatch() error {
	b, err := arrow.ReadBatch(c.file.File(), c.schema)
	if err == io.EOF {
		c.done = true
		c.batch = nil
		return nil
	}
	if err != nil {
		return err
	}
	ks, err := encodeSortKeys(c.enc, c.keys, b)
	if err != nil {
		return err
	}
	c.batch, c.bkeys, c.row = b, ks, 0
	return nil
}

func (c *runCursor) key() []byte { return c.bkeys[c.row] }

func (c *runCursor) advance() error {
	c.row++
	if c.batch != nil && c.row >= c.batch.NumRows() {
		return c.advanceBatch()
	}
	return nil
}

// mergeHeap is a min-heap of run cursors ordered by current key (a
// simplified tree of losers).
type mergeHeap []*runCursor

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return bytes.Compare(h[i].key(), h[j].key()) < 0 }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(*runCursor)) }
func (h *mergeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (e *ExternalSortExec) mergeSpills(ctx *physical.ExecContext, enc *rowformat.Encoder, spills []*memory.SpillFile) (physical.Stream, error) {
	var h mergeHeap
	for _, sf := range spills {
		if _, err := sf.File().Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		c := &runCursor{file: sf, schema: e.Schema(), enc: enc, keys: e.Keys}
		if err := c.advanceBatch(); err != nil {
			return nil, err
		}
		if !c.done {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	builderFor := func() []arrow.Builder {
		bs := make([]arrow.Builder, e.Schema().NumFields())
		for i, f := range e.Schema().Fields() {
			bs[i] = arrow.NewBuilder(f.Type)
		}
		return bs
	}
	next := func() (*arrow.RecordBatch, error) {
		if h.Len() == 0 {
			return nil, io.EOF
		}
		target := ctx.BatchRows
		if target <= 0 {
			target = 8192
		}
		builders := builderFor()
		rows := 0
		for rows < target && h.Len() > 0 {
			c := h[0]
			for i := range builders {
				builders[i].AppendFrom(c.batch.Column(i), c.row)
			}
			rows++
			if err := c.advance(); err != nil {
				return nil, err
			}
			if c.done {
				heap.Pop(&h)
			} else {
				heap.Fix(&h, 0)
			}
		}
		cols := make([]arrow.Array, len(builders))
		for i, b := range builders {
			cols[i] = b.Finish()
		}
		return arrow.NewRecordBatchWithRows(e.Schema(), cols, rows), nil
	}
	return NewFuncStream(e.Schema(), next, nil), nil
}

// SortPreservingMergeExec merges already-sorted partitions into one sorted
// stream without re-sorting.
type SortPreservingMergeExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	Keys  []SortSpec
}

func (e *SortPreservingMergeExec) Schema() *arrow.Schema { return e.Input.Schema() }
func (e *SortPreservingMergeExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *SortPreservingMergeExec) Partitions() int { return 1 }
func (e *SortPreservingMergeExec) String() string {
	return fmt.Sprintf("SortPreservingMergeExec: %d inputs", e.Input.Partitions())
}
func (e *SortPreservingMergeExec) OutputOrdering() []physical.SortField {
	return (&ExternalSortExec{Input: e.Input, Keys: e.Keys}).OutputOrdering()
}
func (e *SortPreservingMergeExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	return &SortPreservingMergeExec{Input: c, Keys: e.Keys}, nil
}

// streamCursor adapts a live stream for heap merging.
type streamCursor struct {
	s     physical.Stream
	enc   *rowformat.Encoder
	keys  []SortSpec
	batch *arrow.RecordBatch
	bkeys [][]byte
	row   int
	done  bool
}

func (c *streamCursor) advanceBatch() error {
	for {
		b, err := c.s.Next()
		if err == io.EOF {
			c.done = true
			c.batch = nil
			return nil
		}
		if err != nil {
			return err
		}
		if b.NumRows() == 0 {
			continue
		}
		ks, err := encodeSortKeys(c.enc, c.keys, b)
		if err != nil {
			return err
		}
		c.batch, c.bkeys, c.row = b, ks, 0
		return nil
	}
}

type streamHeap []*streamCursor

func (h streamHeap) Len() int { return len(h) }
func (h streamHeap) Less(i, j int) bool {
	return bytes.Compare(h[i].bkeys[h[i].row], h[j].bkeys[h[j].row]) < 0
}
func (h streamHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *streamHeap) Push(x any)   { *h = append(*h, x.(*streamCursor)) }
func (h *streamHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func (e *SortPreservingMergeExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: merge has a single partition")
	}
	n := e.Input.Partitions()
	if n == 1 {
		in, err := e.Input.Execute(ctx, 0)
		if err != nil {
			return nil, err
		}
		return physical.InstrumentStream(in, e.Metrics()), nil
	}
	enc, err := sortEncoder(e.Keys)
	if err != nil {
		return nil, err
	}
	// Open every partition and pull initial batches concurrently: inputs
	// may share one exchange (RepartitionExec), whose producers block until
	// every consumer partition makes progress; sequential priming would
	// deadlock (each input is a pipeline breaker that buffers its whole
	// exchange share before its first batch).
	var h streamHeap
	streams := make([]physical.Stream, n)
	cursors := make([]*streamCursor, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			s, err := e.Input.Execute(ctx, p)
			if err != nil {
				errs[p] = err
				return
			}
			c := &streamCursor{s: s, enc: enc, keys: e.Keys}
			if errs[p] = c.advanceBatch(); errs[p] != nil {
				// Closed right away: the shared exchange's producers would
				// otherwise block on this partition's full channel and the
				// sibling partitions never see their end of input.
				s.Close()
				return
			}
			streams[p] = s
			cursors[p] = c
		}(p)
	}
	wg.Wait()
	closeAll := func() {
		for _, s := range streams {
			if s != nil {
				s.Close()
			}
		}
	}
	for p := 0; p < n; p++ {
		if errs[p] != nil {
			closeAll()
			return nil, errs[p]
		}
		if c := cursors[p]; !c.done {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	next := func() (*arrow.RecordBatch, error) {
		if h.Len() == 0 {
			return nil, io.EOF
		}
		target := ctx.BatchRows
		if target <= 0 {
			target = 8192
		}
		builders := make([]arrow.Builder, e.Schema().NumFields())
		for i, f := range e.Schema().Fields() {
			builders[i] = arrow.NewBuilder(f.Type)
		}
		rows := 0
		for rows < target && h.Len() > 0 {
			c := h[0]
			for i := range builders {
				builders[i].AppendFrom(c.batch.Column(i), c.row)
			}
			rows++
			c.row++
			if c.row >= c.batch.NumRows() {
				if err := c.advanceBatch(); err != nil {
					return nil, err
				}
			}
			if c.done {
				heap.Pop(&h)
			} else {
				heap.Fix(&h, 0)
			}
		}
		cols := make([]arrow.Array, len(builders))
		for i, b := range builders {
			cols[i] = b.Finish()
		}
		return arrow.NewRecordBatchWithRows(e.Schema(), cols, rows), nil
	}
	return physical.InstrumentStream(NewFuncStream(e.Schema(), next, closeAll), e.Metrics()), nil
}
