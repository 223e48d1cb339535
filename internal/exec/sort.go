package exec

import (
	"bytes"
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
// runs to disk when memory is exhausted and merging them with mergeNext
// (paper Section 6.2).
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
	var spills []*memory.SpillFile
	var pending []*arrow.RecordBatch
	var pendingKeys rowKeys
	var pendingBytes int64

	cleanup := func() {
		in.Close()
		res.Free()
		for _, sp := range spills {
			sp.Release()
		}
	}

	m := e.Metrics()
	spillRun := func(cause error) error {
		if ctx.Disk == nil {
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
			if err := arrow.WriteBatch(sf.File(), sorted.Slice(off, min(chunk, sorted.NumRows()-off))); err != nil {
				return err
			}
		}
		spills = append(spills, sf)
		pending, pendingBytes = nil, 0
		pendingKeys.reset()
		res.Shrink(res.Size())
		return nil
	}

	var emit func() (*arrow.RecordBatch, error)
	next := func() (*arrow.RecordBatch, error) {
		if emit == nil {
			err := forEachBatch(ctx, in, func(b *arrow.RecordBatch) error {
				cols, err := evalExprs(sortExprs(e.Keys), b)
				if err != nil {
					return err
				}
				pending = append(pending, b)
				pendingKeys.appendRows(enc, cols, b.NumRows())
				pendingBytes += batchBytes(b)
				if err := res.Resize(pendingBytes); err != nil {
					return spillRun(err)
				}
				m.UpdateMemPeak(res.Size())
				return nil
			})
			if err != nil {
				return nil, err
			}
			if len(spills) == 0 {
				// Pure in-memory sort.
				sorted, err := e.sortRun(pending, &pendingKeys)
				if err != nil {
					return nil, err
				}
				pending, pendingKeys = nil, rowKeys{}
				emit = sliceNext(ctx, sorted)
			} else {
				// Spill the final run, then merge all runs.
				if len(pending) > 0 {
					if err := spillRun(nil); err != nil {
						return nil, err
					}
				}
				if emit, err = e.mergeSpills(ctx, enc, spills); err != nil {
					return nil, err
				}
			}
		}
		return emit()
	}
	return physical.InstrumentStream(NewFuncStream(e.Schema(), next, cleanup), m), nil
}

// mergeSpills merges the spilled runs, numbered in the order they were
// written.
func (e *ExternalSortExec) mergeSpills(ctx *physical.ExecContext, enc *rowformat.Encoder, spills []*memory.SpillFile) (func() (*arrow.RecordBatch, error), error) {
	cursors := make([]*mergeCursor, len(spills))
	for i, sf := range spills {
		f := sf.File()
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		cursors[i] = newMergeCursor(func() (*arrow.RecordBatch, error) { return arrow.ReadBatch(f, e.Schema()) }, enc, e.Keys)
		if err := cursors[i].load(); err != nil {
			return nil, err
		}
	}
	return mergeNext(ctx, e.Schema(), cursors), nil
}

// mergeCursor walks one sorted source, a spilled run or a partition
// stream, a batch at a time, holding the batch's sort keys in a reused
// arena.
type mergeCursor struct {
	read  func() (*arrow.RecordBatch, error)
	enc   *rowformat.Encoder
	exprs []physical.PhysicalExpr
	batch *arrow.RecordBatch // nil once the source is exhausted
	keys  rowKeys
	row   int
	src   int // index of batch among the sources of the batch being cut, -1 if absent
}

func newMergeCursor(read func() (*arrow.RecordBatch, error), enc *rowformat.Encoder, keys []SortSpec) *mergeCursor {
	return &mergeCursor{read: read, enc: enc, exprs: sortExprs(keys)}
}

func (c *mergeCursor) key() []byte { return c.keys.key(c.row) }

// load moves to the source's next non-empty batch.
func (c *mergeCursor) load() error {
	for {
		b, err := c.read()
		if err == io.EOF {
			c.batch = nil
			return nil
		}
		if err != nil {
			return err
		}
		if b.NumRows() == 0 {
			continue
		}
		cols, err := evalExprs(c.exprs, b)
		if err != nil {
			return err
		}
		c.keys.reset()
		c.keys.appendRows(c.enc, cols, b.NumRows())
		c.batch, c.row, c.src = b, 0, -1
		return nil
	}
}

// mergeNext merges loaded cursors into one sorted stream (paper Section
// 6.2's merge of sorted runs). A min-heap of cursor indexes ordered by
// (key, index) picks each row, so equal keys leave in cursor order; spilled
// runs are numbered in arrival order, which makes a spilled sort emit
// exactly what the in-memory sort does. Every batch has exactly BatchRows
// rows until the cursors run dry, and each column is one GatherRuns over
// the runs of consecutive rows taken from one cursor batch.
func mergeNext(ctx *physical.ExecContext, schema *arrow.Schema, cursors []*mergeCursor) func() (*arrow.RecordBatch, error) {
	less := func(a, b int) bool {
		if c := bytes.Compare(cursors[a].key(), cursors[b].key()); c != 0 {
			return c < 0
		}
		return a < b
	}
	var heap []int
	siftDown := func(i int) {
		for {
			least := i
			if l := 2*i + 1; l < len(heap) && less(heap[l], heap[least]) {
				least = l
			}
			if r := 2*i + 2; r < len(heap) && less(heap[r], heap[least]) {
				least = r
			}
			if least == i {
				return
			}
			heap[i], heap[least] = heap[least], heap[i]
			i = least
		}
	}
	for i, c := range cursors {
		if c.batch != nil {
			heap = append(heap, i)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	return func() (*arrow.RecordBatch, error) {
		if len(heap) == 0 {
			return nil, io.EOF
		}
		if err := checkCancel(ctx); err != nil {
			return nil, err
		}
		var srcs []*arrow.RecordBatch
		var runs []compute.Run
		rows, target := 0, batchRows(ctx)
		for ; rows < target && len(heap) > 0; rows++ {
			c := cursors[heap[0]]
			if c.src < 0 {
				c.src = len(srcs)
				srcs = append(srcs, c.batch)
			}
			if n := len(runs); n > 0 && runs[n-1].Src == c.src {
				runs[n-1].End++
			} else {
				runs = append(runs, compute.Run{Src: c.src, Start: c.row, End: c.row + 1})
			}
			if c.row++; c.row == c.batch.NumRows() {
				if err := c.load(); err != nil {
					return nil, err
				}
				if c.batch == nil {
					heap[0] = heap[len(heap)-1]
					heap = heap[:len(heap)-1]
				}
			}
			siftDown(0)
		}
		for _, c := range cursors {
			c.src = -1
		}
		cols := make([]arrow.Array, schema.NumFields())
		parts := make([]arrow.Array, len(srcs))
		for col := range cols {
			for i, b := range srcs {
				parts[i] = b.Column(col)
			}
			a, err := compute.GatherRuns(parts, runs)
			if err != nil {
				return nil, err
			}
			cols[col] = a
		}
		return arrow.NewRecordBatchWithRows(schema, cols, rows), nil
	}
}

// SortPreservingMergeExec merges already-sorted partitions into one sorted
// stream without re-sorting (mergeNext; equal keys leave in partition
// order).
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
	streams := make([]physical.Stream, n)
	cursors := make([]*mergeCursor, n)
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
			c := newMergeCursor(s.Next, enc, e.Keys)
			if errs[p] = c.load(); errs[p] != nil {
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
	for _, err := range errs {
		if err != nil {
			closeAll()
			return nil, err
		}
	}
	return physical.InstrumentStream(NewFuncStream(e.Schema(), mergeNext(ctx, e.Schema(), cursors), closeAll), e.Metrics()), nil
}
