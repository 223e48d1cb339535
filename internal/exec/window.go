package exec

import (
	"bytes"
	"fmt"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// WindowSpec is one window expression: a function, its arguments, and the
// OVER clause.
type WindowSpec struct {
	Name        string
	AggFn       *functions.AggFunc // set when an aggregate runs in window position
	Args        []physical.PhysicalExpr
	PartitionBy []physical.PhysicalExpr
	OrderBy     []SortSpec
	Frame       logical.WindowFrame
	OutType     *arrow.DataType
	OutName     string
}

// keySignature identifies the (PARTITION BY, ORDER BY) keys of a spec;
// specs with equal signatures share one key encoding and one sort.
func (s *WindowSpec) keySignature() string {
	return "partition_by=[" + joinStrings(s.PartitionBy) + "] order_by=[" + joinStrings(s.OrderBy) + "]"
}

func joinStrings[T fmt.Stringer](xs []T) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = x.String()
	}
	return strings.Join(parts, ", ")
}

// NoTopK is WindowExec.TopK when the operator evaluates every row.
const NoTopK = -1

// WindowExec evaluates window functions (paper Section 6.5), appending one
// output column per spec. Each input partition is evaluated on its own:
// the operator buffers the partition, sorts it once per distinct
// (PARTITION BY, ORDER BY) key set with the shared sort kernel, and
// evaluates every spec over the partition runs. The rows of one input
// partition keep their input order.
//
// Distribution contract: all rows of any one window partition must arrive
// in the same input partition. PlanWindowOver establishes it, by a hash
// RepartitionExec on the PARTITION BY keys the specs have in common or,
// when there are none, by coalescing the input to a single partition.
//
// With TopK >= 0 (set only by the physical top-k rewrite, for a lone
// row_number() whose sole consumer is a `row_number <= k` filter) the
// operator does not sort: it keeps the k best rows of every PARTITION BY
// group (of the whole partition without PARTITION BY) in the bounded heap
// TopKExec also runs on while the input streams by, and emits only those,
// still in input order.
type WindowExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	Specs []WindowSpec
	Reg   *functions.Registry
	// TopK is the per-group row limit, NoTopK when every row is evaluated.
	TopK   int64
	schema *arrow.Schema
}

// NewWindowExec computes the output schema (input fields + window fields).
func NewWindowExec(input physical.ExecutionPlan, specs []WindowSpec, reg *functions.Registry) *WindowExec {
	fields := append([]arrow.Field{}, input.Schema().Fields()...)
	for _, s := range specs {
		fields = append(fields, arrow.NewField(s.OutName, s.OutType, true))
	}
	return &WindowExec{Input: input, Specs: specs, Reg: reg, TopK: NoTopK, schema: arrow.NewSchema(fields...)}
}

func (e *WindowExec) Schema() *arrow.Schema              { return e.schema }
func (e *WindowExec) Children() []physical.ExecutionPlan { return []physical.ExecutionPlan{e.Input} }
func (e *WindowExec) Partitions() int                    { return e.Input.Partitions() }

// OutputOrdering is the input's per-partition order (which a hash exchange
// under the operator has already dropped): both paths emit the rows they
// keep in input order.
func (e *WindowExec) OutputOrdering() []physical.SortField { return e.Input.OutputOrdering() }

func (e *WindowExec) String() string {
	var sb strings.Builder
	sb.WriteString("WindowExec: ")
	for i := range e.Specs {
		if i > 0 {
			sb.WriteString("; ")
		}
		sb.WriteString(e.Specs[i].Name + " " + e.Specs[i].keySignature())
	}
	fmt.Fprintf(&sb, " partitions=%d", e.Partitions())
	if e.TopK >= 0 {
		fmt.Fprintf(&sb, " topk=%d", e.TopK)
	}
	return sb.String()
}

func (e *WindowExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	w := NewWindowExec(c, e.Specs, e.Reg)
	w.TopK = e.TopK
	return w, nil
}

func (e *WindowExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if e.TopK == 0 {
		// Nothing can pass the filter above: the input is not even started.
		return physical.InstrumentStream(emptyStream(e.schema), e.Metrics()), nil
	}
	in, err := e.Input.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	r := &windowRun{e: e, ctx: ctx, in: in, res: memory.NewReservation(ctx.Pool, "WindowExec")}
	return physical.InstrumentStream(NewFuncStream(e.schema, r.next, r.close), e.Metrics()), nil
}

// windowRun is the state of one executing partition.
type windowRun struct {
	e   *WindowExec
	ctx *physical.ExecContext
	in  physical.Stream
	// res covers what the partition buffers: input batches and key arenas,
	// or the top-k path's group table, heaps and admitted rows. Windows do
	// not spill, so a refused reservation fails the query.
	res *memory.Reservation
	// emit hands the whole result out in BatchRows slices once evaluated.
	emit func() (*arrow.RecordBatch, error)
}

func (r *windowRun) close() {
	r.in.Close()
	r.res.Free()
}

func (r *windowRun) next() (*arrow.RecordBatch, error) {
	if r.emit == nil {
		eval := r.evalAll
		if r.e.TopK >= 0 {
			eval = r.evalTopK
		}
		out, err := eval()
		if err != nil {
			return nil, err
		}
		r.emit = sliceNext(r.ctx, out)
	}
	return r.emit()
}

// reserve resizes the reservation to n bytes.
func (r *windowRun) reserve(n int64) error {
	if err := r.res.Resize(n); err != nil {
		return fmt.Errorf("exec: window exceeded its memory budget (window functions do not spill): %w", err)
	}
	r.e.Metrics().UpdateMemPeak(r.res.Size())
	return nil
}

// evalAll buffers the partition and evaluates every spec over all rows.
func (r *windowRun) evalAll() (*arrow.RecordBatch, error) {
	e := r.e
	var batches []*arrow.RecordBatch
	var buffered int64
	err := forEachBatch(r.ctx, r.in, func(b *arrow.RecordBatch) error {
		batches = append(batches, b)
		buffered += batchBytes(b)
		return r.reserve(buffered)
	})
	if err != nil {
		return nil, err
	}
	input, err := compute.ConcatBatches(e.Input.Schema(), batches)
	if err != nil {
		return nil, err
	}
	cols := append(make([]arrow.Array, 0, e.schema.NumFields()), input.Columns()...)
	cols = append(cols, make([]arrow.Array, len(e.Specs))...)
	inLen := input.NumCols()
	if input.NumRows() == 0 {
		for i := range e.Specs {
			cols[inLen+i] = arrow.NewBuilder(e.Specs[i].OutType).Finish()
		}
		return arrow.NewRecordBatchWithRows(e.schema, cols, 0), nil
	}

	// One ordering per distinct key set, in first-appearance order.
	sigs := make([]string, len(e.Specs))
	for i := range e.Specs {
		sigs[i] = e.Specs[i].keySignature()
	}
	for i := range e.Specs {
		if cols[inLen+i] != nil {
			continue // evaluated with an earlier spec's ordering
		}
		ord, err := newWindowOrder(&e.Specs[i], input)
		if err != nil {
			return nil, err
		}
		// buffered grows by every finished output column; the ordering and
		// what an evaluation holds on top of it are charged while they live.
		ord.charge = func(extra int64) error { return r.reserve(buffered + ord.memUsage() + extra) }
		if err := ord.charge(0); err != nil {
			return nil, err
		}
		if i == 0 {
			e.Metrics().Counter("groups").Add(int64(len(ord.starts) - 1))
		}
		for j := i; j < len(e.Specs); j++ {
			if sigs[j] != sigs[i] {
				continue
			}
			if cols[inLen+j], err = ord.eval(&e.Specs[j], input); err != nil {
				return nil, err
			}
			buffered += arrayBytes(cols[inLen+j])
			if err := ord.charge(0); err != nil {
				return nil, err
			}
		}
	}
	if err := r.reserve(buffered); err != nil {
		return nil, err
	}
	return arrow.NewRecordBatchWithRows(e.schema, cols, input.NumRows()), nil
}

// evalTopK runs the partition through the top-k heap with one group per
// PARTITION BY key (a single group without PARTITION BY): O(rows) hash
// lookups and key compares, memory proportional to groups x k.
func (r *windowRun) evalTopK() (*arrow.RecordBatch, error) {
	e := r.e
	spec := &e.Specs[0]
	ordEnc, err := sortEncoder(spec.OrderBy)
	if err != nil {
		return nil, err
	}
	var table *groupTable
	if len(spec.PartitionBy) > 0 {
		if table, err = newGroupTable(exprTypes(spec.PartitionBy)); err != nil {
			return nil, err
		}
	}
	t := &topKRows{k: int(e.TopK), schema: e.Input.Schema()}
	var keys rowKeys
	var gids []uint32
	var inputRows, tableBytes int64
	err = forEachBatch(r.ctx, r.in, func(b *arrow.RecordBatch) error {
		inputRows += int64(b.NumRows())
		if table != nil {
			partCols, err := evalExprs(spec.PartitionBy, b)
			if err != nil {
				return err
			}
			if gids, err = table.assign(partCols, b.NumRows(), gids); err != nil {
				return err
			}
			tableBytes = table.memUsage()
		}
		ordCols, err := evalExprs(sortExprs(spec.OrderBy), b)
		if err != nil {
			return err
		}
		keys.reset()
		keys.appendRows(ordEnc, ordCols, b.NumRows())
		if err := t.push(b, &keys, gids); err != nil {
			return err
		}
		return r.reserve(t.memUsage() + keys.memUsage() + tableBytes)
	})
	if err != nil {
		return nil, err
	}
	m := e.Metrics()
	m.Counter("groups").Add(int64(len(t.heaps)))
	m.Counter("rows_pruned_topk").Add(inputRows - int64(t.live))
	rows, rowNumber, err := t.numbered()
	if err != nil {
		return nil, err
	}
	cols := append(rows.Columns(), arrow.NewInt64(rowNumber))
	return arrow.NewRecordBatchWithRows(e.schema, cols, len(rowNumber)), nil
}

// windowOrder is the buffered rows arranged by one (PARTITION BY, ORDER BY)
// key set: every row's key is its partition key bytes followed by its order
// key bytes, encoded once, and order lists the rows by that key.
type windowOrder struct {
	keys     rowKeys
	split    []int // per row: arena offset where the order key starts
	hasOrder bool
	order    []int32 // row indices in (partition, order, row) order
	starts   []int   // partition p is order[starts[p]:starts[p+1]]
	// charge reserves the buffered rows, this ordering and extra bytes.
	charge func(extra int64) error
}

func (w *windowOrder) memUsage() int64 {
	return w.keys.memUsage() + 8*int64(cap(w.split)) + 4*int64(cap(w.order)) + 8*int64(cap(w.starts))
}

func (w *windowOrder) partKey(row int32) []byte {
	return w.keys.arena[w.keys.offsets[row]:w.split[row]]
}

func (w *windowOrder) orderKey(row int32) []byte {
	return w.keys.arena[w.split[row]:w.keys.offsets[row+1]]
}

func evalExprs(exprs []physical.PhysicalExpr, b *arrow.RecordBatch) ([]arrow.Array, error) {
	cols := make([]arrow.Array, len(exprs))
	for i, x := range exprs {
		a, err := physical.EvalToArray(x, b, nil)
		if err != nil {
			return nil, err
		}
		cols[i] = a
	}
	return cols, nil
}

func exprTypes(exprs []physical.PhysicalExpr) []*arrow.DataType {
	types := make([]*arrow.DataType, len(exprs))
	for i, x := range exprs {
		types[i] = x.DataType()
	}
	return types
}

func newWindowOrder(spec *WindowSpec, input *arrow.RecordBatch) (*windowOrder, error) {
	n := input.NumRows()
	partCols, err := evalExprs(spec.PartitionBy, input)
	if err != nil {
		return nil, err
	}
	ordCols, err := evalExprs(sortExprs(spec.OrderBy), input)
	if err != nil {
		return nil, err
	}
	partEnc, err := rowformat.NewEncoder(exprTypes(spec.PartitionBy), nil)
	if err != nil {
		return nil, err
	}
	ordEnc, err := sortEncoder(spec.OrderBy)
	if err != nil {
		return nil, err
	}
	w := &windowOrder{hasOrder: len(ordCols) > 0, split: make([]int, n)}
	w.keys.offsets = append(make([]int, 0, n+1), 0)
	for i := 0; i < n; i++ {
		w.keys.arena = partEnc.AppendRowKey(w.keys.arena, partCols, i)
		w.split[i] = len(w.keys.arena)
		w.keys.arena = ordEnc.AppendRowKey(w.keys.arena, ordCols, i)
		w.keys.offsets = append(w.keys.offsets, len(w.keys.arena))
	}
	if len(partCols)+len(ordCols) > 0 {
		w.order = sortRowKeys(&w.keys)
	} else {
		w.order = make([]int32, n)
		for i := range w.order {
			w.order[i] = int32(i)
		}
	}
	w.starts = append(w.starts, 0)
	if len(partCols) > 0 {
		for i := 1; i < n; i++ {
			if !bytes.Equal(w.partKey(w.order[i-1]), w.partKey(w.order[i])) {
				w.starts = append(w.starts, i)
			}
		}
	}
	w.starts = append(w.starts, n)
	return w, nil
}

// peersEnd returns the position (within rows) one past the last peer of
// rows[i]: the rows with an equal order key.
func (w *windowOrder) peersEnd(rows []int32, i int) int {
	if !w.hasOrder {
		return len(rows)
	}
	j := i + 1
	for j < len(rows) && bytes.Equal(w.orderKey(rows[j]), w.orderKey(rows[i])) {
		j++
	}
	return j
}

// literalArg reads spec argument i as an integer literal, def when absent.
func literalArg(spec *WindowSpec, i int, def int64) int64 {
	if len(spec.Args) > i {
		if lit, ok := spec.Args[i].(*physical.LiteralExpr); ok && !lit.Value.Null {
			return lit.Value.AsInt64()
		}
	}
	return def
}

// eval computes one window column over all partitions, in input row order.
// Ranking functions write straight into a typed buffer indexed by row;
// value functions and aggregates resolve every row to a source position
// and gather once.
func (w *windowOrder) eval(spec *WindowSpec, input *arrow.RecordBatch) (arrow.Array, error) {
	n := input.NumRows()
	args, err := evalExprs(spec.Args, input)
	if err != nil {
		return nil, err
	}
	eachPartition := func(f func(rows []int32) error) error {
		for p := 0; p+1 < len(w.starts); p++ {
			if err := f(w.order[w.starts[p]:w.starts[p+1]]); err != nil {
				return err
			}
		}
		return nil
	}
	switch spec.Name {
	case "row_number", "rank", "dense_rank", "ntile":
		buckets := literalArg(spec, 0, 1)
		if spec.Name == "ntile" && buckets < 1 {
			return nil, fmt.Errorf("exec: ntile requires a positive bucket count")
		}
		out := make([]int64, n)
		_ = eachPartition(func(rows []int32) error {
			switch spec.Name {
			case "row_number":
				for i, r := range rows {
					out[r] = int64(i + 1)
				}
			case "ntile":
				for i, r := range rows {
					out[r] = int64(i)*buckets/int64(len(rows)) + 1
				}
			default:
				dense := int64(0)
				for i := 0; i < len(rows); {
					j := w.peersEnd(rows, i)
					dense++
					v := int64(i + 1)
					if spec.Name == "dense_rank" {
						v = dense
					}
					for ; i < j; i++ {
						out[rows[i]] = v
					}
				}
			}
			return nil
		})
		return arrow.NewInt64(out), nil
	case "percent_rank", "cume_dist":
		out := make([]float64, n)
		_ = eachPartition(func(rows []int32) error {
			size := len(rows)
			for i := 0; i < size; {
				j := w.peersEnd(rows, i)
				v := float64(j) / float64(size)
				if spec.Name == "percent_rank" {
					v = 0
					if size > 1 {
						v = float64(i) / float64(size-1)
					}
				}
				for ; i < j; i++ {
					out[rows[i]] = v
				}
			}
			return nil
		})
		return arrow.NewFloat64(out), nil
	case "lag", "lead", "first_value", "last_value", "nth_value":
		return w.evalValue(spec, args[0], n, eachPartition)
	}
	if spec.AggFn == nil {
		return nil, fmt.Errorf("exec: unknown window function %q", spec.Name)
	}
	return w.evalAgg(spec, args, n, eachPartition)
}

// evalValue resolves lag/lead/first_value/last_value/nth_value to the row
// each output takes its value from (-1: none) and gathers the argument.
func (w *windowOrder) evalValue(spec *WindowSpec, arg arrow.Array, n int,
	eachPartition func(func(rows []int32) error) error) (arrow.Array, error) {
	src := make([]int32, n)
	offset := literalArg(spec, 1, 1) // lag/lead distance, nth_value position
	_ = eachPartition(func(rows []int32) error {
		size := len(rows)
		for i, r := range rows {
			pos := -1
			switch spec.Name {
			case "lag":
				pos = i - int(offset)
			case "lead":
				pos = i + int(offset)
			default:
				lo, hi := w.frameBounds(spec.Frame, rows, i)
				switch {
				case lo >= hi:
				case spec.Name == "first_value":
					pos = lo
				case spec.Name == "last_value":
					pos = hi - 1
				case offset >= 1 && lo+int(offset)-1 < hi:
					pos = lo + int(offset) - 1
				}
			}
			if pos < 0 || pos >= size {
				src[r] = -1
			} else {
				src[r] = rows[pos]
			}
		}
		return nil
	})
	// lag/lead take an optional default for rows without a source.
	if len(spec.Args) > 2 && (spec.Name == "lag" || spec.Name == "lead") {
		if lit, ok := spec.Args[2].(*physical.LiteralExpr); ok {
			b := arrow.NewBuilder(spec.OutType)
			b.Reserve(n)
			for _, s := range src {
				if s < 0 {
					b.AppendScalar(lit.Value)
				} else {
					b.AppendFrom(arg, int(s))
				}
			}
			return b.Finish(), nil
		}
	}
	return compute.Take(arg, src), nil
}

// frameBounds resolves a frame to [lo, hi) positions within the partition.
// RANGE frames extend the current-row bound to the full peer group.
func (w *windowOrder) frameBounds(f logical.WindowFrame, rows []int32, i int) (int, int) {
	n := len(rows)
	lo, hi := 0, n
	switch f.Start.Kind {
	case logical.OffsetPreceding:
		lo = i - int(f.Start.Offset)
	case logical.CurrentRow:
		lo = i
		if !f.Rows && w.hasOrder {
			for lo > 0 && bytes.Equal(w.orderKey(rows[lo-1]), w.orderKey(rows[i])) {
				lo--
			}
		}
	case logical.OffsetFollowing:
		lo = i + int(f.Start.Offset)
	case logical.UnboundedFollowing:
		lo = n
	}
	switch f.End.Kind {
	case logical.UnboundedPreceding:
		hi = 0
	case logical.OffsetPreceding:
		hi = i - int(f.End.Offset) + 1
	case logical.CurrentRow:
		hi = i + 1
		if !f.Rows {
			hi = w.peersEnd(rows, i)
		}
	case logical.OffsetFollowing:
		hi = i + int(f.End.Offset) + 1
	}
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// evalAgg computes an aggregate over each row's frame. Every distinct frame
// result becomes one slot of vals and every row points at its slot, so the
// output column is one gather. The whole-partition frame folds all
// partitions through a single accumulator, one group per partition; the
// running frame (UNBOUNDED PRECEDING .. CURRENT ROW) feeds one accumulator
// per partition peer group by peer group; other frames recompute per row.
func (w *windowOrder) evalAgg(spec *WindowSpec, args []arrow.Array, n int,
	eachPartition func(func(rows []int32) error) error) (arrow.Array, error) {
	argTypes := make([]*arrow.DataType, len(args))
	for i, a := range args {
		argTypes[i] = a.DataType()
	}
	slot := make([]int32, n) // per row: index into vals
	finish := func(vals arrow.Array) (arrow.Array, error) {
		// The output column is charged once the caller holds it.
		if err := w.charge(4*int64(n) + arrayBytes(vals)); err != nil {
			return nil, err
		}
		return compute.Take(vals, slot), nil
	}

	if spec.Frame.Start.Kind == logical.UnboundedPreceding && spec.Frame.End.Kind == logical.UnboundedFollowing {
		acc, err := spec.AggFn.NewAccumulator(argTypes)
		if err != nil {
			return nil, err
		}
		groups := make([]uint32, n)
		for p := 0; p+1 < len(w.starts); p++ {
			for _, r := range w.order[w.starts[p]:w.starts[p+1]] {
				groups[r], slot[r] = uint32(p), int32(p)
			}
		}
		if err := acc.Update(args, groups, len(w.starts)-1); err != nil {
			return nil, err
		}
		out, err := acc.Evaluate()
		if err != nil {
			return nil, err
		}
		return finish(out)
	}

	// Slot 0 is the NULL an empty frame yields.
	vals := arrow.NewBuilder(spec.OutType)
	vals.AppendNull()
	slots := int32(1)
	// accumulate folds rows into acc and stores the result in a new slot.
	accumulate := func(acc functions.GroupsAccumulator, rows []int32) (int32, error) {
		taken := make([]arrow.Array, len(args))
		for i, a := range args {
			taken[i] = compute.Take(a, rows)
		}
		if err := acc.Update(taken, make([]uint32, len(rows)), 1); err != nil {
			return 0, err
		}
		out, err := acc.Evaluate()
		if err != nil {
			return 0, err
		}
		// Evaluate may hand out the accumulator's own buffers, which the
		// next Update overwrites: copy the one result row.
		vals.AppendFrom(out, 0)
		slots++
		return slots - 1, nil
	}
	running := spec.Frame.Start.Kind == logical.UnboundedPreceding && spec.Frame.End.Kind == logical.CurrentRow
	err := eachPartition(func(rows []int32) error {
		if running {
			acc, err := spec.AggFn.NewAccumulator(argTypes)
			if err != nil {
				return err
			}
			for i := 0; i < len(rows); {
				// RANGE adds the whole peer group before emitting for each
				// peer; ROWS frames have singleton peer groups.
				j := i + 1
				if !spec.Frame.Rows {
					j = w.peersEnd(rows, i)
				}
				s, err := accumulate(acc, rows[i:j])
				if err != nil {
					return err
				}
				for ; i < j; i++ {
					slot[rows[i]] = s
				}
			}
			return nil
		}
		for i, r := range rows {
			lo, hi := w.frameBounds(spec.Frame, rows, i)
			if lo >= hi {
				slot[r] = 0
				continue
			}
			acc, err := spec.AggFn.NewAccumulator(argTypes)
			if err != nil {
				return err
			}
			if slot[r], err = accumulate(acc, rows[lo:hi]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return finish(vals.Finish())
}
