package baseline

import (
	"bytes"
	"fmt"
	"sort"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/exec"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// parallelFor runs f over [0, n) on the engine's worker pool.
func (e *Engine) parallelFor(n int, f func(i int) error) error {
	workers := e.Parallelism
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) compiler(schema *logical.Schema) *physical.Compiler {
	return physical.NewCompiler(schema, e.reg)
}

// execute interprets an optimized logical plan with TightDB's materialized
// operators.
func (e *Engine) execute(plan logical.Plan) ([]*arrow.RecordBatch, error) {
	switch n := plan.(type) {
	case *logical.TableScan:
		return e.execScan(n)
	case *logical.Filter:
		in, err := e.execute(n.Input)
		if err != nil {
			return nil, err
		}
		pred, err := e.compiler(n.Input.Schema()).Compile(n.Predicate)
		if err != nil {
			return nil, err
		}
		return e.filterBatches(in, pred)
	case *logical.Projection:
		in, err := e.execute(n.Input)
		if err != nil {
			return nil, err
		}
		comp := e.compiler(n.Input.Schema())
		exprs := make([]physical.PhysicalExpr, len(n.Exprs))
		for i, x := range n.Exprs {
			pe, err := comp.Compile(x)
			if err != nil {
				return nil, err
			}
			exprs[i] = pe
		}
		outSchema := n.Schema().ToArrow()
		out := make([]*arrow.RecordBatch, len(in))
		err = e.parallelFor(len(in), func(i int) error {
			cols := make([]arrow.Array, len(exprs))
			for c, pe := range exprs {
				a, err := physical.EvalToArray(pe, in[i], nil)
				if err != nil {
					return err
				}
				cols[c] = a
			}
			out[i] = arrow.NewRecordBatchWithRows(outSchema, cols, in[i].NumRows())
			return nil
		})
		return out, err
	case *logical.Aggregate:
		in, err := e.execute(n.Input)
		if err != nil {
			return nil, err
		}
		return e.radixAggregate(n, in)
	case *logical.Distinct:
		in, err := e.execute(n.Input)
		if err != nil {
			return nil, err
		}
		return e.distinct(n, in)
	case *logical.Sort:
		in, err := e.execute(n.Input)
		if err != nil {
			return nil, err
		}
		return e.sortBatches(n, in)
	case *logical.Limit:
		in, err := e.execute(n.Input)
		if err != nil {
			return nil, err
		}
		return limitBatches(in, n.Skip, n.Fetch), nil
	case *logical.Join:
		return e.execJoin(n)
	case *logical.SubqueryAlias:
		return e.execute(n.Input)
	case *logical.Union:
		var out []*arrow.RecordBatch
		target := n.Schema().ToArrow()
		for _, in := range n.Inputs {
			bs, err := e.execute(in)
			if err != nil {
				return nil, err
			}
			// Rename columns positionally to the union schema.
			for _, b := range bs {
				out = append(out, arrow.NewRecordBatchWithRows(target, b.Columns(), b.NumRows()))
			}
		}
		return out, nil
	case *logical.Window:
		return e.execWindow(n)
	case *logical.Values:
		return e.execValues(n)
	case *logical.EmptyRelation:
		schema := n.Schema().ToArrow()
		if !n.ProduceOneRow {
			return nil, nil
		}
		cols := make([]arrow.Array, schema.NumFields())
		for i, f := range schema.Fields() {
			b := arrow.NewBuilder(f.Type)
			b.AppendNull()
			cols[i] = b.Finish()
		}
		return []*arrow.RecordBatch{arrow.NewRecordBatchWithRows(schema, cols, 1)}, nil
	}
	return nil, fmt.Errorf("baseline: cannot execute %T", plan)
}

func (e *Engine) execScan(n *logical.TableScan) ([]*arrow.RecordBatch, error) {
	src, ok := n.Source.(*tableSource)
	if !ok {
		return nil, fmt.Errorf("baseline: foreign table source for %q", n.Name)
	}
	batches, err := src.t.Materialize(n.Projection, e.Parallelism)
	if err != nil {
		return nil, err
	}
	// Pushed-down filters run after the (complete) decode: TightDB has no
	// in-format filtering.
	if len(n.Filters) > 0 {
		pred, err := e.compiler(n.Schema()).Compile(logical.And(n.Filters...))
		if err != nil {
			return nil, err
		}
		batches, err = e.filterBatches(batches, pred)
		if err != nil {
			return nil, err
		}
	}
	if n.Fetch > 0 {
		batches = limitBatches(batches, 0, n.Fetch)
	}
	return batches, nil
}

func (e *Engine) filterBatches(in []*arrow.RecordBatch, pred physical.PhysicalExpr) ([]*arrow.RecordBatch, error) {
	out := make([]*arrow.RecordBatch, len(in))
	err := e.parallelFor(len(in), func(i int) error {
		mask, err := physical.EvalPredicate(pred, in[i], nil)
		if err != nil {
			return err
		}
		fb, err := filterRows(in[i], mask)
		if err != nil {
			return err
		}
		out[i] = fb
		return nil
	})
	if err != nil {
		return nil, err
	}
	kept := out[:0]
	for _, b := range out {
		if b.NumRows() > 0 {
			kept = append(kept, b)
		}
	}
	return kept, nil
}

// filterRows keeps the rows of b for which mask is valid and true, one
// row at a time through builders. TightDB is the differential oracle for
// the engine's filter kernel, so it does not call that kernel.
func filterRows(b *arrow.RecordBatch, mask *arrow.BoolArray) (*arrow.RecordBatch, error) {
	if mask.Len() != b.NumRows() {
		return nil, fmt.Errorf("baseline: filter mask of %d rows over %d", mask.Len(), b.NumRows())
	}
	builders := make([]arrow.Builder, b.NumCols())
	for c, col := range b.Columns() {
		builders[c] = arrow.NewBuilder(col.DataType())
	}
	rows := 0
	for r := 0; r < b.NumRows(); r++ {
		if !mask.IsValid(r) || !mask.Value(r) {
			continue
		}
		for c, col := range b.Columns() {
			builders[c].AppendFrom(col, r)
		}
		rows++
	}
	cols := make([]arrow.Array, len(builders))
	for c, bl := range builders {
		cols[c] = bl.Finish()
	}
	return arrow.NewRecordBatchWithRows(b.Schema(), cols, rows), nil
}

func limitBatches(in []*arrow.RecordBatch, skip, fetch int64) []*arrow.RecordBatch {
	var out []*arrow.RecordBatch
	for _, b := range in {
		if skip >= int64(b.NumRows()) {
			skip -= int64(b.NumRows())
			continue
		}
		if skip > 0 {
			b = b.Slice(int(skip), b.NumRows()-int(skip))
			skip = 0
		}
		if fetch >= 0 {
			if fetch == 0 {
				break
			}
			if int64(b.NumRows()) > fetch {
				b = b.Slice(0, int(fetch))
			}
			fetch -= int64(b.NumRows())
		}
		out = append(out, b)
	}
	return out
}

func (e *Engine) sortBatches(n *logical.Sort, in []*arrow.RecordBatch) ([]*arrow.RecordBatch, error) {
	full, err := compute.ConcatBatches(n.Schema().ToArrow(), in)
	if err != nil {
		return nil, err
	}
	if full.NumRows() == 0 {
		return nil, nil
	}
	comp := e.compiler(n.Input.Schema())
	types := make([]*arrow.DataType, len(n.Keys))
	opts := make([]rowformat.SortOption, len(n.Keys))
	cols := make([]arrow.Array, len(n.Keys))
	for i, k := range n.Keys {
		pe, err := comp.Compile(k.E)
		if err != nil {
			return nil, err
		}
		a, err := physical.EvalToArray(pe, full, nil)
		if err != nil {
			return nil, err
		}
		cols[i] = a
		types[i] = a.DataType()
		opts[i] = rowformat.SortOption{Descending: !k.Asc, NullsFirst: k.NullsFirst}
	}
	enc, err := rowformat.NewEncoder(types, opts)
	if err != nil {
		return nil, err
	}
	keys := enc.EncodeRows(cols, full.NumRows())
	idx := make([]int32, full.NumRows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0
	})
	if n.Fetch >= 0 && int64(len(idx)) > n.Fetch {
		idx = idx[:n.Fetch]
	}
	return []*arrow.RecordBatch{compute.TakeBatch(full, idx)}, nil
}

func (e *Engine) execValues(n *logical.Values) ([]*arrow.RecordBatch, error) {
	schema := n.Schema().ToArrow()
	builders := make([]arrow.Builder, schema.NumFields())
	for i, f := range schema.Fields() {
		builders[i] = arrow.NewBuilder(f.Type)
	}
	empty := logical.NewSchema()
	comp := e.compiler(empty)
	oneRow := arrow.NewRecordBatchWithRows(arrow.NewSchema(), nil, 1)
	for _, row := range n.Rows {
		for c, cell := range row {
			pe, err := comp.Compile(cell)
			if err != nil {
				return nil, err
			}
			d, err := pe.Evaluate(oneRow, nil)
			if err != nil {
				return nil, err
			}
			var s arrow.Scalar
			if d.IsArray() {
				s = d.Array().GetScalar(0)
			} else {
				s = d.ScalarValue()
			}
			if !s.Null && !s.Type.Equal(schema.Field(c).Type) {
				s, err = compute.CastScalar(s, schema.Field(c).Type)
				if err != nil {
					return nil, err
				}
			}
			builders[c].AppendScalar(s)
		}
	}
	cols := make([]arrow.Array, len(builders))
	for i, b := range builders {
		cols[i] = b.Finish()
	}
	return []*arrow.RecordBatch{arrow.NewRecordBatchWithRows(schema, cols, len(n.Rows))}, nil
}

// execWindow delegates window evaluation to the shared window algorithm
// over the materialized input (windows are not part of the engines'
// performance comparison).
func (e *Engine) execWindow(n *logical.Window) ([]*arrow.RecordBatch, error) {
	in, err := e.execute(n.Input)
	if err != nil {
		return nil, err
	}
	inSchema := n.Input.Schema().ToArrow()
	values := exec.NewValuesExec(inSchema, in)
	cfg := &exec.PlannerConfig{TargetPartitions: 1, Reg: e.reg}
	wplan, err := exec.PlanWindowOver(values, n, cfg)
	if err != nil {
		return nil, err
	}
	ctx := physical.NewExecContext()
	return exec.CollectPlan(ctx, wplan)
}
