package baseline

import (
	"fmt"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// execJoin runs TightDB's materialized hash join: the left side is built
// into one shared table, probe batches run in parallel. Non-equi joins
// fall back to a block nested loop.
func (e *Engine) execJoin(n *logical.Join) ([]*arrow.RecordBatch, error) {
	left, err := e.execute(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := e.execute(n.Right)
	if err != nil {
		return nil, err
	}
	lSchema := n.Left.Schema()
	rSchema := n.Right.Schema()
	combined := lSchema.Merge(rSchema)
	var filter physical.PhysicalExpr
	if n.Filter != nil {
		filter, err = e.compiler(combined).Compile(n.Filter)
		if err != nil {
			return nil, err
		}
	}
	lb, err := compute.ConcatBatches(lSchema.ToArrow(), left)
	if err != nil {
		return nil, err
	}
	outSchema := n.Schema().ToArrow()

	if n.Type == logical.CrossJoin || len(n.On) == 0 {
		return e.nestedLoop(n, lb, right, filter, outSchema)
	}

	lcomp := e.compiler(lSchema)
	rcomp := e.compiler(rSchema)
	lkeys := make([]physical.PhysicalExpr, len(n.On))
	rkeys := make([]physical.PhysicalExpr, len(n.On))
	types := make([]*arrow.DataType, len(n.On))
	for i, p := range n.On {
		le, err := lcomp.Compile(p.L)
		if err != nil {
			return nil, err
		}
		re, err := rcomp.Compile(p.R)
		if err != nil {
			return nil, err
		}
		common, err := logical.PromoteNumeric(le.DataType(), re.DataType())
		if err != nil {
			return nil, fmt.Errorf("baseline: join key types: %w", err)
		}
		if !le.DataType().Equal(common) {
			le = &physical.CastExpr{E: le, To: common}
		}
		if !re.DataType().Equal(common) {
			re = &physical.CastExpr{E: re, To: common}
		}
		lkeys[i], rkeys[i], types[i] = le, re, common
	}
	enc, err := rowformat.NewEncoder(types, nil)
	if err != nil {
		return nil, err
	}

	// Build.
	index := make(map[string][]int32, lb.NumRows())
	if lb.NumRows() > 0 {
		cols := make([]arrow.Array, len(lkeys))
		for i, k := range lkeys {
			a, err := physical.EvalToArray(k, lb, nil)
			if err != nil {
				return nil, err
			}
			cols[i] = a
		}
		keys := enc.EncodeRows(cols, lb.NumRows())
		for r, key := range keys {
			null := false
			for _, c := range cols {
				if c.IsNull(r) {
					null = true
					break
				}
			}
			if null {
				continue
			}
			index[string(key)] = append(index[string(key)], int32(r))
		}
	}

	var visitedMu sync.Mutex
	visited := make([]bool, lb.NumRows())
	needVisited := n.Type == logical.LeftJoin || n.Type == logical.FullJoin ||
		n.Type == logical.LeftSemiJoin || n.Type == logical.LeftAntiJoin

	// Probe in parallel.
	outs := make([]*arrow.RecordBatch, len(right))
	err = e.parallelFor(len(right), func(bi int) error {
		rb := right[bi]
		cols := make([]arrow.Array, len(rkeys))
		for i, k := range rkeys {
			a, err := physical.EvalToArray(k, rb, nil)
			if err != nil {
				return err
			}
			cols[i] = a
		}
		keys := enc.EncodeRows(cols, rb.NumRows())
		var li, ri []int32
		for r, key := range keys {
			null := false
			for _, c := range cols {
				if c.IsNull(r) {
					null = true
					break
				}
			}
			if null {
				continue
			}
			for _, l := range index[string(key)] {
				li = append(li, l)
				ri = append(ri, int32(r))
			}
		}
		if filter != nil && len(li) > 0 {
			cb := combineBatches(lSchema.Merge(rSchema).ToArrow(), lb, rb, li, ri)
			mask, err := physical.EvalPredicate(filter, cb, nil)
			if err != nil {
				return err
			}
			var fli, fri []int32
			for i := range li {
				if mask.IsValid(i) && mask.Value(i) {
					fli = append(fli, li[i])
					fri = append(fri, ri[i])
				}
			}
			li, ri = fli, fri
		}
		if needVisited && len(li) > 0 {
			visitedMu.Lock()
			for _, l := range li {
				visited[l] = true
			}
			visitedMu.Unlock()
		}
		switch n.Type {
		case logical.InnerJoin:
			if len(li) > 0 {
				outs[bi] = combineBatches(outSchema, lb, rb, li, ri)
			}
		case logical.LeftJoin:
			if len(li) > 0 {
				outs[bi] = combineBatches(outSchema, lb, rb, li, ri)
			}
		case logical.RightJoin, logical.FullJoin:
			matched := make([]bool, rb.NumRows())
			for _, r := range ri {
				matched[r] = true
			}
			for r := 0; r < rb.NumRows(); r++ {
				if !matched[r] {
					li = append(li, -1)
					ri = append(ri, int32(r))
				}
			}
			if len(li) > 0 {
				outs[bi] = combineBatches(outSchema, lb, rb, li, ri)
			}
		case logical.RightSemiJoin, logical.RightAntiJoin:
			matched := make([]bool, rb.NumRows())
			for _, r := range ri {
				matched[r] = true
			}
			want := n.Type == logical.RightSemiJoin
			var keep []int32
			for r := 0; r < rb.NumRows(); r++ {
				if matched[r] == want {
					keep = append(keep, int32(r))
				}
			}
			if len(keep) > 0 {
				outs[bi] = compute.TakeBatch(rb, keep)
			}
		case logical.LeftSemiJoin, logical.LeftAntiJoin:
			// Emitted from visited at the end.
		default:
			return fmt.Errorf("baseline: unsupported join type %s", n.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var result []*arrow.RecordBatch
	for _, b := range outs {
		if b != nil && b.NumRows() > 0 {
			result = append(result, b)
		}
	}
	// Build-side tails.
	switch n.Type {
	case logical.LeftJoin, logical.FullJoin:
		var keep []int32
		for i, v := range visited {
			if !v {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) > 0 {
			lcols := make([]arrow.Array, lb.NumCols())
			for c := range lcols {
				lcols[c] = compute.Take(lb.Column(c), keep)
			}
			rs := rSchema.ToArrow()
			rcols := make([]arrow.Array, rs.NumFields())
			for c := 0; c < rs.NumFields(); c++ {
				b := arrow.NewBuilder(rs.Field(c).Type)
				for range keep {
					b.AppendNull()
				}
				rcols[c] = b.Finish()
			}
			result = append(result, arrow.NewRecordBatchWithRows(outSchema, append(lcols, rcols...), len(keep)))
		}
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		want := n.Type == logical.LeftSemiJoin
		var keep []int32
		for i, v := range visited {
			if v == want {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) > 0 {
			result = append(result, compute.TakeBatch(lb, keep))
		}
	}
	return result, nil
}

func combineBatches(schema *arrow.Schema, lb, rb *arrow.RecordBatch, li, ri []int32) *arrow.RecordBatch {
	lcols := make([]arrow.Array, lb.NumCols())
	for c := 0; c < lb.NumCols(); c++ {
		lcols[c] = compute.Take(lb.Column(c), li)
	}
	rcols := make([]arrow.Array, rb.NumCols())
	for c := 0; c < rb.NumCols(); c++ {
		rcols[c] = compute.Take(rb.Column(c), ri)
	}
	return arrow.NewRecordBatchWithRows(schema, append(lcols, rcols...), len(li))
}

// nestedLoop evaluates cross joins and arbitrary join filters.
func (e *Engine) nestedLoop(n *logical.Join, lb *arrow.RecordBatch, right []*arrow.RecordBatch,
	filter physical.PhysicalExpr, outSchema *arrow.Schema) ([]*arrow.RecordBatch, error) {

	innerSchema := n.Left.Schema().Merge(n.Right.Schema()).ToArrow()
	visited := make([]bool, lb.NumRows())
	var mu sync.Mutex
	outs := make([]*arrow.RecordBatch, len(right))
	err := e.parallelFor(len(right), func(bi int) error {
		rb := right[bi]
		var li, ri []int32
		if filter == nil {
			for l := 0; l < lb.NumRows(); l++ {
				for r := 0; r < rb.NumRows(); r++ {
					li = append(li, int32(l))
					ri = append(ri, int32(r))
				}
			}
		} else {
			for l := 0; l < lb.NumRows(); l++ {
				rep := make([]int32, rb.NumRows())
				for i := range rep {
					rep[i] = int32(l)
				}
				lcols := make([]arrow.Array, lb.NumCols())
				for c := range lcols {
					lcols[c] = compute.Take(lb.Column(c), rep)
				}
				cb := arrow.NewRecordBatchWithRows(innerSchema, append(lcols, rb.Columns()...), rb.NumRows())
				mask, err := physical.EvalPredicate(filter, cb, nil)
				if err != nil {
					return err
				}
				for r := 0; r < rb.NumRows(); r++ {
					if mask.IsValid(r) && mask.Value(r) {
						li = append(li, int32(l))
						ri = append(ri, int32(r))
					}
				}
			}
		}
		if len(li) > 0 {
			mu.Lock()
			for _, l := range li {
				visited[l] = true
			}
			mu.Unlock()
		}
		matched := make([]bool, rb.NumRows())
		for _, r := range ri {
			matched[r] = true
		}
		switch n.Type {
		case logical.CrossJoin, logical.InnerJoin, logical.LeftJoin:
			if len(li) > 0 {
				outs[bi] = combineBatches(outSchema, lb, rb, li, ri)
			}
		case logical.RightJoin, logical.FullJoin:
			for r, m := range matched {
				if !m {
					li = append(li, -1)
					ri = append(ri, int32(r))
				}
			}
			if len(li) > 0 {
				outs[bi] = combineBatches(outSchema, lb, rb, li, ri)
			}
		case logical.RightSemiJoin, logical.RightAntiJoin:
			want := n.Type == logical.RightSemiJoin
			var keep []int32
			for r, m := range matched {
				if m == want {
					keep = append(keep, int32(r))
				}
			}
			if len(keep) > 0 {
				outs[bi] = compute.TakeBatch(rb, keep)
			}
		case logical.LeftSemiJoin, logical.LeftAntiJoin:
			// from visited
		default:
			return fmt.Errorf("baseline: unsupported join type %s", n.Type)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var result []*arrow.RecordBatch
	for _, b := range outs {
		if b != nil && b.NumRows() > 0 {
			result = append(result, b)
		}
	}
	switch n.Type {
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		want := n.Type == logical.LeftSemiJoin
		var keep []int32
		for i, v := range visited {
			if v == want {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) > 0 {
			result = append(result, compute.TakeBatch(lb, keep))
		}
	case logical.LeftJoin, logical.FullJoin:
		var keep []int32
		for i, v := range visited {
			if !v {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) > 0 {
			lcols := make([]arrow.Array, lb.NumCols())
			for c := range lcols {
				lcols[c] = compute.Take(lb.Column(c), keep)
			}
			rs := n.Right.Schema().ToArrow()
			rcols := make([]arrow.Array, rs.NumFields())
			for c := 0; c < rs.NumFields(); c++ {
				b := arrow.NewBuilder(rs.Field(c).Type)
				for range keep {
					b.AppendNull()
				}
				rcols[c] = b.Finish()
			}
			result = append(result, arrow.NewRecordBatchWithRows(outSchema, append(lcols, rcols...), len(keep)))
		}
	}
	return result, nil
}
