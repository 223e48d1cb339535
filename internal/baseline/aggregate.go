package baseline

import (
	"fmt"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// TightDB's aggregation is radix partitioned (in the spirit of DuckDB's
// parallel grouped aggregation): phase 1 has every worker scatter its
// morsels' rows into 2^radixBits partition-local hash tables; phase 2
// merges each partition across workers independently and in parallel.
// There is no exchange and no partial/final re-hash of the whole stream,
// which is what keeps very high group cardinalities cheap.
const radixBits = 6

const numRadix = 1 << radixBits

type aggSpec struct {
	fn       *functions.AggFunc
	args     []physical.PhysicalExpr
	filter   physical.PhysicalExpr
	argTypes []*arrow.DataType
}

// partState is one (worker, radix-partition) aggregation table.
type partState struct {
	index map[string]uint32
	keys  [][]byte
	accs  []functions.GroupsAccumulator
}

func newPartState(specs []aggSpec) (*partState, error) {
	st := &partState{index: make(map[string]uint32, 64)}
	st.accs = make([]functions.GroupsAccumulator, len(specs))
	for i, s := range specs {
		acc, err := s.fn.NewAccumulator(s.argTypes)
		if err != nil {
			return nil, err
		}
		st.accs[i] = acc
	}
	return st, nil
}

func (st *partState) assign(key []byte) uint32 {
	idx, ok := st.index[string(key)]
	if !ok {
		idx = uint32(len(st.keys))
		owned := append([]byte(nil), key...)
		st.index[string(owned)] = idx
		st.keys = append(st.keys, owned)
	}
	return idx
}

func (e *Engine) buildAggSpecs(n *logical.Aggregate, comp *physical.Compiler) ([]aggSpec, error) {
	specs := make([]aggSpec, len(n.AggExprs))
	for i, ae := range n.AggExprs {
		call := ae
		if a, ok := call.(*logical.Alias); ok {
			call = a.E
		}
		af, ok := call.(*logical.AggFunc)
		if !ok {
			return nil, fmt.Errorf("baseline: aggregate expression %s is not an aggregate call", ae)
		}
		name := af.Name
		if af.Distinct {
			if name != "count" {
				return nil, fmt.Errorf("baseline: DISTINCT only supported for count")
			}
			name = "count_distinct"
		}
		fn, ok := e.reg.Agg(name)
		if !ok {
			return nil, fmt.Errorf("baseline: unknown aggregate %q", name)
		}
		spec := aggSpec{fn: fn}
		for _, a := range af.Args {
			pa, err := comp.Compile(a)
			if err != nil {
				return nil, err
			}
			spec.args = append(spec.args, pa)
			spec.argTypes = append(spec.argTypes, pa.DataType())
		}
		if af.Filter != nil {
			pf, err := comp.Compile(af.Filter)
			if err != nil {
				return nil, err
			}
			spec.filter = pf
		}
		specs[i] = spec
	}
	return specs, nil
}

// radixAggregate executes a grouped (or global) aggregation.
func (e *Engine) radixAggregate(n *logical.Aggregate, in []*arrow.RecordBatch) ([]*arrow.RecordBatch, error) {
	comp := e.compiler(n.Input.Schema())
	specs, err := e.buildAggSpecs(n, comp)
	if err != nil {
		return nil, err
	}
	groupExprs := make([]physical.PhysicalExpr, len(n.GroupExprs))
	types := make([]*arrow.DataType, len(n.GroupExprs))
	for i, g := range n.GroupExprs {
		pg, err := comp.Compile(g)
		if err != nil {
			return nil, err
		}
		groupExprs[i] = pg
		types[i] = pg.DataType()
	}
	outSchema := n.Schema().ToArrow()

	if len(groupExprs) == 0 {
		return e.globalAggregate(specs, in, outSchema)
	}
	enc, err := rowformat.NewEncoder(types, nil)
	if err != nil {
		return nil, err
	}

	// Phase 1: workers scatter morsels into radix-partitioned tables.
	workers := e.Parallelism
	if workers < 1 {
		workers = 1
	}
	states := make([][]*partState, workers) // [worker][radix]
	for w := range states {
		states[w] = make([]*partState, numRadix)
	}
	// Static morsel assignment: batch i -> worker i % workers.
	err = e.parallelFor(workers, func(w int) error {
		mine := states[w]
		var keyBuf []byte
		for bi := w; bi < len(in); bi += workers {
			b := in[bi]
			nRows := b.NumRows()
			cols := make([]arrow.Array, len(groupExprs))
			for i, g := range groupExprs {
				a, err := physical.EvalToArray(g, b, nil)
				if err != nil {
					return err
				}
				cols[i] = a
			}
			// Scatter rows by key-hash radix.
			rowsByPart := make([][]int32, numRadix)
			idxByPart := make([][]uint32, numRadix)
			for r := 0; r < nRows; r++ {
				keyBuf = enc.AppendRowKey(keyBuf[:0], cols, r)
				h := compute.HashBytes(keyBuf)
				p := int(h >> (64 - radixBits))
				if mine[p] == nil {
					st, err := newPartState(specs)
					if err != nil {
						return err
					}
					mine[p] = st
				}
				gi := mine[p].assign(keyBuf)
				rowsByPart[p] = append(rowsByPart[p], int32(r))
				idxByPart[p] = append(idxByPart[p], gi)
			}
			// Update accumulators per partition subset.
			for p := 0; p < numRadix; p++ {
				if len(rowsByPart[p]) == 0 {
					continue
				}
				st := mine[p]
				for ai, spec := range specs {
					rows := rowsByPart[p]
					gidx := idxByPart[p]
					if spec.filter != nil {
						mask, err := physical.EvalPredicate(spec.filter, b, nil)
						if err != nil {
							return err
						}
						var frows []int32
						var fgidx []uint32
						for k, r := range rows {
							if mask.IsValid(int(r)) && mask.Value(int(r)) {
								frows = append(frows, r)
								fgidx = append(fgidx, gidx[k])
							}
						}
						rows, gidx = frows, fgidx
					}
					args := make([]arrow.Array, len(spec.args))
					for j, ax := range spec.args {
						full, err := physical.EvalToArray(ax, b, nil)
						if err != nil {
							return err
						}
						args[j] = compute.Take(full, rows)
					}
					if err := st.accs[ai].Update(args, gidx, len(st.keys)); err != nil {
						return err
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: merge each radix partition across workers, in parallel.
	out := make([]*arrow.RecordBatch, numRadix)
	err = e.parallelFor(numRadix, func(p int) error {
		final, err := newPartState(specs)
		if err != nil {
			return err
		}
		for w := 0; w < workers; w++ {
			st := states[w][p]
			if st == nil || len(st.keys) == 0 {
				continue
			}
			gidx := make([]uint32, len(st.keys))
			for i, k := range st.keys {
				gidx[i] = final.assign(k)
			}
			for ai := range specs {
				stateArrs, err := st.accs[ai].State()
				if err != nil {
					return err
				}
				for _, sa := range stateArrs {
					if sa.Len() < len(st.keys) {
						return fmt.Errorf("baseline: short state array")
					}
				}
				if err := final.accs[ai].MergeStates(stateArrs, gidx, len(final.keys)); err != nil {
					return err
				}
			}
		}
		if len(final.keys) == 0 {
			return nil
		}
		gcols, err := enc.DecodeRows(final.keys)
		if err != nil {
			return err
		}
		cols := append([]arrow.Array{}, gcols...)
		for ai := range specs {
			a, err := final.accs[ai].Evaluate()
			if err != nil {
				return err
			}
			cols = append(cols, padTo(a, len(final.keys)))
		}
		out[p] = arrow.NewRecordBatchWithRows(outSchema, cols, len(final.keys))
		return nil
	})
	if err != nil {
		return nil, err
	}
	var result []*arrow.RecordBatch
	for _, b := range out {
		if b != nil && b.NumRows() > 0 {
			result = append(result, b)
		}
	}
	return result, nil
}

func padTo(a arrow.Array, n int) arrow.Array {
	if a.Len() >= n {
		return a
	}
	b := arrow.NewBuilder(a.DataType())
	for i := 0; i < a.Len(); i++ {
		b.AppendFrom(a, i)
	}
	for i := a.Len(); i < n; i++ {
		b.AppendNull()
	}
	return b.Finish()
}

// globalAggregate handles aggregates without group keys: per-worker
// accumulators merged once.
func (e *Engine) globalAggregate(specs []aggSpec, in []*arrow.RecordBatch, outSchema *arrow.Schema) ([]*arrow.RecordBatch, error) {
	workers := e.Parallelism
	if workers < 1 {
		workers = 1
	}
	states := make([][]functions.GroupsAccumulator, workers)
	err := e.parallelFor(workers, func(w int) error {
		accs := make([]functions.GroupsAccumulator, len(specs))
		for i, s := range specs {
			acc, err := s.fn.NewAccumulator(s.argTypes)
			if err != nil {
				return err
			}
			accs[i] = acc
		}
		for bi := w; bi < len(in); bi += workers {
			b := in[bi]
			gidx := make([]uint32, b.NumRows())
			for ai, spec := range specs {
				rows := gidx
				argsRows := b
				if spec.filter != nil {
					mask, err := physical.EvalPredicate(spec.filter, b, nil)
					if err != nil {
						return err
					}
					fb, err := filterRows(b, mask)
					if err != nil {
						return err
					}
					argsRows = fb
					rows = make([]uint32, fb.NumRows())
				}
				args := make([]arrow.Array, len(spec.args))
				for j, ax := range spec.args {
					a, err := physical.EvalToArray(ax, argsRows, nil)
					if err != nil {
						return err
					}
					args[j] = a
				}
				if err := accs[ai].Update(args, rows, 1); err != nil {
					return err
				}
			}
		}
		states[w] = accs
		return nil
	})
	if err != nil {
		return nil, err
	}
	finals := make([]functions.GroupsAccumulator, len(specs))
	for i, s := range specs {
		acc, err := s.fn.NewAccumulator(s.argTypes)
		if err != nil {
			return nil, err
		}
		// Size to one group immediately: aggregates with a non-null
		// identity must evaluate it over empty input (count() of zero
		// rows is 0, not NULL).
		empty := make([]arrow.Array, len(s.argTypes))
		for j, t := range s.argTypes {
			empty[j] = arrow.NewBuilder(t).Finish()
		}
		if err := acc.Update(empty, nil, 1); err != nil {
			return nil, err
		}
		finals[i] = acc
	}
	for w := 0; w < workers; w++ {
		for ai := range specs {
			st, err := states[w][ai].State()
			if err != nil {
				return nil, err
			}
			// Workers that saw no batches export empty (zero-group) states.
			if len(st) > 0 && st[0].Len() == 0 {
				continue
			}
			if err := finals[ai].MergeStates(st, []uint32{0}, 1); err != nil {
				return nil, err
			}
		}
	}
	cols := make([]arrow.Array, len(specs))
	for ai := range specs {
		a, err := finals[ai].Evaluate()
		if err != nil {
			return nil, err
		}
		cols[ai] = padTo(a, 1)
	}
	return []*arrow.RecordBatch{arrow.NewRecordBatchWithRows(outSchema, cols, 1)}, nil
}

// distinct deduplicates rows via the radix machinery with no aggregates.
func (e *Engine) distinct(n *logical.Distinct, in []*arrow.RecordBatch) ([]*arrow.RecordBatch, error) {
	schema := n.Schema()
	groups := make([]logical.Expr, schema.Len())
	for i, f := range schema.Fields() {
		groups[i] = &logical.Column{Relation: f.Qualifier, Name: f.Name}
	}
	agg, err := logical.NewAggregate(n.Input, groups, nil, e.reg)
	if err != nil {
		return nil, err
	}
	out, err := e.radixAggregate(agg, in)
	if err != nil {
		return nil, err
	}
	// Re-stamp the schema (aggregate output fields match positionally).
	target := schema.ToArrow()
	for i, b := range out {
		out[i] = arrow.NewRecordBatchWithRows(target, b.Columns(), b.NumRows())
	}
	return out, nil
}
