package exec

import (
	"fmt"
	"io"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
)

// AggMode selects the aggregation phase (paper Section 6.3: two-phase
// parallel partitioned hash grouping).
type AggMode int

// Aggregation modes.
const (
	// PartialAgg aggregates each input partition independently, emitting
	// partial state; it may flush early under memory pressure.
	PartialAgg AggMode = iota
	// FinalAgg merges partial states (after hash repartitioning on group
	// keys) into final results.
	FinalAgg
	// SingleAgg does both in one operator (single-partition plans).
	SingleAgg
)

// AggSpec describes one aggregate expression in an aggregation node.
type AggSpec struct {
	Fn         *functions.AggFunc
	Name       string
	Args       []physical.PhysicalExpr
	Filter     physical.PhysicalExpr // optional FILTER (WHERE ...)
	ArgTypes   []*arrow.DataType
	OutType    *arrow.DataType
	StateTypes []*arrow.DataType
}

// NewAggSpec resolves an aggregate function application.
func NewAggSpec(fn *functions.AggFunc, name string, args []physical.PhysicalExpr, filter physical.PhysicalExpr) (AggSpec, error) {
	argTypes := make([]*arrow.DataType, len(args))
	for i, a := range args {
		argTypes[i] = a.DataType()
	}
	out, err := fn.ReturnType(argTypes)
	if err != nil {
		return AggSpec{}, err
	}
	states, err := fn.StateTypes(argTypes)
	if err != nil {
		return AggSpec{}, err
	}
	return AggSpec{Fn: fn, Name: name, Args: args, Filter: filter,
		ArgTypes: argTypes, OutType: out, StateTypes: states}, nil
}

// HashAggregateExec implements vectorized hash aggregation with normalized
// group keys, a single-group fast path, a sorted-input streaming fast
// path, early partial flushing, and state spilling.
type HashAggregateExec struct {
	physical.OpMetrics
	Input      physical.ExecutionPlan
	Mode       AggMode
	GroupExprs []physical.PhysicalExpr
	GroupNames []string
	Aggs       []AggSpec
	// InputOrdered marks that the input is sorted on exactly the group
	// expressions, enabling streaming (partially ordered) aggregation.
	InputOrdered bool

	schema *arrow.Schema
}

// NewHashAggregateExec computes the operator's output schema from its mode.
func NewHashAggregateExec(input physical.ExecutionPlan, mode AggMode,
	groupExprs []physical.PhysicalExpr, groupNames []string, aggs []AggSpec) *HashAggregateExec {

	var fields []arrow.Field
	for i, g := range groupExprs {
		fields = append(fields, arrow.NewField(groupNames[i], g.DataType(), true))
	}
	if mode == PartialAgg {
		for i, a := range aggs {
			for j, st := range a.StateTypes {
				fields = append(fields, arrow.NewField(fmt.Sprintf("%s_state_%d_%d", a.Name, i, j), st, true))
			}
		}
	} else {
		for _, a := range aggs {
			fields = append(fields, arrow.NewField(a.Name, a.OutType, true))
		}
	}
	return &HashAggregateExec{
		Input: input, Mode: mode,
		GroupExprs: groupExprs, GroupNames: groupNames, Aggs: aggs,
		schema: arrow.NewSchema(fields...),
	}
}

func (e *HashAggregateExec) Schema() *arrow.Schema { return e.schema }
func (e *HashAggregateExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *HashAggregateExec) Partitions() int { return e.Input.Partitions() }
func (e *HashAggregateExec) OutputOrdering() []physical.SortField {
	return nil
}
func (e *HashAggregateExec) String() string {
	modes := [...]string{"Partial", "Final", "Single"}
	gs := make([]string, len(e.GroupExprs))
	for i, g := range e.GroupExprs {
		gs[i] = g.String()
	}
	ordered := ""
	if e.InputOrdered {
		ordered = " ordered"
	}
	return fmt.Sprintf("HashAggregateExec: mode=%s%s gby=[%s] aggr=[%s]",
		modes[e.Mode], ordered, strings.Join(gs, ", "), aggList(e.Aggs))
}

// aggList renders aggregates by output name, adding the accumulator that
// runs when the name does not already say it: "total (sum)", or
// "count(DISTINCT x) (count_distinct)" where that accumulator and not a
// nested group-by does the counting.
func aggList(aggs []AggSpec) string {
	as := make([]string, len(aggs))
	for i, a := range aggs {
		as[i] = a.Name
		if !strings.HasPrefix(a.Name, a.Fn.Name+"(") {
			as[i] += " (" + a.Fn.Name + ")"
		}
	}
	return strings.Join(as, ", ")
}
func (e *HashAggregateExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	out := *e
	out.Input = c
	return &out, nil
}

// aggState is one in-flight aggregation hash table plus accumulators.
type aggState struct {
	table *groupTable
	accs  []functions.GroupsAccumulator
}

func (e *HashAggregateExec) newState() (*aggState, error) {
	st := &aggState{}
	if len(e.GroupExprs) > 0 {
		types := make([]*arrow.DataType, len(e.GroupExprs))
		for i, g := range e.GroupExprs {
			types[i] = g.DataType()
		}
		var err error
		st.table, err = newGroupTable(types)
		if err != nil {
			return nil, err
		}
	}
	var err error
	st.accs, err = e.newAccs()
	return st, err
}

// newAccs builds one empty accumulator per aggregate.
func (e *HashAggregateExec) newAccs() ([]functions.GroupsAccumulator, error) {
	accs := make([]functions.GroupsAccumulator, len(e.Aggs))
	for i, a := range e.Aggs {
		acc, err := a.Fn.NewAccumulator(a.ArgTypes)
		if err != nil {
			return nil, err
		}
		accs[i] = acc
	}
	return accs, nil
}

func (st *aggState) numGroups() int {
	if st.table == nil {
		return 1
	}
	return st.table.numGroups()
}

// assign maps n rows of the key columns to group ids; an ungrouped
// aggregate puts every row in group 0 (groupIdx is never written with
// anything else there, so it stays zeroed across batches).
func (st *aggState) assign(cols []arrow.Array, n int, groupIdx []uint32) []uint32 {
	if st.table != nil {
		return st.table.assign(cols, n, groupIdx)
	}
	if cap(groupIdx) < n {
		return make([]uint32, n)
	}
	return groupIdx[:n]
}

// update consumes one input batch: raw rows in Partial/Single mode,
// partial states in Final mode.
func (e *HashAggregateExec) update(st *aggState, b *arrow.RecordBatch, groupIdx []uint32, scratch *physical.Scratch) ([]uint32, error) {
	cols, err := e.evalGroups(b)
	if err != nil {
		return groupIdx, err
	}
	groupIdx = st.assign(cols, b.NumRows(), groupIdx)
	if e.Mode == FinalAgg {
		return groupIdx, e.mergeStates(st.accs, b, groupIdx, st.numGroups())
	}
	return groupIdx, e.updateAccumulators(st.accs, b, groupIdx, st.numGroups(), scratch)
}

// evalGroups evaluates the group expressions over b.
func (e *HashAggregateExec) evalGroups(b *arrow.RecordBatch) ([]arrow.Array, error) {
	cols := make([]arrow.Array, len(e.GroupExprs))
	for i, g := range e.GroupExprs {
		a, err := physical.EvalToArray(g, b, nil)
		if err != nil {
			return nil, err
		}
		cols[i] = a
	}
	return cols, nil
}

// mergeStates feeds b's flattened state columns (which follow the group
// columns, in schema order) into the accumulators.
func (e *HashAggregateExec) mergeStates(accs []functions.GroupsAccumulator, b *arrow.RecordBatch, groupIdx []uint32, numGroups int) error {
	stateCol := len(e.GroupExprs)
	for ai := range e.Aggs {
		n := len(e.Aggs[ai].StateTypes)
		if err := accs[ai].MergeStates(b.Columns()[stateCol:stateCol+n], groupIdx, numGroups); err != nil {
			return err
		}
		stateCol += n
	}
	return nil
}

// emit renders the state as output batches (partial state columns or
// final values depending on mode).
func (e *HashAggregateExec) emit(st *aggState, batchRows int) ([]*arrow.RecordBatch, error) {
	numGroups := st.numGroups()
	if st.table == nil && e.Mode != PartialAgg {
		// Ungrouped aggregates emit one row even over empty input. Size
		// every accumulator to one group (a no-op when input was seen) so
		// aggregates with a non-null identity evaluate it — count() over
		// zero rows is 0, not NULL — instead of being padded with nulls.
		for ai := range e.Aggs {
			a := &e.Aggs[ai]
			var err error
			if e.Mode == FinalAgg {
				err = st.accs[ai].MergeStates(emptyArrays(a.StateTypes), nil, 1)
			} else {
				err = st.accs[ai].Update(emptyArrays(a.ArgTypes), nil, 1)
			}
			if err != nil {
				return nil, err
			}
		}
	} else if st.table != nil && numGroups == 0 {
		return nil, nil
	}

	var cols []arrow.Array
	if st.table != nil {
		gcols, err := st.table.groupColumns()
		if err != nil {
			return nil, err
		}
		cols = append(cols, gcols...)
	}
	for ai := range e.Aggs {
		if e.Mode == PartialAgg {
			states, err := st.accs[ai].State()
			if err != nil {
				return nil, err
			}
			// Accumulators size state arrays to groups they saw; pad.
			for _, s := range states {
				cols = append(cols, padArray(s, numGroups))
			}
		} else {
			out, err := st.accs[ai].Evaluate()
			if err != nil {
				return nil, err
			}
			cols = append(cols, padArray(out, numGroups))
		}
	}
	full := arrow.NewRecordBatchWithRows(e.schema, cols, numGroups)
	if batchRows <= 0 {
		batchRows = 8192
	}
	var out []*arrow.RecordBatch
	for off := 0; off < numGroups; off += batchRows {
		n := batchRows
		if off+n > numGroups {
			n = numGroups - off
		}
		out = append(out, full.Slice(off, n))
	}
	if numGroups == 0 {
		out = append(out, full)
	}
	return out, nil
}

// emptyArrays builds zero-length arrays of the given types (used to size
// accumulators without feeding rows).
func emptyArrays(types []*arrow.DataType) []arrow.Array {
	out := make([]arrow.Array, len(types))
	for i, t := range types {
		out[i] = arrow.NewBuilder(t).Finish()
	}
	return out
}

// padArray extends an array with nulls up to n rows (groups an
// accumulator never saw).
func padArray(a arrow.Array, n int) arrow.Array {
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

func (e *HashAggregateExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if e.CanPush() {
		return executePushed(ctx, partition, e)
	}
	in, err := e.Input.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	var s physical.Stream
	if e.InputOrdered && len(e.GroupExprs) > 0 && e.Mode != FinalAgg {
		s, err = e.executeOrdered(ctx, in)
	} else {
		s, err = e.executeHashed(ctx, in)
	}
	if err != nil {
		return nil, err
	}
	return physical.InstrumentStream(s, e.Metrics()), nil
}

// CanPush selects the push implementation for partial-mode hash
// aggregation: a partial agg never spills (it early-flushes under
// pressure), so it fits a push loop, while Final/Single modes are genuine
// pipeline breakers (executeHashed) and ordered inputs keep the streaming
// run-detection fast path (executeOrdered).
func (e *HashAggregateExec) CanPush() bool {
	return e.Mode == PartialAgg && !(e.InputOrdered && len(e.GroupExprs) > 0)
}

// Adaptive partial aggregation. A partial aggregate exists to shrink what
// crosses the exchange; when nearly every row is its own group it shrinks
// nothing and still pays for a hash table, a key encode and a key decode
// per row. So the pusher measures itself: over its first partialProbeRows
// input rows it counts the groups it created, and at partialProbeRatio or
// more groups per row it flushes, gives its memory back and converts each
// further batch straight to the partial-state layout (DESIGN.md §6 has the
// measurements behind the two constants).
const (
	partialProbeRows  = 100_000
	partialProbeRatio = 0.8
)

// PushInto compiles partial aggregation for a push loop.
func (e *HashAggregateExec) PushInto(ctx *physical.ExecContext, _ int) (physical.Pusher, error) {
	st, err := e.newState()
	if err != nil {
		return nil, err
	}
	m := e.Metrics()
	return &aggPusher{
		e: e, ctx: ctx, st: st, m: m,
		res:         memory.NewReservation(ctx.Pool, "HashAggregateExec"),
		unregister:  memory.RegisterConsumer(ctx.Pool),
		probing:     st.table != nil,
		groups:      m.Counter("groups"),
		earlyFlush:  m.Counter("early_flushes"),
		passthrough: m.Counter("passthrough_rows"),
	}, nil
}

// aggPusher accumulates partial aggregation state batch by batch. It
// early-flushes downstream on memory pressure, and stops accumulating
// altogether once its probe window shows it is not reducing its input.
type aggPusher struct {
	e          *HashAggregateExec
	ctx        *physical.ExecContext
	m          *physical.MetricsSet
	st         *aggState // nil once passing through
	res        *memory.Reservation
	unregister func()
	groupIdx   []uint32
	released   bool
	scratch    physical.Scratch

	// Probe window: input rows and groups created (flushed ones included)
	// while probing.
	probing     bool
	probeRows   int
	probeGroups int
	// identity is 0..n-1, the group ids of a batch whose every row is its
	// own group.
	identity []uint32

	groups, earlyFlush, passthrough *physical.Counter
}

func (p *aggPusher) Push(b *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	if p.st == nil {
		return false, p.passThrough(b, emit)
	}
	var err error
	p.groupIdx, err = p.e.update(p.st, b, p.groupIdx, &p.scratch)
	if err != nil {
		return false, err
	}
	if p.st.table == nil {
		return false, nil
	}
	if p.probing {
		p.probeRows += b.NumRows()
		if p.probeRows >= partialProbeRows {
			p.probing = false
			groups := p.probeGroups + p.st.table.numGroups()
			if float64(groups) >= partialProbeRatio*float64(p.probeRows) {
				err := p.flushTable(emit)
				p.st = nil
				p.release()
				return false, err
			}
		}
	}
	if err := p.res.Resize(p.st.table.memUsage()); err == nil {
		p.m.UpdateMemPeak(p.res.Size())
		return false, nil
	}
	// A partial aggregate never spills: under pressure it hands what it
	// holds downstream and starts over.
	p.earlyFlush.Add(1)
	if p.probing {
		p.probeGroups += p.st.table.numGroups()
	}
	if err := p.flushTable(emit); err != nil {
		return false, err
	}
	p.st.table.reset()
	p.st.accs, err = p.e.newAccs()
	p.res.Shrink(p.res.Size())
	return false, err
}

// flushTable emits the accumulated partial state downstream.
func (p *aggPusher) flushTable(emit physical.EmitFn) error {
	batches, err := p.e.emit(p.st, p.ctx.BatchRows)
	if err != nil {
		return err
	}
	for _, b := range batches {
		p.groups.Add(int64(b.NumRows()))
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// passThrough turns one input batch into the partial-state layout without
// grouping it: the group expressions' columns as they are, and per-row
// state columns from fresh accumulators run with every row as its own
// group. The final phase merges partial states of any provenance, so it
// cannot tell these rows from a flushed table's.
func (p *aggPusher) passThrough(b *arrow.RecordBatch, emit physical.EmitFn) error {
	n := b.NumRows()
	cols, err := p.e.evalGroups(b)
	if err != nil {
		return err
	}
	for i := len(p.identity); i < n; i++ {
		p.identity = append(p.identity, uint32(i))
	}
	accs, err := p.e.newAccs()
	if err != nil {
		return err
	}
	if err := p.e.updateAccumulators(accs, b, p.identity[:n], n, &p.scratch); err != nil {
		return err
	}
	for _, acc := range accs {
		states, err := acc.State()
		if err != nil {
			return err
		}
		for _, s := range states {
			cols = append(cols, padArray(s, n))
		}
	}
	p.passthrough.Add(int64(n))
	return emit(arrow.NewRecordBatchWithRows(p.e.schema, cols, n))
}

func (p *aggPusher) Flush(emit physical.EmitFn) error {
	if p.st == nil {
		return nil
	}
	return p.flushTable(emit)
}

// release returns the reservation and the pool-consumer slot; it runs at
// the switch to pass-through (which holds no memory) or at Close.
func (p *aggPusher) release() {
	if p.released {
		return
	}
	p.released = true
	p.res.Free()
	p.unregister()
}

func (p *aggPusher) Close() { p.release() }

// executeHashed is the Final/Single-mode breaker: it absorbs the whole
// input, spilling partial state under memory pressure, and emits once.
func (e *HashAggregateExec) executeHashed(ctx *physical.ExecContext, in physical.Stream) (physical.Stream, error) {
	st, err := e.newState()
	if err != nil {
		in.Close()
		return nil, err
	}
	res := memory.NewReservation(ctx.Pool, "HashAggregateExec")
	unregister := memory.RegisterConsumer(ctx.Pool)

	var queue []*arrow.RecordBatch
	var spills []*memory.SpillFile
	var groupIdx []uint32
	var scratch physical.Scratch
	inputDone := false

	cleanup := func() {
		in.Close()
		res.Free()
		unregister()
		for _, sp := range spills {
			sp.Release()
		}
		spills = nil
	}

	m := e.Metrics()
	groups := m.Counter("groups")
	// spillState writes the current state (as partial batches) to disk and
	// resets the table.
	spillState := func(cause error) error {
		if ctx.Disk == nil || !ctx.Disk.Enabled() {
			// Keep the reservation failure in the chain so callers (the
			// server's statusFor) can classify this as retryable pressure.
			if cause != nil {
				return fmt.Errorf("exec: aggregation exceeded memory budget and spilling is disabled: %w", cause)
			}
			return fmt.Errorf("exec: aggregation exceeded memory budget and spilling is disabled")
		}
		// Spill batches use the partial-state layout.
		partial := *e
		partial.Mode = PartialAgg
		batches, err := partial.emit(st, 65536)
		if err != nil {
			return err
		}
		sf, err := ctx.Disk.CreateTemp("agg")
		if err != nil {
			return err
		}
		var spilled int64
		for _, b := range batches {
			if err := arrow.WriteBatch(sf.File(), b); err != nil {
				return err
			}
			spilled += batchBytes(b)
		}
		m.AddSpill(spilled)
		spills = append(spills, sf)
		if st.table != nil {
			st.table.reset()
		}
		if st.accs, err = e.newAccs(); err != nil {
			return err
		}
		res.Shrink(res.Size())
		return nil
	}

	next := func() (*arrow.RecordBatch, error) {
		for {
			if len(queue) > 0 {
				b := queue[0]
				queue = queue[1:]
				return b, nil
			}
			if inputDone {
				return nil, io.EOF
			}
			if err := checkCancel(ctx); err != nil {
				return nil, err
			}
			b, err := in.Next()
			if err == io.EOF {
				inputDone = true
				// Merge spills (if any) into the final state.
				if len(spills) > 0 {
					if err := e.mergeSpills(ctx, st, spills); err != nil {
						return nil, err
					}
				}
				batches, err := e.emit(st, ctx.BatchRows)
				if err != nil {
					return nil, err
				}
				groups.Add(int64(st.numGroups()))
				queue = batches
				continue
			}
			if err != nil {
				return nil, err
			}
			if b.NumRows() == 0 {
				continue
			}
			groupIdx, err = e.update(st, b, groupIdx, &scratch)
			if err != nil {
				return nil, err
			}
			// Track the dominant memory consumer: the group table.
			if st.table != nil {
				if err := res.Resize(st.table.memUsage()); err == nil {
					m.UpdateMemPeak(res.Size())
				} else if serr := spillState(err); serr != nil {
					return nil, serr
				}
			}
		}
	}
	return NewFuncStream(e.schema, next, cleanup), nil
}

// mergeSpills re-merges spilled partial-state batches into the live state.
func (e *HashAggregateExec) mergeSpills(ctx *physical.ExecContext, st *aggState, spills []*memory.SpillFile) error {
	spillSchema := NewHashAggregateExec(e.Input, PartialAgg, e.GroupExprs, e.GroupNames, e.Aggs).Schema()
	var groupIdx []uint32
	for _, sf := range spills {
		f := sf.File()
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		for {
			b, err := arrow.ReadBatch(f, spillSchema)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			groupIdx, err = e.mergePartialBatch(st, b, groupIdx)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// mergePartialBatch merges one partial-layout batch (group columns first,
// whatever the operator's own group expressions read) into the state.
func (e *HashAggregateExec) mergePartialBatch(st *aggState, b *arrow.RecordBatch, groupIdx []uint32) ([]uint32, error) {
	groupIdx = st.assign(b.Columns()[:len(e.GroupExprs)], b.NumRows(), groupIdx)
	return groupIdx, e.mergeStates(st.accs, b, groupIdx, st.numGroups())
}

// executeOrdered is the streaming fast path for inputs sorted on the
// group keys (paper Section 6.7): groups are contiguous, so group indexes
// come from run detection — one key comparison per row instead of a hash
// table probe — and completed groups are emitted as soon as the key
// changes, keeping memory proportional to one batch of groups.
func (e *HashAggregateExec) executeOrdered(ctx *physical.ExecContext, in physical.Stream) (physical.Stream, error) {
	types := make([]*arrow.DataType, len(e.GroupExprs))
	for i, g := range e.GroupExprs {
		types[i] = g.DataType()
	}
	enc, err := rowformat.NewEncoder(types, nil)
	if err != nil {
		in.Close()
		return nil, err
	}

	st := &aggState{}
	if st.accs, err = e.newAccs(); err != nil {
		in.Close()
		return nil, err
	}
	// Run-detection state: keys of the groups accumulated since the last
	// flush (the last one may continue into the next batch).
	var runKeys [][]byte
	var queue []*arrow.RecordBatch
	inputDone := false

	emitRuns := func() ([]*arrow.RecordBatch, error) {
		if len(runKeys) == 0 {
			return nil, nil
		}
		gcols, err := enc.DecodeRows(runKeys)
		if err != nil {
			return nil, err
		}
		cols := append([]arrow.Array{}, gcols...)
		for ai := range e.Aggs {
			if e.Mode == PartialAgg {
				states, err := st.accs[ai].State()
				if err != nil {
					return nil, err
				}
				for _, s := range states {
					cols = append(cols, padArray(s, len(runKeys)))
				}
			} else {
				out, err := st.accs[ai].Evaluate()
				if err != nil {
					return nil, err
				}
				cols = append(cols, padArray(out, len(runKeys)))
			}
		}
		batch := arrow.NewRecordBatchWithRows(e.schema, cols, len(runKeys))
		runKeys = nil
		if st.accs, err = e.newAccs(); err != nil {
			return nil, err
		}
		return []*arrow.RecordBatch{batch}, nil
	}

	var groupIdx []uint32
	var scratch physical.Scratch
	next := func() (*arrow.RecordBatch, error) {
		for {
			if len(queue) > 0 {
				b := queue[0]
				queue = queue[1:]
				return b, nil
			}
			if inputDone {
				return nil, io.EOF
			}
			b, err := in.Next()
			if err == io.EOF {
				inputDone = true
				batches, ferr := emitRuns()
				if ferr != nil {
					return nil, ferr
				}
				queue = batches
				continue
			}
			if err != nil {
				return nil, err
			}
			n := b.NumRows()
			if n == 0 {
				continue
			}
			cols := make([]arrow.Array, len(e.GroupExprs))
			for i, g := range e.GroupExprs {
				a, err := physical.EvalToArray(g, b, nil)
				if err != nil {
					return nil, err
				}
				cols[i] = a
			}
			keys := enc.EncodeRows(cols, n)
			// Assign group indexes by run detection, continuing the open
			// run from the previous batch when the key matches.
			groupIdx = groupIdx[:0]
			for i := 0; i < n; i++ {
				if len(runKeys) == 0 || string(keys[i]) != string(runKeys[len(runKeys)-1]) {
					runKeys = append(runKeys, append([]byte(nil), keys[i]...))
				}
				groupIdx = append(groupIdx, uint32(len(runKeys)-1))
			}
			if err := e.updateAccumulators(st.accs, b, groupIdx, len(runKeys), &scratch); err != nil {
				return nil, err
			}
			// All groups except the still-open last one are complete; emit
			// once enough accumulate.
			if len(runKeys) >= 4096 {
				// Keep the open run: emit all but the last group.
				lastKey := runKeys[len(runKeys)-1]
				completed := runKeys[:len(runKeys)-1]
				savedAccs := st.accs
				// Emit the completed prefix by rebuilding state for the
				// open run from its partial states.
				gcols, err := enc.DecodeRows(completed)
				if err != nil {
					return nil, err
				}
				outCols := append([]arrow.Array{}, gcols...)
				var lastStates [][]arrow.Array
				for ai := range e.Aggs {
					states, err := savedAccs[ai].State()
					if err != nil {
						return nil, err
					}
					var emitPart []arrow.Array
					var lastPart []arrow.Array
					for _, s := range states {
						padded := padArray(s, len(runKeys))
						emitPart = append(emitPart, padded.Slice(0, len(completed)))
						lastPart = append(lastPart, padded.Slice(len(completed), 1))
					}
					if e.Mode == PartialAgg {
						outCols = append(outCols, emitPart...)
					} else {
						// Rebuild a truncated accumulator to evaluate.
						acc, err := e.Aggs[ai].Fn.NewAccumulator(e.Aggs[ai].ArgTypes)
						if err != nil {
							return nil, err
						}
						idx := make([]uint32, len(completed))
						for k := range idx {
							idx[k] = uint32(k)
						}
						if err := acc.MergeStates(emitPart, idx, len(completed)); err != nil {
							return nil, err
						}
						out, err := acc.Evaluate()
						if err != nil {
							return nil, err
						}
						outCols = append(outCols, padArray(out, len(completed)))
					}
					lastStates = append(lastStates, lastPart)
				}
				queue = append(queue, arrow.NewRecordBatchWithRows(e.schema, outCols, len(completed)))
				// Restart state holding only the open run.
				if st.accs, err = e.newAccs(); err != nil {
					return nil, err
				}
				for ai := range e.Aggs {
					if err := st.accs[ai].MergeStates(lastStates[ai], []uint32{0}, 1); err != nil {
						return nil, err
					}
				}
				runKeys = [][]byte{lastKey}
			}
		}
	}
	return NewFuncStream(e.schema, next, in.Close), nil
}

// updateAccumulators feeds one batch of raw rows into the accumulators
// with the given group assignment (shared by the hash, run-detection and
// pass-through paths). Arguments and FILTER masks evaluate into scratch:
// an accumulator's Update is done with its arguments when it returns.
func (e *HashAggregateExec) updateAccumulators(accs []functions.GroupsAccumulator, b *arrow.RecordBatch, groupIdx []uint32, numGroups int, scratch *physical.Scratch) error {
	for ai := range e.Aggs {
		a := &e.Aggs[ai]
		args := make([]arrow.Array, len(a.Args))
		for j, ax := range a.Args {
			arr, err := physical.EvalToArray(ax, b, scratch)
			if err != nil {
				return err
			}
			args[j] = arr
		}
		gi := groupIdx
		if a.Filter != nil {
			mask, err := physical.EvalPredicate(a.Filter, b, scratch)
			if err != nil {
				return err
			}
			var indices []int32
			for i := 0; i < b.NumRows(); i++ {
				if mask.IsValid(i) && mask.Value(i) {
					indices = append(indices, int32(i))
				}
			}
			for j := range args {
				args[j] = compute.Take(args[j], indices)
			}
			fgi := make([]uint32, len(indices))
			for k, idx := range indices {
				fgi[k] = groupIdx[idx]
			}
			gi = fgi
		}
		if err := accs[ai].Update(args, gi, numGroups); err != nil {
			return err
		}
	}
	return nil
}
