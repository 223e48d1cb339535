package exec

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/functions"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
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
	// hashed counts the rows the table hashed itself (nil: not counted).
	hashed *physical.Counter
}

func (e *HashAggregateExec) newState() (*aggState, error) {
	st := &aggState{}
	if len(e.GroupExprs) > 0 {
		var err error
		if st.table, err = newGroupTable(exprTypes(e.GroupExprs)); err != nil {
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
// anything else there, so it stays zeroed across batches). hashes are the
// rows' hashes when the exchange below handed them over; nil makes the
// table hash the rows itself.
func (st *aggState) assign(cols []arrow.Array, n int, hashes []uint64, groupIdx []uint32) ([]uint32, error) {
	if st.table != nil {
		if hashes != nil {
			return st.table.assignHashed(cols, n, hashes, groupIdx)
		}
		if st.hashed != nil {
			st.hashed.Add(int64(n))
		}
		return st.table.assign(cols, n, groupIdx)
	}
	if cap(groupIdx) < n {
		return make([]uint32, n), nil
	}
	return groupIdx[:n], nil
}

// update consumes one input batch: raw rows in Partial/Single mode,
// partial states in Final mode. hashes are as for assign.
func (e *HashAggregateExec) update(st *aggState, b *arrow.RecordBatch, hashes []uint64, groupIdx []uint32, scratch *physical.Scratch) ([]uint32, error) {
	cols, err := e.evalGroups(b)
	if err != nil {
		return groupIdx, err
	}
	if groupIdx, err = st.assign(cols, b.NumRows(), hashes, groupIdx); err != nil {
		return groupIdx, err
	}
	return groupIdx, e.accumulate(st.accs, b, groupIdx, st.numGroups(), scratch)
}

// accumulate feeds rows already assigned to groups into the accumulators.
func (e *HashAggregateExec) accumulate(accs []functions.GroupsAccumulator, b *arrow.RecordBatch, groupIdx []uint32, numGroups int, scratch *physical.Scratch) error {
	if e.Mode == FinalAgg {
		return e.mergeStates(accs, b, groupIdx, numGroups)
	}
	return e.updateAccumulators(accs, b, groupIdx, numGroups, scratch)
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

// emit renders the state's first n groups as output batches (partial
// state columns or final values depending on mode).
func (e *HashAggregateExec) emit(st *aggState, n, batchRows int) ([]*arrow.RecordBatch, error) {
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
	} else if st.table != nil && n == 0 {
		return nil, nil
	}

	var cols []arrow.Array
	if st.table != nil {
		for _, c := range st.table.groupColumns() {
			if c.Len() > n {
				c = c.Slice(0, n)
			}
			cols = append(cols, c)
		}
	}
	for ai := range e.Aggs {
		if e.Mode == PartialAgg {
			states, err := st.accs[ai].State()
			if err != nil {
				return nil, err
			}
			// Accumulators size state arrays to groups they saw; pad.
			for _, s := range states {
				cols = append(cols, padArray(s, n))
			}
		} else {
			out, err := st.accs[ai].Evaluate()
			if err != nil {
				return nil, err
			}
			cols = append(cols, padArray(out, n))
		}
	}
	full := arrow.NewRecordBatchWithRows(e.schema, cols, n)
	if batchRows <= 0 {
		batchRows = 8192
	}
	var out []*arrow.RecordBatch
	for off := 0; off < n; off += batchRows {
		out = append(out, full.Slice(off, min(batchRows, n-off)))
	}
	if n == 0 {
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

// Execute runs the aggregate as a one-stage push loop over its input; in
// every mode the operator is its aggPusher.
func (e *HashAggregateExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, e)
}

// CanPush is true in every mode: a pipeline breaker is a push stage that
// emits at Flush.
func (e *HashAggregateExec) CanPush() bool { return true }

// Adaptive partial aggregation. A partial aggregate exists to shrink what
// crosses the exchange; when nearly every row is its own group it shrinks
// nothing and still pays for a hash table and a stored copy of every key.
// So the pusher measures itself over a probe window of its first
// partialProbeRows input rows: once the groups it created per row show
// that the window would end at partialProbeRatio or more (probeVerdict),
// it flushes, gives its memory back and converts each further batch
// straight to the partial-state layout (DESIGN.md §6 has the derivation
// and the measurements behind the constants).
const (
	partialProbeRows  = 100_000
	partialProbeRatio = 0.8
	// partialProbeMinRows is one default batch: over fewer rows the ratio
	// tells too little to act on.
	partialProbeMinRows = 8192
)

// partialProbeScale is the x that solves distinctRatio(x) =
// partialProbeRatio (≈ 0.4642): n rows drawn uniformly from D keys hold
// distinctRatio(n/D)·n groups in expectation, so the window ends at
// partialProbeRatio groups per row exactly when D = partialProbeRows /
// partialProbeScale.
var partialProbeScale = func() float64 {
	lo, hi := 0.0, 1/partialProbeRatio // distinctRatio(1/r) < r
	for range 64 {
		if mid := (lo + hi) / 2; distinctRatio(mid) > partialProbeRatio {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}()

// distinctRatio is (1−e^{−x})/x, the expected groups per row after x·D
// uniform draws from D keys; it falls from 1 as x grows.
func distinctRatio(x float64) float64 {
	if x == 0 {
		return 1
	}
	return -math.Expm1(-x) / x
}

// probeVerdict judges the probe window after n rows that created d groups.
// pass: the partial aggregate passes through from now on. done: the window
// is over. Before the window ends d/n must reach distinctRatio at
// partialProbeScale·n/partialProbeRows, which only a key count at which
// the whole window would reach partialProbeRatio produces (distinctRatio
// falls, so a smaller D shows fewer groups per row at every n); at the end
// of the window that threshold is partialProbeRatio itself.
func probeVerdict(d, n int) (pass, done bool) {
	switch {
	case n < partialProbeMinRows:
		return false, false
	case n >= partialProbeRows:
		return float64(d) >= partialProbeRatio*float64(n), true
	}
	return float64(d) >= distinctRatio(partialProbeScale*float64(n)/partialProbeRows)*float64(n), false
}

// PushInto compiles the aggregate for a push loop.
func (e *HashAggregateExec) PushInto(ctx *physical.ExecContext, partition int) (physical.Pusher, error) {
	st, err := e.newState()
	if err != nil {
		return nil, err
	}
	m := e.Metrics()
	st.hashed = m.Counter("hashed_rows")
	p := &aggPusher{
		e: e, ctx: ctx, st: st, m: m,
		ordered: e.InputOrdered && st.table != nil,
		res:     memory.NewReservation(ctx.Pool, "HashAggregateExec"),
		groups:  m.Counter("groups"),
		handed:  handedHashes(e.Input, e.GroupExprs, partition),
	}
	if e.Mode == PartialAgg && !p.ordered {
		p.probing = st.table != nil
		p.earlyFlush = m.Counter("early_flushes")
		p.passthrough = m.Counter("passthrough_rows")
	}
	return p, nil
}

// aggPusher is every aggregation loop: it accumulates batch by batch and
// emits at Flush, except that an ordered aggregate emits completed groups
// as it goes. Under memory pressure a partial aggregate flushes its table
// downstream (and stops grouping altogether once its probe window shows it
// is not reducing its input), a Final/Single one spills it, and an ordered
// one emits its completed groups early.
type aggPusher struct {
	e        *HashAggregateExec
	ctx      *physical.ExecContext
	m        *physical.MetricsSet
	st       *aggState // nil once passing through
	res      *memory.Reservation
	groupIdx []uint32
	released bool
	scratch  physical.Scratch
	// ordered marks grouped input sorted on the group keys (pushOrdered).
	ordered bool
	// handed returns the row hashes the hash exchange below computed for a
	// batch it delivered, nil for any other batch; nil when the input is
	// no exchange on the group keys.
	handed func(*arrow.RecordBatch) []uint64

	// spills hold the Final/Single table's spilled partial states, in the
	// layout of spillAs, until Flush merges them back.
	spills  []*memory.SpillFile
	spillAs *HashAggregateExec

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
	if p.ordered {
		return false, p.pushOrdered(b, emit)
	}
	var hashes []uint64
	if p.handed != nil {
		hashes = p.handed(b)
	}
	var err error
	p.groupIdx, err = p.e.update(p.st, b, hashes, p.groupIdx, &p.scratch)
	if err != nil || p.st.table == nil {
		return false, err
	}
	if p.probing {
		p.probeRows += b.NumRows()
		pass, done := probeVerdict(p.probeGroups+p.st.table.numGroups(), p.probeRows)
		p.probing = !done
		if pass {
			err := p.flushTable(emit)
			p.st = nil
			p.release()
			return false, err
		}
	}
	cause := p.reserve()
	if cause == nil {
		return false, nil
	}
	switch p.e.Mode {
	case PartialAgg:
		// A partial aggregate never spills: under pressure it hands what it
		// holds downstream and starts over.
		p.earlyFlush.Add(1)
		if p.probing {
			p.probeGroups += p.st.table.numGroups()
		}
		err = p.flushTable(emit)
	default:
		err = p.spill(cause)
	}
	if err != nil {
		return false, err
	}
	return false, p.restart()
}

// pushOrdered is Push over input sorted on the group keys (paper Section
// 6.7). Groups then arrive as contiguous runs, so every group but the last
// one assigned — the open run, which may continue into the next batch — is
// complete. Once the table holds a batch of groups, or its reservation is
// refused, the pusher cuts the batch where the open run starts, emits the
// groups before it and starts over with the open run as group 0. It holds
// at most about one batch of groups and never spills: a group emitted
// early and later merged from a spill file would be output twice. Input
// that is not sorted as declared yields duplicate groups, never a crash.
func (p *aggPusher) pushOrdered(b *arrow.RecordBatch, emit physical.EmitFn) error {
	cols, err := p.e.evalGroups(b)
	if err != nil {
		return err
	}
	n, before := b.NumRows(), p.st.table.numGroups()
	if p.groupIdx, err = p.st.assign(cols, n, nil, p.groupIdx); err != nil {
		return err
	}
	open := p.st.table.numGroups() - 1
	// Only a run that starts in this batch can be cut off at a row of it.
	if open == 0 || open < before || open+1 < batchRows(p.ctx) && p.reserve() == nil {
		return p.e.accumulate(p.st.accs, b, p.groupIdx, open+1, &p.scratch)
	}
	cut := n
	for cut > 0 && p.groupIdx[cut-1] == uint32(open) {
		cut--
	}
	complete := open
	if slices.Contains(p.groupIdx[:cut], uint32(open)) {
		// The open group has rows before its final run: the input is not
		// sorted as declared. Emit the whole table rather than split the
		// group's state; like any group of such input it may then appear
		// twice in the output.
		cut, complete = n, open+1
	}
	if err := p.e.accumulate(p.st.accs, b.Slice(0, cut), p.groupIdx[:cut], complete, &p.scratch); err != nil {
		return err
	}
	if err := p.flushGroups(complete, emit); err != nil {
		return err
	}
	if err := p.restart(); err != nil || cut == n {
		return err
	}
	for i, c := range cols {
		cols[i] = c.Slice(cut, n-cut)
	}
	if p.groupIdx, err = p.st.assign(cols, n-cut, nil, p.groupIdx); err != nil {
		return err
	}
	return p.e.accumulate(p.st.accs, b.Slice(cut, n-cut), p.groupIdx, 1, &p.scratch)
}

// reserve charges the group table's footprint to the reservation.
func (p *aggPusher) reserve() error {
	if err := p.res.Resize(p.st.table.memUsage()); err != nil {
		return err
	}
	p.m.UpdateMemPeak(p.res.Size())
	return nil
}

// restart empties the table and the accumulators after their groups went
// downstream or to disk.
func (p *aggPusher) restart() error {
	p.st.table.reset()
	p.res.Shrink(p.res.Size())
	var err error
	p.st.accs, err = p.e.newAccs()
	return err
}

// flushTable emits every group the state holds.
func (p *aggPusher) flushTable(emit physical.EmitFn) error {
	return p.flushGroups(p.st.numGroups(), emit)
}

// flushGroups emits the state's first n groups downstream.
func (p *aggPusher) flushGroups(n int, emit physical.EmitFn) error {
	batches, err := p.e.emit(p.st, n, p.ctx.BatchRows)
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

// spill writes the table to a new spill file in the partial-state layout.
func (p *aggPusher) spill(cause error) error {
	if p.ctx.Disk == nil {
		// Keep the reservation failure in the chain so callers (the
		// server's statusFor) can classify this as retryable pressure.
		return fmt.Errorf("exec: aggregation exceeded memory budget and spilling is disabled: %w", cause)
	}
	if p.spillAs == nil {
		e := p.e
		p.spillAs = NewHashAggregateExec(e.Input, PartialAgg, e.GroupExprs, e.GroupNames, e.Aggs)
	}
	batches, err := p.spillAs.emit(p.st, p.st.numGroups(), 65536)
	if err != nil {
		return err
	}
	sf, err := p.ctx.Disk.CreateTemp("agg")
	if err != nil {
		return err
	}
	p.spills = append(p.spills, sf)
	var spilled int64
	for _, b := range batches {
		if err := arrow.WriteBatch(sf.File(), b); err != nil {
			return err
		}
		spilled += batchBytes(b)
	}
	p.m.AddSpill(spilled)
	return nil
}

// mergeSpills merges the spilled partial states back into the live table.
func (p *aggPusher) mergeSpills() error {
	for _, sf := range p.spills {
		f := sf.File()
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return err
		}
		for {
			if err := checkCancel(p.ctx); err != nil {
				return err
			}
			b, err := arrow.ReadBatch(f, p.spillAs.Schema())
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			// Group columns come first, whatever the group expressions read.
			if p.groupIdx, err = p.st.assign(b.Columns()[:len(p.e.GroupExprs)], b.NumRows(), nil, p.groupIdx); err != nil {
				return err
			}
			if err := p.e.mergeStates(p.st.accs, b, p.groupIdx, p.st.numGroups()); err != nil {
				return err
			}
		}
	}
	p.releaseSpills()
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
	if len(p.spills) > 0 {
		if err := p.mergeSpills(); err != nil {
			return err
		}
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
}

func (p *aggPusher) releaseSpills() {
	for _, sf := range p.spills {
		sf.Release()
	}
	p.spills = nil
}

func (p *aggPusher) Close() {
	p.release()
	p.releaseSpills()
}

// updateAccumulators feeds one batch of raw rows into the accumulators
// with the given group assignment (shared by grouping and pass-through). Arguments and FILTER masks evaluate into scratch:
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
