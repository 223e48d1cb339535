package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
)

// JoinOn is one equality pair: an expression over the left input and one
// over the right input.
type JoinOn struct {
	L physical.PhysicalExpr
	R physical.PhysicalExpr
}

// joinKeyExprs splits the pairs into their left and right expressions.
func joinKeyExprs(on []JoinOn) (left, right []physical.PhysicalExpr) {
	for _, p := range on {
		left, right = append(left, p.L), append(right, p.R)
	}
	return left, right
}

// JoinFilter is a join's residual predicate (DataFusion's JoinFilter). Expr
// reads a batch of only the columns the predicate references: its column i
// is column Columns[i] of the join's left ++ right inputs. A candidate pair
// gathers those columns and no others.
type JoinFilter struct {
	Expr    physical.PhysicalExpr
	Columns []int
}

// joinCore is the build and the probe that HashJoinExec, NestedLoopJoinExec
// and SortMergeJoinExec share (paper Section 6.4). The left input is the
// build side and the join's only pipeline breaker: it is collected into one
// batch, charged to the memory pool, when the probe starts. The right input
// streams through joinProbe, a push stage that fuses with the operators
// around it. The three joins differ only in how a probe row finds its
// candidate build rows (joinOp's index and lookup).
type joinCore struct {
	physical.OpMetrics
	Left  physical.ExecutionPlan
	Right physical.ExecutionPlan
	// On are the equality pairs of the hash and merge joins (none for the
	// nested-loop join).
	On     []JoinOn
	Filter *JoinFilter // nil: no residual predicate
	Type   logical.JoinType
	// Projection lists the emitted columns as indexes into the join's full
	// output (left ++ right, or the one side a semi or anti join emits);
	// nil emits all of them.
	Projection []int

	// op is the join that embeds the core; name is its type's, for EXPLAIN
	// and the memory pool.
	op     joinOp
	name   string
	schema *arrow.Schema
	// out says where each emitted column comes from, filterCols where each
	// column of the filter's batch does, under filterSchema.
	out          []joinCol
	filterCols   []joinCol
	filterSchema *arrow.Schema

	buildOnce sync.Once
	built     *builtTable
	buildErr  error
}

// joinOp is a join over a joinCore: what the core asks of the operator
// that embeds it.
type joinOp interface {
	physical.Pushable
	physical.MetricsProvider
	core() *joinCore
	// with returns a copy of the join over left and right that emits the
	// columns cols of its full output (nil: all of them) under schema (nil:
	// the fields they name).
	with(left, right physical.ExecutionPlan, cols []int, schema *arrow.Schema) joinOp
	// index links the rows of the collected build bt.batch into the
	// chains of candidates bt.next, charging what it allocates to bt.res,
	// and returns what makes each probe partition's lookup into them.
	index(bt *builtTable) (newLookup func(partition int) lookupFn, err error)
}

// lookupFn sets first[i] to the first candidate build row of probe row i
// of rb, -1 for none. Each probe partition makes its own, so it may keep
// scratch, or its place in the build, from one batch to the next.
type lookupFn func(rb *arrow.RecordBatch, first []int32) error

// joinCol is one column of the build (left) or the probe (right) input.
type joinCol struct {
	left bool
	idx  int
}

// init sets c up as the core of op, the named join of left and right
// emitting the columns cols of its full output (nil: all of them) under
// schema (nil: the fields they name).
func (c *joinCore) init(op joinOp, name string, left, right physical.ExecutionPlan, on []JoinOn,
	filter *JoinFilter, jt logical.JoinType, cols []int, schema *arrow.Schema) {
	full := joinOutputSchema(left.Schema(), right.Schema(), jt)
	var all []joinCol
	switch jt {
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		all = sideCols(true, left.Schema().NumFields())
	case logical.RightSemiJoin, logical.RightAntiJoin:
		all = sideCols(false, right.Schema().NumFields())
	default:
		all = append(sideCols(true, left.Schema().NumFields()), sideCols(false, right.Schema().NumFields())...)
	}
	out, fields := all, full.Fields()
	if cols != nil {
		out, fields = make([]joinCol, len(cols)), make([]arrow.Field, len(cols))
		for i, col := range cols {
			out[i], fields[i] = all[col], full.Field(col)
		}
	}
	if schema == nil {
		schema = arrow.NewSchema(fields...)
	}
	c.Left, c.Right, c.On, c.Filter, c.Type, c.Projection = left, right, on, filter, jt, cols
	c.op, c.name, c.schema, c.out = op, name, schema, out
	if filter != nil {
		both := append(sideCols(true, left.Schema().NumFields()), sideCols(false, right.Schema().NumFields())...)
		inner := joinOutputSchema(left.Schema(), right.Schema(), logical.InnerJoin)
		c.filterCols, fields = make([]joinCol, len(filter.Columns)), make([]arrow.Field, len(filter.Columns))
		for i, col := range filter.Columns {
			c.filterCols[i], fields[i] = both[col], inner.Field(col)
		}
		c.filterSchema = arrow.NewSchema(fields...)
	}
}

func sideCols(left bool, n int) []joinCol {
	cols := make([]joinCol, n)
	for i := range cols {
		cols[i] = joinCol{left: left, idx: i}
	}
	return cols
}

func joinOutputSchema(l, r *arrow.Schema, jt logical.JoinType) *arrow.Schema {
	nullable := func(s *arrow.Schema) []arrow.Field {
		fields := make([]arrow.Field, s.NumFields())
		for i, f := range s.Fields() {
			f.Nullable = true
			fields[i] = f
		}
		return fields
	}
	switch jt {
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		return l
	case logical.RightSemiJoin, logical.RightAntiJoin:
		return r
	case logical.LeftJoin:
		return arrow.NewSchema(append(append([]arrow.Field{}, l.Fields()...), nullable(r)...)...)
	case logical.RightJoin:
		return arrow.NewSchema(append(nullable(l), r.Fields()...)...)
	case logical.FullJoin:
		return arrow.NewSchema(append(nullable(l), nullable(r)...)...)
	default:
		return arrow.NewSchema(append(append([]arrow.Field{}, l.Fields()...), r.Fields()...)...)
	}
}

func (c *joinCore) core() *joinCore                      { return c }
func (c *joinCore) Schema() *arrow.Schema                { return c.schema }
func (c *joinCore) Partitions() int                      { return c.Right.Partitions() }
func (c *joinCore) CanPush() bool                        { return true }
func (c *joinCore) String() string                       { return c.describe("") }
func (c *joinCore) OutputOrdering() []physical.SortField { return nil }
func (c *joinCore) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{c.Left, c.Right}
}

// describe renders the EXPLAIN line with the operator's own fields in the
// middle.
func (c *joinCore) describe(fields string) string {
	s := fmt.Sprintf("%s: type=%s%s", c.name, c.Type, fields)
	if c.On != nil {
		s += fmt.Sprintf(" on=%d keys", len(c.On))
	}
	if c.Filter != nil {
		s += " filter=" + c.Filter.Expr.String()
	}
	if c.Projection != nil {
		s += fmt.Sprintf(" projection=%v", c.Projection)
	}
	return s
}

// emitted returns the output position of the input column idx of the left
// (or right) input, -1 when the join does not emit it.
func (c *joinCore) emitted(left bool, idx int) int {
	for i, o := range c.out {
		if o == (joinCol{left: left, idx: idx}) {
			return i
		}
	}
	return -1
}

func (c *joinCore) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("exec: join takes 2 children")
	}
	return c.op.with(ch[0], ch[1], c.Projection, c.schema), nil
}

// Execute runs the probe as a one-stage push loop over the right input.
func (c *joinCore) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, c.op)
}

// PushInto builds once for every partition and compiles the probe of one.
func (c *joinCore) PushInto(ctx *physical.ExecContext, partition int) (physical.Pusher, error) {
	return c.pushInto(ctx, partition, false)
}

// owesBuildRows reports the join types that emit build rows once the probe
// has ended, and so track which build rows matched. The others decide
// every output row per probe batch, so their probe may stream without end.
func owesBuildRows(jt logical.JoinType) bool {
	switch jt {
	case logical.LeftJoin, logical.FullJoin, logical.LeftSemiJoin, logical.LeftAntiJoin:
		return true
	}
	return false
}

// builtTable is the build side: the concatenated left input, and per probe
// row the chain of its candidate build rows. next chains each build row to
// the next candidate (-1 ends a chain); where a chain starts is the
// business of the joinOp's index, which newLookup reads.
type builtTable struct {
	batch     *arrow.RecordBatch
	next      []int32
	newLookup func(partition int) lookupFn
	// hashes are the build keys' row hashes when the exchange below sent
	// them with every batch, else nil; index may use them instead of
	// hashing the keys.
	hashes []uint64
	// visited marks the build rows matched (outer/semi/anti tracking), nil
	// when the join owes none. Every probe partition of the table marks
	// it under vmu; open counts the partitions not yet flushed, and the
	// one that flushes last emits the owed rows.
	visited []bool
	vmu     sync.Mutex
	open    atomic.Int32

	// res charges the batch and the table to the pool; it is freed when
	// the last open probe closes (users drops to zero). A probe partition
	// that opens after that still reads the table, uncharged.
	res   *memory.Reservation
	users atomic.Int32
	freed atomic.Bool
}

func (bt *builtTable) acquire() { bt.users.Add(1) }

func (bt *builtTable) release() {
	if bt.users.Add(-1) == 0 && bt.freed.CompareAndSwap(false, true) {
		bt.res.Free()
	}
}

// build turns the drained left input into the probe's table, charging it
// to a new reservation. Over budget it fails with the pool's typed error.
// hashes are the batches' key hashes, concatenated, or nil.
// probes is the number of probe partitions that share the table.
func (c *joinCore) build(ctx *physical.ExecContext, batches []*arrow.RecordBatch, hashes []uint64, probes int) (*builtTable, error) {
	res := memory.NewReservation(ctx.Pool, c.name)
	bt, err := c.buildTable(batches, hashes, res)
	if err != nil {
		res.Free()
		return nil, err
	}
	bt.open.Store(int32(probes))
	c.Metrics().UpdateMemPeak(res.Size())
	return bt, nil
}

func (c *joinCore) buildTable(batches []*arrow.RecordBatch, hashes []uint64, res *memory.Reservation) (*builtTable, error) {
	batch, err := compute.ConcatBatches(c.Left.Schema(), batches)
	if err != nil {
		return nil, err
	}
	if err := res.Grow(arrow.BatchSize(batch)); err != nil {
		return nil, err
	}
	bt := &builtTable{batch: batch, res: res, hashes: hashes}
	bt.newLookup, err = c.op.index(bt)
	bt.hashes = nil
	if err != nil {
		return nil, err
	}
	if owesBuildRows(c.Type) {
		if err := res.Grow(int64(batch.NumRows())); err != nil {
			return nil, err
		}
		bt.visited = make([]bool, batch.NumRows())
	}
	return bt, nil
}

// sharedBuild builds the table once from all left partitions
// (CollectLeft). sync.Once rather than a mutex around the build: the
// build drives the whole left subtree through CollectPlan, and a named
// lock held across that would pin every probe partition behind a lock
// class other code could order against (lockorder flags it). Once gives
// the same run-exactly-once / later-callers-wait semantics with the
// result fields published by its happens-before edge.
func (c *joinCore) sharedBuild(ctx *physical.ExecContext) (*builtTable, error) {
	c.buildOnce.Do(func() {
		batches, err := CollectPlan(ctx, c.Left)
		if err != nil {
			c.buildErr = err
			return
		}
		c.built, c.buildErr = c.build(ctx, batches, nil, c.Right.Partitions())
		if c.buildErr == nil {
			// The shared build is counted once, not once per probe.
			c.Metrics().Counter("build_rows").Store(int64(c.built.batch.NumRows()))
		}
	})
	return c.built, c.buildErr
}

// pushInto builds (shared: once for every partition; partitioned: from
// this partition's left input) and compiles the probe of one partition.
func (c *joinCore) pushInto(ctx *physical.ExecContext, partition int, partitioned bool) (physical.Pusher, error) {
	var bt *builtTable
	var err error
	if partitioned {
		bt, err = c.partitionBuild(ctx, partition)
	} else {
		bt, err = c.sharedBuild(ctx)
	}
	if err != nil {
		return nil, err
	}
	bt.acquire()
	return &joinProbe{c: c, bt: bt, lookup: bt.newLookup(partition), limit: batchRows(ctx), probeRows: c.Metrics().Counter("probe_rows")}, nil
}

// partitionBuild builds from this partition's left input, with the key
// hashes of the exchange that delivered it when it sent them.
func (c *joinCore) partitionBuild(ctx *physical.ExecContext, partition int) (*builtTable, error) {
	s, err := c.Left.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	keys, _ := joinKeyExprs(c.On)
	batches, hashes, err := drainHashed(ctx, s, handedHashes(c.Left, keys, partition))
	if err != nil {
		return nil, err
	}
	bt, err := c.build(ctx, batches, hashes, 1)
	if err == nil {
		c.Metrics().Counter("build_rows").Add(int64(bt.batch.NumRows()))
	}
	return bt, err
}

// drainHashed reads s to its end like drainAll and also concatenates the
// row hashes handed finds for each batch; they are nil unless every batch
// came with its hashes.
func drainHashed(ctx *physical.ExecContext, s physical.Stream, handed func(*arrow.RecordBatch) []uint64) ([]*arrow.RecordBatch, []uint64, error) {
	defer s.Close()
	var batches []*arrow.RecordBatch
	var hashes []uint64
	whole := handed != nil
	err := forEachBatch(ctx, s, func(b *arrow.RecordBatch) error {
		batches = append(batches, b)
		if whole {
			h := handed(b)
			whole = h != nil
			hashes = append(hashes, h...)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if !whole {
		hashes = nil
	}
	return batches, hashes, nil
}

// joinProbe is one partition's probe. It owns its lookup, so concurrent
// partitions probe one shared read-only table. Output batches hold at most
// limit rows.
type joinProbe struct {
	c         *joinCore
	bt        *builtTable
	lookup    lookupFn
	limit     int
	probeRows *physical.Counter
	released  bool
	// scratch holds the residual filter's results, which die in matchPairs.
	scratch physical.Scratch

	// first is per probe row the first candidate build row, -1 for none.
	first   []int32
	li, ri  []int32
	matched []bool
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (p *joinProbe) Push(rb *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	p.probeRows.Add(int64(rb.NumRows()))
	p.first = growInt32(p.first, rb.NumRows())
	if err := p.lookup(rb, p.first); err != nil {
		return false, err
	}
	jt := p.c.Type
	if p.c.Filter == nil {
		// Semi and anti joins without a residual filter need no pairs.
		switch jt {
		case logical.RightSemiJoin, logical.RightAntiJoin:
			want := jt == logical.RightSemiJoin
			keep := p.li[:0]
			for i, l := range p.first {
				if (l >= 0) == want {
					keep = append(keep, int32(i))
				}
			}
			p.li = keep
			return false, p.emitChunks(rb, nil, keep, emit)
		case logical.LeftSemiJoin, logical.LeftAntiJoin:
			p.bt.vmu.Lock()
			for _, l := range p.first {
				for ; l >= 0; l = p.bt.next[l] {
					p.bt.visited[l] = true
				}
			}
			p.bt.vmu.Unlock()
			return false, nil
		}
	}
	probeTracked := jt == logical.RightJoin || jt == logical.FullJoin ||
		jt == logical.RightSemiJoin || jt == logical.RightAntiJoin
	if probeTracked {
		p.matched = growBool(p.matched, rb.NumRows())
	}
	li, ri := p.li[:0], p.ri[:0]
	for i, l := range p.first {
		for ; l >= 0; l = p.bt.next[l] {
			li = append(li, l)
			ri = append(ri, int32(i))
			if len(li) == p.limit {
				if err := p.matchPairs(rb, li, ri, emit); err != nil {
					return false, err
				}
				li, ri = li[:0], ri[:0]
			}
		}
	}
	p.li, p.ri = li, ri
	if len(li) > 0 {
		if err := p.matchPairs(rb, li, ri, emit); err != nil {
			return false, err
		}
	}
	if !probeTracked {
		return false, nil
	}
	// Probe rows by whether the pairs matched them: right semi joins keep
	// the matched ones, right anti joins the others, and outer joins emit
	// the others beside a NULL build row.
	semi := jt == logical.RightSemiJoin
	keep := p.ri[:0]
	for i, m := range p.matched {
		if m == semi {
			keep = append(keep, int32(i))
		}
	}
	p.ri = keep
	if semi || jt == logical.RightAntiJoin {
		return false, p.emitChunks(rb, nil, keep, emit)
	}
	nulls := p.li[:0]
	for range keep {
		nulls = append(nulls, -1)
	}
	p.li = nulls
	return false, p.emitChunks(rb, nulls, keep, emit)
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// matchPairs applies the residual filter to at most limit (build, probe)
// pairs, records which rows matched and emits the pairs the join type
// outputs. It may reorder li and ri in place.
func (p *joinProbe) matchPairs(rb *arrow.RecordBatch, li, ri []int32, emit physical.EmitFn) error {
	if p.c.Filter != nil {
		cols := make([]arrow.Array, len(p.c.filterCols))
		for i, c := range p.c.filterCols {
			if c.left {
				cols[i] = takeOrSlice(p.bt.batch.Column(c.idx), li)
			} else {
				cols[i] = takeOrSlice(rb.Column(c.idx), ri)
			}
		}
		mask, err := physical.EvalPredicate(p.c.Filter.Expr, arrow.NewRecordBatchWithRows(p.c.filterSchema, cols, len(li)), &p.scratch)
		if err != nil {
			return err
		}
		k := 0
		for i := range li {
			if mask.IsValid(i) && mask.Value(i) {
				li[k], ri[k] = li[i], ri[i]
				k++
			}
		}
		li, ri = li[:k], ri[:k]
	}
	if p.bt.visited != nil && len(li) > 0 {
		p.bt.vmu.Lock()
		for _, l := range li {
			p.bt.visited[l] = true
		}
		p.bt.vmu.Unlock()
	}
	if p.matched != nil {
		for _, r := range ri {
			p.matched[r] = true
		}
	}
	switch p.c.Type {
	case logical.InnerJoin, logical.LeftJoin, logical.RightJoin, logical.FullJoin:
		if len(li) > 0 {
			return emit(p.gather(rb, li, ri))
		}
	}
	return nil
}

// emitChunks emits the rows (li[k], ri[k]) in batches of at most limit
// rows; li == nil means the join emits only probe columns, ri == nil only
// build columns.
func (p *joinProbe) emitChunks(rb *arrow.RecordBatch, li, ri []int32, emit physical.EmitFn) error {
	n := max(len(li), len(ri))
	for s := 0; s < n; s += p.limit {
		e := min(s+p.limit, n)
		var lc, rc []int32
		if li != nil {
			lc = li[s:e]
		}
		if ri != nil {
			rc = ri[s:e]
		}
		if err := emit(p.gather(rb, lc, rc)); err != nil {
			return err
		}
	}
	return nil
}

// gather materializes the emitted columns of the rows (li[k], ri[k]): the
// build row li[k] (-1 for NULL) beside the probe row ri[k]. A nil index
// list stands for a side the output does not read, or that is all NULL
// (ri == nil with li set: unmatched build rows of an outer join).
func (p *joinProbe) gather(rb *arrow.RecordBatch, li, ri []int32) *arrow.RecordBatch {
	n := max(len(li), len(ri))
	cols := make([]arrow.Array, len(p.c.out))
	for i, c := range p.c.out {
		switch {
		case c.left:
			cols[i] = takeOrSlice(p.bt.batch.Column(c.idx), li)
		case ri != nil:
			cols[i] = takeOrSlice(rb.Column(c.idx), ri)
		default:
			cols[i] = nullColumn(p.c.Right.Schema().Field(c.idx).Type, n)
		}
	}
	return arrow.NewRecordBatchWithRows(p.c.schema, cols, n)
}

// takeOrSlice gathers a's rows idx, as a zero-copy slice when idx is a
// run of consecutive rows (every probe row matched once, in order).
func takeOrSlice(a arrow.Array, idx []int32) arrow.Array {
	if len(idx) > 0 && idx[0] >= 0 {
		run := true
		for k, r := range idx {
			if r != idx[0]+int32(k) {
				run = false
				break
			}
		}
		if run {
			if int(idx[0]) == 0 && len(idx) == a.Len() {
				return a
			}
			return a.Slice(int(idx[0]), len(idx))
		}
	}
	return compute.Take(a, idx)
}

func nullColumn(t *arrow.DataType, n int) arrow.Array {
	b := arrow.NewBuilder(t)
	for i := 0; i < n; i++ {
		b.AppendNull()
	}
	return b.Finish()
}

// Flush ends this partition's probe. The last of the table's probe
// partitions to flush emits the build rows owed: unmatched rows (with a
// NULL right side) for Left/Full, matched rows for LeftSemi, unmatched ones
// for LeftAnti. The counter's atomic decrement orders every other
// partition's marks before the last one reads them.
func (p *joinProbe) Flush(emit physical.EmitFn) error {
	if p.bt.visited == nil || p.bt.open.Add(-1) > 0 {
		return nil
	}
	want := p.c.Type == logical.LeftSemiJoin
	var keep []int32
	for i, v := range p.bt.visited {
		if v == want {
			keep = append(keep, int32(i))
		}
	}
	return p.emitChunks(nil, keep, nil, emit)
}

// Close gives up this probe's hold on the table's reservation.
func (p *joinProbe) Close() {
	if !p.released {
		p.released = true
		p.bt.release()
	}
}
