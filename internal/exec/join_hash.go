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

// JoinMode selects how the build side is produced.
type JoinMode int

// Join distribution modes.
const (
	// CollectLeft builds one shared hash table from the whole left input
	// and probes with each right partition.
	CollectLeft JoinMode = iota
	// PartitionedJoin builds a table per partition; the planner hash
	// repartitions both inputs on the join keys first.
	PartitionedJoin
)

// HashJoinExec is a vectorized in-memory hash join supporting all eight
// join types (paper Section 6.4). The left input is the build side and the
// join's only pipeline breaker: it is read to completion into one table
// when the probe starts. The right input streams through the probe, a push
// stage that fuses with the operators around it. Keys compare by value in
// a groupTable, or index an array when they are dense integers.
// Projection names the columns the join emits; the probe gathers only
// those, once per output row.
type HashJoinExec struct {
	physical.OpMetrics
	Left   physical.ExecutionPlan
	Right  physical.ExecutionPlan
	On     []JoinOn
	Filter physical.PhysicalExpr // residual over (left ++ right) schema
	Type   logical.JoinType
	Mode   JoinMode
	// Projection lists the emitted columns as indexes into the join's full
	// output (left ++ right, or the one side a semi or anti join emits);
	// nil emits all of them.
	Projection []int

	schema *arrow.Schema
	// out says where each emitted column comes from.
	out []joinCol

	buildOnce sync.Once
	built     *builtTable
	buildErr  error
}

// joinCol is one emitted column: column idx of the build (left) or the
// probe (right) input.
type joinCol struct {
	left bool
	idx  int
}

// NewHashJoinExec computes the join output schema.
func NewHashJoinExec(left, right physical.ExecutionPlan, on []JoinOn, filter physical.PhysicalExpr,
	jt logical.JoinType, mode JoinMode) *HashJoinExec {
	e := &HashJoinExec{Left: left, Right: right, On: on, Filter: filter, Type: jt, Mode: mode}
	return e.withProjection(nil, nil)
}

// withProjection returns a copy of e emitting the columns cols of its full
// output (nil: all of them), under schema (nil: the fields they name).
func (e *HashJoinExec) withProjection(cols []int, schema *arrow.Schema) *HashJoinExec {
	full := joinOutputSchema(e.Left.Schema(), e.Right.Schema(), e.Type)
	var all []joinCol
	switch e.Type {
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		all = sideCols(true, e.Left.Schema().NumFields())
	case logical.RightSemiJoin, logical.RightAntiJoin:
		all = sideCols(false, e.Right.Schema().NumFields())
	default:
		all = append(sideCols(true, e.Left.Schema().NumFields()), sideCols(false, e.Right.Schema().NumFields())...)
	}
	out, fields := all, full.Fields()
	if cols != nil {
		out, fields = make([]joinCol, len(cols)), make([]arrow.Field, len(cols))
		for i, c := range cols {
			out[i], fields[i] = all[c], full.Field(c)
		}
	}
	if schema == nil {
		schema = arrow.NewSchema(fields...)
	}
	return &HashJoinExec{Left: e.Left, Right: e.Right, On: e.On, Filter: e.Filter, Type: e.Type, Mode: e.Mode,
		Projection: cols, schema: schema, out: out}
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

func (e *HashJoinExec) Schema() *arrow.Schema { return e.schema }
func (e *HashJoinExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Left, e.Right}
}

func (e *HashJoinExec) Partitions() int                      { return e.Right.Partitions() }
func (e *HashJoinExec) OutputOrdering() []physical.SortField { return nil }
func (e *HashJoinExec) String() string {
	mode := "CollectLeft"
	if e.Mode == PartitionedJoin {
		mode = "Partitioned"
	}
	s := fmt.Sprintf("HashJoinExec: type=%s mode=%s on=%d keys", e.Type, mode, len(e.On))
	if e.Filter != nil {
		s += " filter=" + e.Filter.String()
	}
	if e.Projection != nil {
		s += fmt.Sprintf(" projection=%v", e.Projection)
	}
	return s
}
func (e *HashJoinExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("exec: join takes 2 children")
	}
	j := &HashJoinExec{Left: ch[0], Right: ch[1], On: e.On, Filter: e.Filter, Type: e.Type, Mode: e.Mode}
	return j.withProjection(e.Projection, e.schema), nil
}

// Dense integer keys. A build whose only key is an integer column without
// NULLs, spanning at most denseRangePerRow × rows + denseRangeMin values,
// is an array indexed by key − min instead of a hash table. Its head array
// costs 4 bytes per value in range; the groupTable it replaces costs at
// least 28 bytes per distinct key (4/3 slots of 12 bytes, an 8-byte stored
// key and a 4-byte chain head) and never less than 64 slots, so over
// distinct keys, as a dimension table's are, the array is never the
// larger of the two.
const (
	denseRangePerRow = 7
	denseRangeMin    = 256
)

// builtTable is the build side: the concatenated left input, and per key
// the chain of build rows holding it. head maps a key — a groupTable group
// id, or key − denseMin for a dense build — to its first build row; next
// chains each build row to the next one with the same key (-1 ends both).
// Chains keep ascending build-row order.
type builtTable struct {
	batch *arrow.RecordBatch
	gt    *groupTable // nil for a dense build
	// denseMin is the smallest key of a dense build, in orderedKeys' order.
	denseMin uint64
	head     []int32
	next     []int32
	visited  []bool // build rows matched (outer/semi/anti tracking)
	vmu      sync.Mutex

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

// estimateKeyCardinality samples up to 1024 row hashes and extrapolates
// the distinct-key count, used to pre-size the build table: high-
// cardinality builds avoid rehash cascades, low-cardinality builds avoid
// allocating a row-count-sized table that stays mostly empty.
func estimateKeyCardinality(hashes []uint64) int {
	n := len(hashes)
	if n == 0 {
		return 0
	}
	sample := n
	if sample > 1024 {
		sample = 1024
	}
	seen := make(map[uint64]struct{}, sample)
	step := n / sample
	if step < 1 {
		step = 1
	}
	taken := 0
	for i := 0; i < n && taken < sample; i += step {
		seen[hashes[i]] = struct{}{}
		taken++
	}
	if taken == 0 {
		return 0
	}
	est := len(seen) * n / taken
	if est > n {
		est = n
	}
	if est < 16 {
		est = 16
	}
	return est
}

// orderedKeys widens an integer-backed array to uint64 keys that sort as
// the values do (signed values get their sign bit flipped), writing into
// buf. It reports false for any other array.
func orderedKeys(a arrow.Array, buf []uint64) ([]uint64, bool) {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Int16Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Int32Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Int64Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Uint8Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Uint16Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Uint32Array:
		return widenKeys(arr.Values(), buf), true
	case *arrow.Uint64Array:
		return widenKeys(arr.Values(), buf), true
	}
	return nil, false
}

func widenKeys[T int8 | int16 | int32 | int64 | uint8 | uint16 | uint32 | uint64](vals []T, buf []uint64) []uint64 {
	var flip uint64
	if ^T(0) < 0 {
		flip = 1 << 63
	}
	buf = buf[:0]
	for _, v := range vals {
		buf = append(buf, uint64(int64(v))^flip)
	}
	return buf
}

// build turns the drained left input into the probe's table, charging it
// to a new reservation. Over budget it fails with the pool's typed error.
func (e *HashJoinExec) build(ctx *physical.ExecContext, batches []*arrow.RecordBatch) (*builtTable, error) {
	res := memory.NewReservation(ctx.Pool, "HashJoinExec")
	bt, err := e.buildTable(batches, res)
	if err != nil {
		res.Free()
		return nil, err
	}
	m := e.Metrics()
	m.UpdateMemPeak(res.Size())
	if bt.gt == nil {
		m.Counter("dense_builds").Add(1)
	}
	return bt, nil
}

func (e *HashJoinExec) buildTable(batches []*arrow.RecordBatch, res *memory.Reservation) (*builtTable, error) {
	batch, err := compute.ConcatBatches(e.Left.Schema(), batches)
	if err != nil {
		return nil, err
	}
	if err := res.Grow(arrow.BatchSize(batch)); err != nil {
		return nil, err
	}
	bt := &builtTable{batch: batch, res: res}
	n := batch.NumRows()
	cols := make([]arrow.Array, len(e.On))
	for i, p := range e.On {
		if cols[i], err = physical.EvalToArray(p.L, batch, nil); err != nil {
			return nil, err
		}
	}
	if n > 0 && len(cols) == 1 && cols[0].NullCount() == 0 {
		if keys, ok := orderedKeys(cols[0], nil); ok {
			if dense, err := bt.buildDense(keys, res); err != nil || dense {
				if err == nil {
					err = bt.track(e, res)
				}
				return bt, err
			}
		}
	}
	types := make([]*arrow.DataType, len(e.On))
	for i, p := range e.On {
		types[i] = p.L.DataType()
	}
	// One vectorized hash pass feeds both the cardinality estimate
	// (pre-sizing keeps rehashes off large builds) and the inserts.
	hashes := compute.HashBatch(cols, n, nil)
	gt, err := newGroupTableSized(types, estimateKeyCardinality(hashes))
	if err != nil {
		return nil, err
	}
	// Build rows with NULL keys still get group ids (probes can never
	// reach them: non-null probe keys hash and compare differently, and
	// null probe keys are rejected before lookup).
	gids, err := gt.assignHashed(cols, n, hashes, nil)
	if err != nil {
		return nil, err
	}
	if err := res.Grow(gt.memUsage() + 4*int64(gt.numGroups()+n)); err != nil {
		return nil, err
	}
	bt.gt = gt
	bt.head = make([]int32, gt.numGroups())
	bt.next = make([]int32, n)
	for i := range bt.head {
		bt.head[i] = -1
	}
	// Prepend in reverse so each chain stays in ascending build-row order.
	for i := n - 1; i >= 0; i-- {
		g := gids[i]
		bt.next[i] = bt.head[g]
		bt.head[g] = int32(i)
	}
	return bt, bt.track(e, res)
}

// buildDense indexes the build by key − min when the keys span few enough
// values, and reports false otherwise. The span is compared before adding
// one, so a range covering all of uint64 cannot overflow.
func (bt *builtTable) buildDense(keys []uint64, res *memory.Reservation) (bool, error) {
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	n := uint64(len(keys))
	if hi-lo >= denseRangePerRow*n+denseRangeMin {
		return false, nil
	}
	size := int(hi-lo) + 1
	if err := res.Grow(4 * int64(size+len(keys))); err != nil {
		return false, err
	}
	bt.denseMin = lo
	bt.head = make([]int32, size)
	bt.next = make([]int32, len(keys))
	for i := range bt.head {
		bt.head[i] = -1
	}
	for i := len(keys) - 1; i >= 0; i-- {
		off := keys[i] - lo
		bt.next[i] = bt.head[off]
		bt.head[off] = int32(i)
	}
	return true, nil
}

// track allocates the visited flags of joins that owe build rows at the
// end of the probe.
func (bt *builtTable) track(e *HashJoinExec, res *memory.Reservation) error {
	if !e.needsBuildTracking() {
		return nil
	}
	if err := res.Grow(int64(bt.batch.NumRows())); err != nil {
		return err
	}
	bt.visited = make([]bool, bt.batch.NumRows())
	return nil
}

func (e *HashJoinExec) needsBuildTracking() bool {
	switch e.Type {
	case logical.LeftJoin, logical.FullJoin, logical.LeftSemiJoin, logical.LeftAntiJoin:
		return true
	}
	return false
}

// sharedBuild builds the table once from all left partitions
// (CollectLeft). sync.Once rather than a mutex around the build: the
// build drives the whole left subtree through CollectPlan, and a named
// lock held across that would pin every probe partition behind a lock
// class other code could order against (lockorder flags it). Once gives
// the same run-exactly-once / later-callers-wait semantics with the
// result fields published by its happens-before edge.
func (e *HashJoinExec) sharedBuild(ctx *physical.ExecContext) (*builtTable, error) {
	e.buildOnce.Do(func() {
		batches, err := CollectPlan(ctx, e.Left)
		if err != nil {
			e.buildErr = err
			return
		}
		e.built, e.buildErr = e.build(ctx, batches)
		if e.buildErr == nil {
			// The shared build is counted once, not once per probe.
			e.Metrics().Counter("build_rows").Store(int64(e.built.batch.NumRows()))
		}
	})
	return e.built, e.buildErr
}

// Execute runs the probe as a one-stage push loop over the right input.
func (e *HashJoinExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, e)
}

// CanPush is always true: the probe is a push stage over the right input.
func (e *HashJoinExec) CanPush() bool { return true }

// PushInto builds (CollectLeft: once for every partition; Partitioned:
// from this partition's left input) and compiles the probe of one
// partition.
func (e *HashJoinExec) PushInto(ctx *physical.ExecContext, partition int) (physical.Pusher, error) {
	if e.Mode == CollectLeft && e.needsBuildTracking() && e.Right.Partitions() > 1 {
		// CollectLeft with shared tracking across concurrent probers is
		// planner-prevented; guard anyway.
		return nil, fmt.Errorf("exec: CollectLeft %s join requires single probe partition", e.Type)
	}
	var bt *builtTable
	var err error
	if e.Mode == CollectLeft {
		bt, err = e.sharedBuild(ctx)
	} else {
		var s physical.Stream
		if s, err = e.Left.Execute(ctx, partition); err != nil {
			return nil, err
		}
		var batches []*arrow.RecordBatch
		if batches, err = drainAll(s); err != nil {
			return nil, err
		}
		if bt, err = e.build(ctx, batches); err == nil {
			e.Metrics().Counter("build_rows").Add(int64(bt.batch.NumRows()))
		}
	}
	if err != nil {
		return nil, err
	}
	bt.acquire()
	p := &joinProbe{e: e, bt: bt, limit: batchRows(ctx), probeRows: e.Metrics().Counter("probe_rows"),
		keyCols: make([]arrow.Array, len(e.On))}
	// Only one probe partition may emit the unmatched build rows.
	p.emitBuild = e.needsBuildTracking() && (e.Mode == PartitionedJoin || partition == e.Right.Partitions()-1)
	return p, nil
}

// joinProbe is one partition's probe. It owns its lookup scratch, so
// concurrent partitions probe one shared read-only table. Output batches
// hold at most limit rows.
type joinProbe struct {
	e         *HashJoinExec
	bt        *builtTable
	limit     int
	emitBuild bool
	probeRows *physical.Counter
	released  bool

	keyCols []arrow.Array
	ls      lookupScratch
	keys    []uint64
	gids    []int32
	// first is per probe row the first matching build row, -1 for none.
	first   []int32
	li, ri  []int32
	matched []bool
}

// lookup sets p.first for the probe batch.
func (p *joinProbe) lookup(rb *arrow.RecordBatch) error {
	n := rb.NumRows()
	for i, pair := range p.e.On {
		a, err := physical.EvalToArray(pair.R, rb, nil)
		if err != nil {
			return err
		}
		p.keyCols[i] = a
	}
	p.first = growInt32(p.first, n)
	bt := p.bt
	if bt.gt == nil {
		// Dense: the probe key has the build key's integer type.
		var ok bool
		if p.keys, ok = orderedKeys(p.keyCols[0], p.keys); !ok {
			return fmt.Errorf("exec: dense join probe key is %s, not an integer array", p.keyCols[0].DataType())
		}
		size := uint64(len(bt.head))
		for i, k := range p.keys {
			if off := k - bt.denseMin; off < size {
				p.first[i] = bt.head[off]
			} else {
				p.first[i] = -1
			}
		}
		if a := p.keyCols[0]; a.NullCount() > 0 {
			for i := range p.first {
				if a.IsNull(i) {
					p.first[i] = -1
				}
			}
		}
		return nil
	}
	// Hash-first lookup: -1 for absent or NULL keys.
	p.gids = bt.gt.lookupInto(p.keyCols, n, &p.ls, p.gids)
	for i, g := range p.gids {
		if g >= 0 {
			p.first[i] = bt.head[g]
		} else {
			p.first[i] = -1
		}
	}
	return nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func (p *joinProbe) Push(rb *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	p.probeRows.Add(int64(rb.NumRows()))
	if err := p.lookup(rb); err != nil {
		return false, err
	}
	jt := p.e.Type
	if p.e.Filter == nil {
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
	if p.e.Filter != nil {
		cols := make([]arrow.Array, 0, p.bt.batch.NumCols()+rb.NumCols())
		for _, c := range p.bt.batch.Columns() {
			cols = append(cols, takeOrSlice(c, li))
		}
		for _, c := range rb.Columns() {
			cols = append(cols, takeOrSlice(c, ri))
		}
		schema := joinOutputSchema(p.e.Left.Schema(), p.e.Right.Schema(), logical.InnerJoin)
		mask, err := physical.EvalPredicate(p.e.Filter, arrow.NewRecordBatchWithRows(schema, cols, len(li)), nil)
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
	switch p.e.Type {
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
	cols := make([]arrow.Array, len(p.e.out))
	for i, c := range p.e.out {
		switch {
		case c.left:
			cols[i] = takeOrSlice(p.bt.batch.Column(c.idx), li)
		case ri != nil:
			cols[i] = takeOrSlice(rb.Column(c.idx), ri)
		default:
			cols[i] = nullColumn(p.e.Right.Schema().Field(c.idx).Type, n)
		}
	}
	return arrow.NewRecordBatchWithRows(p.e.schema, cols, n)
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

// Flush emits the build rows owed at the end of the probe: unmatched rows
// (with a NULL right side) for Left/Full, matched rows for LeftSemi,
// unmatched ones for LeftAnti.
func (p *joinProbe) Flush(emit physical.EmitFn) error {
	if !p.emitBuild {
		return nil
	}
	want := p.e.Type == logical.LeftSemiJoin
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
