package exec

import (
	"fmt"
	"io"
	"sync"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/physical"
	"gofusion/internal/rowformat"
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
// join types (paper Section 6.4). The left input is the build side. Keys
// are normalized with the row format, so equality is a single byte
// comparison and NULL keys never match.
type HashJoinExec struct {
	physical.OpMetrics
	Left   physical.ExecutionPlan
	Right  physical.ExecutionPlan
	On     []JoinOn
	Filter physical.PhysicalExpr // residual over (left ++ right) schema
	Type   logical.JoinType
	Mode   JoinMode

	schema *arrow.Schema

	buildOnce sync.Once
	built     *builtTable
	buildErr  error
}

// NewHashJoinExec computes the join output schema.
func NewHashJoinExec(left, right physical.ExecutionPlan, on []JoinOn, filter physical.PhysicalExpr,
	jt logical.JoinType, mode JoinMode) *HashJoinExec {
	return &HashJoinExec{
		Left: left, Right: right, On: on, Filter: filter, Type: jt, Mode: mode,
		schema: joinOutputSchema(left.Schema(), right.Schema(), jt),
	}
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
	return s
}
func (e *HashJoinExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	if len(ch) != 2 {
		return nil, fmt.Errorf("exec: join takes 2 children")
	}
	return NewHashJoinExec(ch[0], ch[1], e.On, e.Filter, e.Type, e.Mode), nil
}

// builtTable is the hashed build side: a shared hash-first groupTable
// assigns each distinct key a dense group id, and head/next singly-linked
// row lists chain the build rows of each group. Probing never converts
// keys to strings — it hashes the probe batch once and compares encoded
// keys only on a 64-bit hash match.
type builtTable struct {
	batch   *arrow.RecordBatch
	gt      *groupTable
	head    []int32 // per group id: first build row, -1 = none
	next    []int32 // per build row: next row with the same key, -1 = end
	visited []bool  // build rows matched (outer/semi/anti tracking)
	vmu     sync.Mutex
}

// estimateKeyCardinality samples up to 1024 row hashes and extrapolates
// the distinct-key count, used to pre-size the build table: high-
// cardinality builds avoid rehash cascades, low-cardinality builds avoid
// allocating a row-count-sized table that stays mostly empty.
func estimateKeyCardinality(hashes []uint64) int {
	n := len(hashes)
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

// encodeJoinKeys encodes each row's key; rows with NULL in any key column
// get a nil key (they can never match).
func encodeJoinKeys(enc *rowformat.Encoder, exprs []physical.PhysicalExpr, b *arrow.RecordBatch) ([][]byte, error) {
	cols := make([]arrow.Array, len(exprs))
	for i, x := range exprs {
		a, err := physical.EvalToArray(x, b, nil)
		if err != nil {
			return nil, err
		}
		cols[i] = a
	}
	keys := enc.EncodeRows(cols, b.NumRows())
	for i := range keys {
		for _, c := range cols {
			if c.IsNull(i) {
				keys[i] = nil
				break
			}
		}
	}
	return keys, nil
}

func (e *HashJoinExec) buildFrom(ctx *physical.ExecContext, batches []*arrow.RecordBatch) (*builtTable, error) {
	batch, err := compute.ConcatBatches(e.Left.Schema(), batches)
	if err != nil {
		return nil, err
	}
	types := make([]*arrow.DataType, len(e.On))
	for i, p := range e.On {
		types[i] = p.L.DataType()
	}
	bt := &builtTable{batch: batch}
	n := batch.NumRows()
	if n > 0 {
		cols := make([]arrow.Array, len(e.On))
		for i, p := range e.On {
			a, err := physical.EvalToArray(p.L, batch, nil)
			if err != nil {
				return nil, err
			}
			cols[i] = a
		}
		// One vectorized hash pass feeds both the cardinality estimate
		// (pre-sizing keeps rehashes off large builds) and the inserts.
		hashes := compute.HashBatch(cols, n, nil)
		gt, err := newGroupTableSized(types, estimateKeyCardinality(hashes))
		if err != nil {
			return nil, err
		}
		// Build rows with NULL keys still get group ids (probes can never
		// reach them: non-null probe keys hash and compare differently,
		// and null probe keys are rejected before lookup).
		gids, err := gt.assignHashed(cols, n, hashes, nil)
		if err != nil {
			return nil, err
		}
		head := make([]int32, gt.numGroups())
		for i := range head {
			head[i] = -1
		}
		next := make([]int32, n)
		// Prepend in reverse so each group's row list stays in ascending
		// build-row order, matching the pre-table output order.
		for i := n - 1; i >= 0; i-- {
			g := gids[i]
			next[i] = head[g]
			head[g] = int32(i)
		}
		bt.gt, bt.head, bt.next = gt, head, next
	} else {
		gt, err := newGroupTable(types)
		if err != nil {
			return nil, err
		}
		bt.gt = gt
	}
	if e.needsBuildTracking() {
		bt.visited = make([]bool, batch.NumRows())
	}
	return bt, nil
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
		e.built, e.buildErr = e.buildFrom(ctx, batches)
	})
	return e.built, e.buildErr
}

func (e *HashJoinExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	var bt *builtTable
	var err error
	if e.Mode == CollectLeft {
		bt, err = e.sharedBuild(ctx)
	} else {
		s, serr := e.Left.Execute(ctx, partition)
		if serr != nil {
			return nil, serr
		}
		batches, derr := drainAll(s)
		if derr != nil {
			return nil, derr
		}
		bt, err = e.buildFrom(ctx, batches)
	}
	if err != nil {
		return nil, err
	}
	m := e.Metrics()
	if e.Mode == CollectLeft {
		// The shared build is counted once, not once per probe partition.
		m.Counter("build_rows").Store(int64(bt.batch.NumRows()))
	} else {
		m.Counter("build_rows").Add(int64(bt.batch.NumRows()))
	}
	if e.Mode == CollectLeft && e.needsBuildTracking() && e.Right.Partitions() > 1 {
		// CollectLeft with shared tracking across concurrent probers is
		// planner-prevented; guard anyway (before the probe stream opens,
		// so nothing is left to close on this path).
		return nil, fmt.Errorf("exec: CollectLeft %s join requires single probe partition", e.Type)
	}
	right, err := e.Right.Execute(ctx, partition)
	if err != nil {
		return nil, err
	}
	probe := &joinProber{exec: e, bt: bt, right: right, ctx: ctx, probeRows: m.Counter("probe_rows")}
	if err := probe.init(); err != nil {
		right.Close()
		return nil, err
	}
	// Only one probe partition may emit the unmatched build rows.
	probe.emitBuildSide = e.needsBuildTracking() && (e.Mode == PartitionedJoin || partition == e.lastProbePartition())
	return physical.InstrumentStream(NewFuncStream(e.schema, probe.next, right.Close), m), nil
}

func (e *HashJoinExec) lastProbePartition() int { return e.Right.Partitions() - 1 }

// joinProber streams probe batches and produces join output. Each prober
// owns its lookup scratch buffers, so concurrent partitions can probe one
// shared read-only build table.
type joinProber struct {
	exec          *HashJoinExec
	bt            *builtTable
	right         physical.Stream
	ctx           *physical.ExecContext
	rexprs        []physical.PhysicalExpr
	keyCols       []arrow.Array
	ls            lookupScratch
	gids          []int32
	probeDone     bool
	buildEmitted  bool
	emitBuildSide bool
	probeRows     *physical.Counter
}

func (p *joinProber) init() error {
	p.rexprs = make([]physical.PhysicalExpr, len(p.exec.On))
	for i, pair := range p.exec.On {
		p.rexprs[i] = pair.R
	}
	p.keyCols = make([]arrow.Array, len(p.rexprs))
	return nil
}

// combined builds the (left ++ right) batch for matched index pairs.
func (p *joinProber) combined(rb *arrow.RecordBatch, li, ri []int32) *arrow.RecordBatch {
	lcols := make([]arrow.Array, p.bt.batch.NumCols())
	for c := 0; c < p.bt.batch.NumCols(); c++ {
		lcols[c] = compute.Take(p.bt.batch.Column(c), li)
	}
	rcols := make([]arrow.Array, rb.NumCols())
	for c := 0; c < rb.NumCols(); c++ {
		rcols[c] = compute.Take(rb.Column(c), ri)
	}
	schema := joinOutputSchema(p.exec.Left.Schema(), p.exec.Right.Schema(), logical.InnerJoin)
	return arrow.NewRecordBatchWithRows(schema, append(lcols, rcols...), len(li))
}

func (p *joinProber) next() (*arrow.RecordBatch, error) {
	for {
		if p.probeDone {
			if p.emitBuildSide && !p.buildEmitted {
				p.buildEmitted = true
				out, err := p.emitBuildRows()
				if err != nil {
					return nil, err
				}
				if out != nil && out.NumRows() > 0 {
					return out, nil
				}
			}
			return nil, io.EOF
		}
		if err := checkCancel(p.ctx); err != nil {
			return nil, err
		}
		rb, err := p.right.Next()
		if err == io.EOF {
			p.probeDone = true
			continue
		}
		if err != nil {
			return nil, err
		}
		if rb.NumRows() == 0 {
			continue
		}
		out, err := p.probeBatch(rb)
		if err != nil {
			return nil, err
		}
		if out != nil && out.NumRows() > 0 {
			return out, nil
		}
	}
}

func (p *joinProber) probeBatch(rb *arrow.RecordBatch) (*arrow.RecordBatch, error) {
	if p.probeRows != nil {
		p.probeRows.Add(int64(rb.NumRows()))
	}
	for i, x := range p.rexprs {
		a, err := physical.EvalToArray(x, rb, nil)
		if err != nil {
			return nil, err
		}
		p.keyCols[i] = a
	}
	// Hash-first lookup: one HashBatch call, full-key compare only on
	// hash match, -1 for absent or NULL keys. No per-row string
	// conversions or map probes.
	p.gids = p.bt.gt.lookupInto(p.keyCols, rb.NumRows(), &p.ls, p.gids)
	var li, ri []int32
	for i, g := range p.gids {
		if g < 0 {
			continue
		}
		for l := p.bt.head[g]; l >= 0; l = p.bt.next[l] {
			li = append(li, l)
			ri = append(ri, int32(i))
		}
	}

	// Residual filter refines matched pairs.
	if p.exec.Filter != nil && len(li) > 0 {
		cb := p.combined(rb, li, ri)
		mask, err := physical.EvalPredicate(p.exec.Filter, cb, nil)
		if err != nil {
			return nil, err
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

	// Track build-side matches.
	if p.bt.visited != nil && len(li) > 0 {
		p.bt.vmu.Lock()
		for _, l := range li {
			p.bt.visited[l] = true
		}
		p.bt.vmu.Unlock()
	}

	switch p.exec.Type {
	case logical.InnerJoin:
		if len(li) == 0 {
			return nil, nil
		}
		return p.combined(rb, li, ri), nil
	case logical.LeftJoin, logical.LeftSemiJoin, logical.LeftAntiJoin:
		// Matched inner part for LeftJoin; semi/anti emit at end.
		if p.exec.Type == logical.LeftJoin && len(li) > 0 {
			return p.combined(rb, li, ri), nil
		}
		return nil, nil
	case logical.RightJoin, logical.FullJoin:
		matched := make([]bool, rb.NumRows())
		for _, r := range ri {
			matched[r] = true
		}
		// Unmatched right rows pair with a NULL left side (index -1).
		for i := 0; i < rb.NumRows(); i++ {
			if !matched[i] {
				li = append(li, -1)
				ri = append(ri, int32(i))
			}
		}
		if len(li) == 0 {
			return nil, nil
		}
		cb := p.combined(rb, li, ri)
		if p.exec.Type == logical.RightJoin {
			return arrow.NewRecordBatchWithRows(p.exec.schema, cb.Columns(), cb.NumRows()), nil
		}
		return arrow.NewRecordBatchWithRows(p.exec.schema, cb.Columns(), cb.NumRows()), nil
	case logical.RightSemiJoin, logical.RightAntiJoin:
		matched := make([]bool, rb.NumRows())
		for _, r := range ri {
			matched[r] = true
		}
		want := p.exec.Type == logical.RightSemiJoin
		var keep []int32
		for i := 0; i < rb.NumRows(); i++ {
			if matched[i] == want {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) == 0 {
			return nil, nil
		}
		return compute.TakeBatch(rb, keep), nil
	}
	return nil, fmt.Errorf("exec: unsupported hash join type %s", p.exec.Type)
}

// emitBuildRows emits build-side rows owed at end of stream: unmatched
// rows (with NULL right side) for Left/Full, matched rows for LeftSemi,
// unmatched for LeftAnti.
func (p *joinProber) emitBuildRows() (*arrow.RecordBatch, error) {
	var keep []int32
	switch p.exec.Type {
	case logical.LeftJoin, logical.FullJoin:
		for i, v := range p.bt.visited {
			if !v {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) == 0 {
			return nil, nil
		}
		lcols := make([]arrow.Array, p.bt.batch.NumCols())
		for c := range lcols {
			lcols[c] = compute.Take(p.bt.batch.Column(c), keep)
		}
		rs := p.exec.Right.Schema()
		rcols := make([]arrow.Array, rs.NumFields())
		for c := 0; c < rs.NumFields(); c++ {
			b := arrow.NewBuilder(rs.Field(c).Type)
			for range keep {
				b.AppendNull()
			}
			rcols[c] = b.Finish()
		}
		return arrow.NewRecordBatchWithRows(p.exec.schema, append(lcols, rcols...), len(keep)), nil
	case logical.LeftSemiJoin, logical.LeftAntiJoin:
		want := p.exec.Type == logical.LeftSemiJoin
		for i, v := range p.bt.visited {
			if v == want {
				keep = append(keep, int32(i))
			}
		}
		if len(keep) == 0 {
			return nil, nil
		}
		return compute.TakeBatch(p.bt.batch, keep), nil
	}
	return nil, nil
}
