package exec

import (
	"fmt"
	"slices"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
)

// WatermarkAggExec is the streaming aggregation operator for unbounded
// inputs: the plan groups by the source's declared event-time (watermark)
// column, so the group space partitions disjointly by event time. The
// operator tracks the high-water mark of event times seen; once the
// watermark passes a time bucket by more than the allowed lateness, every
// group in that bucket is finalized and emitted — long before the (possibly
// never-ending) input finishes. Rows with a NULL event time cannot be
// ordered against the watermark and are held to end of input, matching
// batch semantics. Groups emit exactly once; late rows beyond the lateness
// allowance would be misassigned, which is why Lateness is a correctness
// knob, not a tuning knob, for out-of-order sources.
type WatermarkAggExec struct {
	physical.OpMetrics
	Input physical.ExecutionPlan
	// WatermarkPos is the index (into the group expressions) of the
	// event-time key.
	WatermarkPos int
	// Lateness is how far (in event-time units) the watermark must pass a
	// bucket before it closes; rows arriving later than this are
	// misgrouped, so sources must bound their disorder by it.
	Lateness int64
	// helper carries the shared hash-aggregation machinery (schema,
	// per-bucket state, update, emit); it is never executed itself.
	helper *HashAggregateExec
}

// NewWatermarkAggExec builds a streaming aggregation over input. wmPos
// indexes groupExprs; lateness < 0 is treated as 0.
func NewWatermarkAggExec(input physical.ExecutionPlan, groupExprs []physical.PhysicalExpr,
	groupNames []string, aggs []AggSpec, wmPos int, lateness int64) *WatermarkAggExec {
	if lateness < 0 {
		lateness = 0
	}
	return &WatermarkAggExec{
		Input:        input,
		WatermarkPos: wmPos,
		Lateness:     lateness,
		helper:       NewHashAggregateExec(input, SingleAgg, groupExprs, groupNames, aggs),
	}
}

func (e *WatermarkAggExec) Schema() *arrow.Schema { return e.helper.schema }
func (e *WatermarkAggExec) Children() []physical.ExecutionPlan {
	return []physical.ExecutionPlan{e.Input}
}
func (e *WatermarkAggExec) WithChildren(ch []physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	c, err := oneChild(ch)
	if err != nil {
		return nil, err
	}
	out := NewWatermarkAggExec(c, e.helper.GroupExprs, e.helper.GroupNames, e.helper.Aggs,
		e.WatermarkPos, e.Lateness)
	return out, nil
}
func (e *WatermarkAggExec) Partitions() int                      { return 1 }
func (e *WatermarkAggExec) OutputOrdering() []physical.SortField { return nil }

func (e *WatermarkAggExec) String() string {
	groups := make([]string, len(e.helper.GroupExprs))
	for i, g := range e.helper.GroupExprs {
		groups[i] = g.String()
	}
	return fmt.Sprintf("WatermarkAggExec: wm=%s lateness=%d gby=[%s] aggr=[%s]",
		e.helper.GroupNames[e.WatermarkPos], e.Lateness,
		strings.Join(groups, ", "), aggList(e.helper.Aggs))
}

func (e *WatermarkAggExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	return executePushed(ctx, partition, e)
}

// CanPush is always true: the operator is its wmPusher.
func (e *WatermarkAggExec) CanPush() bool { return true }

// PushInto compiles the operator for its one partition.
func (e *WatermarkAggExec) PushInto(ctx *physical.ExecContext, partition int) (physical.Pusher, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: WatermarkAggExec has one partition, got %d", partition)
	}
	m := e.Metrics()
	return &wmPusher{
		e: e, ctx: ctx, m: m,
		buckets:   map[int64]*aggState{},
		byVal:     map[int64][]int32{},
		res:       memory.NewReservation(ctx.Pool, "WatermarkAggExec"),
		wmCounter: m.Counter("watermark"),
		emitted:   m.Counter("groups_emitted"),
	}, nil
}

// wmPusher keeps one aggregation state per event-time value (bucket),
// routes each batch's rows to their buckets and emits a bucket once the
// watermark has passed it.
type wmPusher struct {
	e          *WatermarkAggExec
	ctx        *physical.ExecContext
	m          *physical.MetricsSet
	buckets    map[int64]*aggState
	nullBucket *aggState // rows with a NULL event time, emitted at Flush
	watermark  int64     // the highest event time seen, once haveWM
	haveWM     bool
	res        *memory.Reservation
	groupIdx   []uint32
	scratch    physical.Scratch
	// byVal is the current batch's row indexes per event time.
	byVal map[int64][]int32

	wmCounter, emitted *physical.Counter
}

func (p *wmPusher) Push(b *arrow.RecordBatch, emit physical.EmitFn) (bool, error) {
	h := p.e.helper
	wmArr, err := physical.EvalToArray(h.GroupExprs[p.e.WatermarkPos], b, nil)
	if err != nil {
		return false, err
	}
	eventTime := fastInt64Values(wmArr)
	if eventTime == nil {
		return false, fmt.Errorf("exec: watermark column has type %s, want an integer-backed one", wmArr.DataType())
	}
	// Split the batch's rows by event-time value; each value's rows update
	// that bucket's independent aggregation state.
	clear(p.byVal)
	var nullIdx []int32
	for i := 0; i < b.NumRows(); i++ {
		if !wmArr.IsValid(i) {
			nullIdx = append(nullIdx, int32(i))
			continue
		}
		v := eventTime(i)
		p.byVal[v] = append(p.byVal[v], int32(i))
		if !p.haveWM || v > p.watermark {
			p.watermark, p.haveWM = v, true
		}
	}
	for v, idx := range p.byVal {
		bk := p.buckets[v]
		if bk == nil {
			if bk, err = h.newState(); err != nil {
				return false, err
			}
			p.buckets[v] = bk
		}
		if err := p.update(bk, b, idx); err != nil {
			return false, err
		}
	}
	if len(nullIdx) > 0 {
		if p.nullBucket == nil {
			if p.nullBucket, err = h.newState(); err != nil {
				return false, err
			}
		}
		if err := p.update(p.nullBucket, b, nullIdx); err != nil {
			return false, err
		}
	}
	if p.haveWM {
		p.wmCounter.Store(p.watermark)
	}
	if err := p.reserve(); err != nil {
		return false, err
	}
	// Emit, in ascending order, every bucket the watermark has passed by
	// more than the lateness allowance.
	return false, p.emitBuckets(func(v int64) bool { return v < p.watermark-p.e.Lateness }, emit)
}

// update feeds the rows idx of b into one bucket (b itself when they are
// all of it).
func (p *wmPusher) update(bk *aggState, b *arrow.RecordBatch, idx []int32) error {
	if len(idx) < b.NumRows() {
		b = compute.TakeBatch(b, idx)
	}
	var err error
	p.groupIdx, err = p.e.helper.update(bk, b, nil, p.groupIdx, &p.scratch)
	return err
}

// reserve charges every open bucket's group table to the reservation.
func (p *wmPusher) reserve() error {
	var total int64
	for _, bk := range p.buckets {
		total += bk.table.memUsage()
	}
	if p.nullBucket != nil {
		total += p.nullBucket.table.memUsage()
	}
	if err := p.res.Resize(total); err != nil {
		return err
	}
	p.m.UpdateMemPeak(p.res.Size())
	return nil
}

// emitBuckets finalizes the buckets whose event time is ripe, in ascending
// event-time order, and drops them.
func (p *wmPusher) emitBuckets(ripe func(int64) bool, emit physical.EmitFn) error {
	var vals []int64
	for v := range p.buckets {
		if ripe(v) {
			vals = append(vals, v)
		}
	}
	slices.Sort(vals)
	for _, v := range vals {
		if err := p.emitBucket(p.buckets[v], emit); err != nil {
			return err
		}
		delete(p.buckets, v)
	}
	return nil
}

func (p *wmPusher) emitBucket(bk *aggState, emit physical.EmitFn) error {
	p.emitted.Add(int64(bk.numGroups()))
	batches, err := p.e.helper.emit(bk, bk.numGroups(), p.ctx.BatchRows)
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := emit(b); err != nil {
			return err
		}
	}
	return nil
}

// Flush emits every open bucket in event-time order, NULL event times last.
func (p *wmPusher) Flush(emit physical.EmitFn) error {
	if err := p.emitBuckets(func(int64) bool { return true }, emit); err != nil {
		return err
	}
	if p.nullBucket == nil {
		return nil
	}
	bk := p.nullBucket
	p.nullBucket = nil
	return p.emitBucket(bk, emit)
}

func (p *wmPusher) Close() {
	p.res.Free()
}

// fastInt64Values returns an accessor widening any integer-backed numeric
// array slot to int64, or nil when the array is not one.
func fastInt64Values(a arrow.Array) func(i int) int64 {
	switch arr := a.(type) {
	case *arrow.Int8Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Int16Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Int32Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Int64Array:
		return func(i int) int64 { return arr.Value(i) }
	case *arrow.Uint8Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Uint16Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Uint32Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	case *arrow.Uint64Array:
		return func(i int) int64 { return int64(arr.Value(i)) }
	}
	return nil
}
