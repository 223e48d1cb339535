package exec

import (
	"fmt"
	"io"
	"math"
	"sort"
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

// wmBucket is the aggregation state for one event-time value.
type wmBucket struct {
	st       *aggState
	groupIdx []uint32
}

func (e *WatermarkAggExec) Execute(ctx *physical.ExecContext, partition int) (physical.Stream, error) {
	if partition != 0 {
		return nil, fmt.Errorf("exec: WatermarkAggExec has one partition, got %d", partition)
	}
	in, err := e.Input.Execute(ctx, 0)
	if err != nil {
		return nil, err
	}
	res := memory.NewReservation(ctx.Pool, "WatermarkAggExec")
	unregister := memory.RegisterConsumer(ctx.Pool)
	m := e.Metrics()
	wmCounter := m.Counter("watermark")
	emitted := m.Counter("groups_emitted")

	buckets := map[int64]*wmBucket{}
	var nullBucket *wmBucket
	watermark := int64(math.MinInt64)
	haveWM := false
	var queue []*arrow.RecordBatch
	done := false
	closed := false

	bucketFor := func(v int64, isNull bool) (*wmBucket, error) {
		if isNull {
			if nullBucket == nil {
				st, err := e.helper.newState()
				if err != nil {
					return nil, err
				}
				nullBucket = &wmBucket{st: st}
			}
			return nullBucket, nil
		}
		bk := buckets[v]
		if bk == nil {
			st, err := e.helper.newState()
			if err != nil {
				return nil, err
			}
			bk = &wmBucket{st: st}
			buckets[v] = bk
		}
		return bk, nil
	}

	// emitBucket finalizes one bucket's groups into the output queue.
	emitBucket := func(bk *wmBucket) error {
		emitted.Add(int64(bk.st.numGroups()))
		batches, err := e.helper.emit(bk.st, ctx.BatchRows)
		if err != nil {
			return err
		}
		queue = append(queue, batches...)
		return nil
	}

	// closeRipe emits (ascending) every bucket the watermark has passed by
	// more than the lateness allowance.
	closeRipe := func() error {
		if !haveWM {
			return nil
		}
		var ripe []int64
		for v := range buckets {
			if v < watermark-e.Lateness {
				ripe = append(ripe, v)
			}
		}
		sort.Slice(ripe, func(i, j int) bool { return ripe[i] < ripe[j] })
		for _, v := range ripe {
			if err := emitBucket(buckets[v]); err != nil {
				return err
			}
			delete(buckets, v)
		}
		return nil
	}

	resize := func() error {
		var total int64
		for _, bk := range buckets {
			total += bk.st.table.memUsage()
		}
		if nullBucket != nil {
			total += nullBucket.st.table.memUsage()
		}
		if err := res.Resize(total); err != nil {
			return err
		}
		m.UpdateMemPeak(res.Size())
		return nil
	}

	next := func() (*arrow.RecordBatch, error) {
		for {
			if len(queue) > 0 {
				b := queue[0]
				queue = queue[1:]
				return b, nil
			}
			if done {
				return nil, io.EOF
			}
			if err := checkCancel(ctx); err != nil {
				return nil, err
			}
			b, err := in.Next()
			if err == io.EOF {
				// End of stream: flush every open bucket in event-time
				// order, NULL event times last.
				var rest []int64
				for v := range buckets {
					rest = append(rest, v)
				}
				sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
				for _, v := range rest {
					if err := emitBucket(buckets[v]); err != nil {
						return nil, err
					}
					delete(buckets, v)
				}
				if nullBucket != nil {
					if err := emitBucket(nullBucket); err != nil {
						return nil, err
					}
					nullBucket = nil
				}
				done = true
				continue
			}
			if err != nil {
				return nil, err
			}
			if b.NumRows() == 0 {
				continue
			}
			wmArr, err := physical.EvalToArray(e.helper.GroupExprs[e.WatermarkPos], b, nil)
			if err != nil {
				return nil, err
			}
			// Split the batch's rows by event-time value; each value's rows
			// update that bucket's independent aggregation state.
			byVal := map[int64][]int32{}
			var nullIdx []int32
			for i := 0; i < b.NumRows(); i++ {
				if !wmArr.IsValid(i) {
					nullIdx = append(nullIdx, int32(i))
					continue
				}
				v := wmArr.GetScalar(i).AsInt64()
				byVal[v] = append(byVal[v], int32(i))
				if !haveWM || v > watermark {
					watermark = v
					haveWM = true
				}
			}
			for v, idx := range byVal {
				bk, err := bucketFor(v, false)
				if err != nil {
					return nil, err
				}
				bk.groupIdx, err = e.helper.update(bk.st, takeRows(b, idx), bk.groupIdx, nil)
				if err != nil {
					return nil, err
				}
			}
			if len(nullIdx) > 0 {
				bk, err := bucketFor(0, true)
				if err != nil {
					return nil, err
				}
				bk.groupIdx, err = e.helper.update(bk.st, takeRows(b, nullIdx), bk.groupIdx, nil)
				if err != nil {
					return nil, err
				}
			}
			if haveWM {
				wmCounter.Store(watermark)
			}
			if err := resize(); err != nil {
				return nil, err
			}
			if err := closeRipe(); err != nil {
				return nil, err
			}
		}
	}
	closeFn := func() {
		if closed {
			return
		}
		closed = true
		in.Close()
		res.Free()
		unregister()
	}
	return physical.InstrumentStream(NewFuncStream(e.Schema(), next, closeFn), m), nil
}

// takeRows gathers the given row indices of every column into a new batch.
func takeRows(b *arrow.RecordBatch, idx []int32) *arrow.RecordBatch {
	cols := make([]arrow.Array, b.NumCols())
	for c := range cols {
		cols[c] = compute.Take(b.Column(c), idx)
	}
	return arrow.NewRecordBatchWithRows(b.Schema(), cols, len(idx))
}
