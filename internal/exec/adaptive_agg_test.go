package exec

import (
	"context"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// hookedSource serves fixed batches per partition and calls onBatch before
// handing each one out, so a test can act at an exact point of a stream.
type hookedSource struct {
	physical.OpMetrics
	schema  *arrow.Schema
	parts   [][]*arrow.RecordBatch
	onBatch func(partition, batch int)
}

func (s *hookedSource) Schema() *arrow.Schema                { return s.schema }
func (s *hookedSource) Children() []physical.ExecutionPlan   { return nil }
func (s *hookedSource) Partitions() int                      { return len(s.parts) }
func (s *hookedSource) OutputOrdering() []physical.SortField { return nil }
func (s *hookedSource) String() string                       { return "hookedSource" }
func (s *hookedSource) WithChildren([]physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	return s, nil
}
func (s *hookedSource) Execute(_ *physical.ExecContext, p int) (physical.Stream, error) {
	i := 0
	next := func() (*arrow.RecordBatch, error) {
		if i == len(s.parts[p]) {
			return nil, io.EOF
		}
		if s.onBatch != nil {
			s.onBatch(p, i)
		}
		i++
		return s.parts[p][i-1], nil
	}
	return physical.InstrumentStream(NewFuncStream(s.schema, next, func() {}), s.Metrics()), nil
}

// distinctParts is parts partitions of nBatches 8192-row (id, k) batches
// whose ids never repeat: grouped by id, every row is its own group.
func distinctParts(parts, nBatches int) *hookedSource {
	src := &hookedSource{}
	for p := 0; p < parts; p++ {
		in := pushInput(nBatches, 8192, 1<<40)
		if p > 0 { // shift ids so partitions do not share groups
			for i, b := range in.Batches {
				ids := append([]int64(nil), b.Column(0).(*arrow.Int64Array).Values()...)
				for j := range ids {
					ids[j] += int64(p) << 32
				}
				in.Batches[i] = arrow.NewRecordBatch(b.Schema(), []arrow.Array{arrow.NewInt64(ids), b.Column(1)})
			}
		}
		src.schema = in.Schema()
		src.parts = append(src.parts, in.Batches)
	}
	return src
}

// uniformInput is nBatches batches of rows (id, k) rows with k drawn
// uniformly from domain values.
func uniformInput(nBatches, rows int, domain int64) *ValuesExec {
	in := pushInput(nBatches, rows, 1)
	rng := rand.New(rand.NewSource(int64(domain)))
	for i, b := range in.Batches {
		ks := make([]int64, rows)
		for j := range ks {
			ks[j] = rng.Int63n(domain)
		}
		in.Batches[i] = arrow.NewRecordBatch(b.Schema(), []arrow.Array{b.Column(0), arrow.NewInt64(ks)})
	}
	return in
}

// TestAdaptivePartialAggSwitch drives one partial aggregate by hand across
// its probe window. Grouped by a unique column it must flush its table at
// the first batch boundary at or past partialProbeMinRows, hold no memory
// from then on, and turn every later batch into partial states one-for-one.
// It must never switch on 100 groups, on keys drawn uniformly from 60 000
// values (about 0.5 groups per row at the end of the window), or on input
// shorter than partialProbeMinRows. Either way the states merge to the
// exact result.
func TestAdaptivePartialAggSwitch(t *testing.T) {
	if partialProbeMinRows != 8192 {
		t.Fatalf("partialProbeMinRows = %d; the cases below assume one 8192-row batch", partialProbeMinRows)
	}
	for _, tc := range []struct {
		name     string
		in       *ValuesExec
		groupCol int
		switchAt int // batches pushed when the table flushes; 0: never
	}{
		{"all-distinct", pushInput(14, 8192, 100), 0, 1},
		{"all-distinct-3000-row-batches", pushInput(10, 3000, 100), 0, 3},
		{"100-groups", pushInput(14, 8192, 100), 1, 0},
		{"uniform-60000-keys", uniformInput(14, 8192, 60_000), 1, 0},
		{"shorter-than-a-batch", pushInput(4, 2000, 100), 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := memory.NewGreedyPool(1 << 30)
			ctx := physical.NewExecContext()
			ctx.Pool = pool
			in := tc.in
			rows := in.Batches[0].NumRows()
			partial := sumCountByK(t, in, PartialAgg, tc.groupCol)
			pusher, err := partial.PushInto(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			var emitted []*arrow.RecordBatch
			emit := func(b *arrow.RecordBatch) error { emitted = append(emitted, b); return nil }
			for i, b := range in.Batches {
				before := sumRows(emitted)
				if _, err := pusher.Push(b, emit); err != nil {
					t.Fatal(err)
				}
				got := sumRows(emitted) - before
				switch {
				case tc.switchAt == 0 || i+1 < tc.switchAt:
					if got != 0 || pool.Reserved() == 0 {
						t.Fatalf("batch %d: emitted %d rows, %d bytes reserved; want accumulation", i, got, pool.Reserved())
					}
				case i+1 == tc.switchAt:
					if got != int64(tc.switchAt*rows) || pool.Reserved() != 0 {
						t.Fatalf("batch %d: emitted %d rows with %d bytes still reserved; want the whole table flushed and freed",
							i, got, pool.Reserved())
					}
				default:
					if got != int64(rows) || pool.Reserved() != 0 {
						t.Fatalf("batch %d: emitted %d rows, %d bytes reserved; want one-for-one pass-through", i, got, pool.Reserved())
					}
				}
			}
			if err := pusher.Flush(emit); err != nil {
				t.Fatal(err)
			}
			pusher.Close()
			pusher.Close() // safe after the early release
			if pool.Reserved() != 0 {
				t.Fatalf("%d bytes reserved after Close", pool.Reserved())
			}
			total := int64(len(in.Batches) * rows)
			single := sumCountByK(t, in, SingleAgg, tc.groupCol)
			want, err := CollectBatch(physical.NewExecContext(), single)
			if err != nil {
				t.Fatal(err)
			}
			snap := partial.Metrics().Snapshot()
			wantPassed, wantGroups, wantHashed := int64(0), int64(want.NumRows()), total
			if tc.switchAt > 0 {
				probed := int64(tc.switchAt * rows)
				wantPassed, wantGroups, wantHashed = total-probed, probed, probed
			}
			for name, want := range map[string]int64{
				"passthrough_rows": wantPassed, "groups": wantGroups, "hashed_rows": wantHashed,
			} {
				if got := snap.ExtraValue(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			for _, b := range emitted {
				if !b.Schema().Equal(partial.Schema()) {
					t.Fatalf("emitted schema %s, want %s", b.Schema(), partial.Schema())
				}
			}

			final := sumCountByK(t, NewValuesExec(partial.Schema(), emitted), FinalAgg, 0)
			merged, err := CollectBatch(physical.NewExecContext(), final)
			if err != nil {
				t.Fatal(err)
			}
			if !sameRowsOK(merged, rowsAsStrings(want)) {
				t.Fatal("merged partial states differ from single-phase aggregation")
			}
		})
	}
}

// TestProbeVerdictThresholds pins the early rule to its derivation: the
// groups-per-row threshold is 0.981 at one default batch, 0.928 at four,
// and partialProbeRatio at the end of the window, where the window closes.
func TestProbeVerdictThresholds(t *testing.T) {
	for _, tc := range []struct {
		n         int
		threshold float64
	}{{8192, 0.981}, {32768, 0.928}, {partialProbeRows, partialProbeRatio}} {
		lo, hi := int(math.Floor((tc.threshold-0.0005)*float64(tc.n))), int(math.Ceil((tc.threshold+0.0005)*float64(tc.n)))
		if pass, _ := probeVerdict(lo, tc.n); pass {
			t.Errorf("n=%d: %d groups (%.4f per row) pass, threshold %.3f", tc.n, lo, float64(lo)/float64(tc.n), tc.threshold)
		}
		if pass, _ := probeVerdict(hi, tc.n); !pass {
			t.Errorf("n=%d: %d groups (%.4f per row) do not pass, threshold %.3f", tc.n, hi, float64(hi)/float64(tc.n), tc.threshold)
		}
	}
	if pass, done := probeVerdict(8191, 8191); pass || done {
		t.Error("a verdict below one default batch")
	}
	if _, done := probeVerdict(0, partialProbeRows-1); done {
		t.Error("the window closed early")
	}
	if _, done := probeVerdict(0, partialProbeRows); !done {
		t.Error("the window stayed open at its end")
	}
}

// twoPhaseOver builds partial -> hash exchange -> final over src, grouped
// by column 0.
func twoPhaseOver(t *testing.T, src physical.ExecutionPlan, parts int) (*HashAggregateExec, *RepartitionExec) {
	t.Helper()
	partial := sumCountByK(t, src, PartialAgg, 0)
	rep := &RepartitionExec{Input: partial, Scheme: HashPartitioning, NumParts: parts,
		HashExprs: []physical.PhysicalExpr{physical.NewColumnExpr(0, "k", arrow.Int64)}}
	return sumCountByK(t, rep, FinalAgg, 0), rep
}

// TestAdaptivePartialAggCancelMidPassThrough cancels a two-phase
// aggregation while its partial side is passing batches through: the query
// must fail, and leave no goroutine and no reserved byte behind.
func TestAdaptivePartialAggCancelMidPassThrough(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	src := distinctParts(2, 16)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src.onBatch = func(p, i int) {
		if p == 0 && i == 3 { // past the switch after batch 0
			cancel()
		}
	}
	final, _ := twoPhaseOver(t, src, 2)
	pool := memory.NewGreedyPool(1 << 30)
	ctx := physical.NewExecContext()
	ctx.Pool, ctx.Ctx = pool, cctx
	if _, err := CollectPlan(ctx, final); err == nil {
		t.Fatal("cancelled query must fail")
	}
	partial := final.Input.(*RepartitionExec).Input.(*HashAggregateExec)
	if partial.Metrics().Snapshot().ExtraValue("passthrough_rows") == 0 {
		t.Fatal("the cancel came before the switch: the test exercised nothing")
	}
	ctx.Wait() // join the exchange's producers: they close the partial aggregates
	if held := pool.Reserved(); held != 0 {
		t.Fatalf("%d bytes still reserved after the cancelled query", held)
	}
}

// TestExchangeProducersGiveUpOnGoneConsumers runs a hash exchange with a
// one-batch buffer whose output 0 reads one batch and closes and whose
// output 1 is never opened, as when a query fails before all of its
// partitions start. Producers must stop sending to the closed output, and
// to the unopened one once the query is cancelled, so the query's cleanup
// (cancel, then Wait) returns instead of waiting on a full channel forever.
func TestExchangeProducersGiveUpOnGoneConsumers(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	src := distinctParts(2, 8)
	rep := &RepartitionExec{Input: src, Scheme: HashPartitioning, NumParts: 2,
		HashExprs: []physical.PhysicalExpr{physical.NewColumnExpr(0, "id", arrow.Int64)}}
	ctx := physical.NewExecContext()
	qctx, cancel := context.WithCancel(context.Background())
	ctx.Ctx, ctx.ExchangeBuffer = qctx, 1
	s, err := rep.Execute(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	cancel()
	joined := make(chan struct{})
	go func() {
		ctx.Wait()
		close(joined)
	}()
	select {
	case <-joined:
	case <-time.After(10 * time.Second):
		t.Fatal("exchange producers still blocked after the query was cancelled")
	}
}

// TestExchangeAbandonedOutput puts a limit over a hash exchange: the limit
// closes the exchange's outputs mid-stream, which must stop its producers
// (no goroutine left) and leave outputs_drained short of the output count —
// the only circumstance under which CheckPlanMetrics lets an exchange emit
// fewer rows than it consumed.
func TestExchangeAbandonedOutput(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	src := distinctParts(2, 40)
	rep := &RepartitionExec{Input: src, Scheme: HashPartitioning, NumParts: 3,
		HashExprs: []physical.PhysicalExpr{physical.NewColumnExpr(0, "id", arrow.Int64)}}
	limit := &GlobalLimitExec{Input: &CoalescePartitionsExec{Input: rep}, Fetch: 10}
	got, err := CollectBatch(physical.NewExecContext(), limit)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 10 {
		t.Fatalf("%d rows, want 10", got.NumRows())
	}
	snap := rep.Metrics().Snapshot()
	if snap.ExtraValue("outputs_drained") == 3 {
		t.Fatalf("every output recorded as drained under a limit: %s", snap)
	}
	if in := src.Metrics().OutputRows(); snap.OutputRows >= in {
		t.Fatalf("exchange emitted %d of %d rows: the limit did not cut it short", snap.OutputRows, in)
	}
	if err := CheckPlanMetrics(limit, 10); err != nil {
		t.Fatal(err)
	}

	// The same exchange read to the end drains every output and conserves rows.
	src = distinctParts(2, 4)
	final, rep := twoPhaseOver(t, src, 3)
	all, err := CollectBatch(physical.NewExecContext(), final)
	if err != nil {
		t.Fatal(err)
	}
	snap = rep.Metrics().Snapshot()
	if n := snap.ExtraValue("outputs_drained"); n != 3 || snap.OutputRows != 2*4*8192 {
		t.Fatalf("drained exchange: outputs_drained=%d output_rows=%d", n, snap.OutputRows)
	}
	if err := CheckPlanMetrics(final, int64(all.NumRows())); err != nil {
		t.Fatal(err)
	}
}
