package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/csvio"
	"gofusion/internal/jsonio"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
	"gofusion/internal/testutil"
)

// streamSchema is the two-column shape used by the streaming tests:
// a payload column and an event-time column.
func streamSchema() *arrow.Schema {
	return arrow.NewSchema(
		arrow.NewField("a", arrow.Int64, false),
		arrow.NewField("e", arrow.Int64, false),
	)
}

func int64Batch(schema *arrow.Schema, cols ...[]int64) *arrow.RecordBatch {
	arrs := make([]arrow.Array, len(cols))
	for i, c := range cols {
		arrs[i] = arrow.NewInt64(c)
	}
	return arrow.NewRecordBatch(schema, arrs)
}

func int64Col(t *testing.T, b *arrow.RecordBatch, col int) []int64 {
	t.Helper()
	out := make([]int64, b.NumRows())
	arr := b.Column(col)
	for i := range out {
		out[i] = arr.GetScalar(i).AsInt64()
	}
	return out
}

// TestStreamingBreakers: every full-pipeline-blocking operator must be
// rejected at plan time over an unbounded source, with an error that
// names the operator and says how to fix the query. One regression case
// per breaker.
func TestStreamingBreakers(t *testing.T) {
	s := NewSession(SessionConfig{TargetPartitions: 2})
	defer s.Close()
	if _, err := s.RegisterStream("live", streamSchema(), "e"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterBatches("dim", arrow.NewSchema(arrow.NewField("x", arrow.Int64, false)),
		[]*arrow.RecordBatch{int64Batch(arrow.NewSchema(arrow.NewField("x", arrow.Int64, false)), []int64{1, 2})}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, sql, op string
	}{
		{"sort", "SELECT a FROM live ORDER BY a", "ExternalSortExec"},
		{"topk", "SELECT a FROM live ORDER BY a LIMIT 5", "TopKExec"},
		{"global-agg", "SELECT sum(a) AS s FROM live", "HashAggregateExec"},
		{"non-watermark-group", "SELECT a, count(*) AS c FROM live GROUP BY a", "HashAggregateExec"},
		{"distinct-no-watermark", "SELECT DISTINCT a FROM live", "HashAggregateExec"},
		{"outer-join-on-stream", "SELECT a, x FROM live LEFT JOIN dim ON a = x", "HashJoinExec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			df, err := s.SQL(tc.sql)
			if err != nil {
				t.Fatalf("parse/plan: %v", err)
			}
			_, err = df.Collect()
			if err == nil {
				t.Fatalf("%s executed over an unbounded source", tc.sql)
			}
			if !strings.Contains(err.Error(), tc.op) ||
				!strings.Contains(err.Error(), "cannot run over an unbounded input") {
				t.Fatalf("breaker error should name %s and the unbounded input, got: %v", tc.op, err)
			}
			// Execute must reject the same plan: a live stream handle is the
			// usual consumer of these queries.
			if _, err := df.Execute(context.Background()); err == nil ||
				!strings.Contains(err.Error(), tc.op) {
				t.Fatalf("Execute accepted a plan Collect rejected: %v", err)
			}
		})
	}

	// Window functions have no SQL surface yet; break through the frame API.
	df, err := s.Table("live")
	if err != nil {
		t.Fatal(err)
	}
	df = df.Window(&logical.Alias{E: &logical.WindowFunc{Name: "row_number"}, Name: "rn"})
	if _, err := df.Collect(); err == nil || !strings.Contains(err.Error(), "WindowExec") {
		t.Fatalf("window over unbounded input not rejected: %v", err)
	}
}

// TestStreamingLimitBoundsTail: LIMIT cuts an unbounded scan into a
// bounded query, so it must plan and finish once enough rows exist.
func TestStreamingLimitBoundsTail(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	st, err := s.RegisterStream("live", streamSchema(), "e")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(int64Batch(streamSchema(), []int64{1, 2, 3, 4, 5, 6, 7}, []int64{1, 2, 3, 4, 5, 6, 7})); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT a FROM live LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := df.Collect()
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, b := range bs {
		rows += b.NumRows()
	}
	if rows != 5 {
		t.Fatalf("LIMIT 5 over live stream returned %d rows", rows)
	}
}

// TestWatermarkAggEarlyEmit: the streaming aggregate must emit a bucket as
// soon as the watermark passes it — before the source seals — and flush
// the rest at seal, in event-time order.
func TestWatermarkAggEarlyEmit(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	st, err := s.RegisterStream("live", streamSchema(), "e")
	if err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT e, count(*) AS c FROM live GROUP BY e")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := df.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()

	// Watermark reaches 2: bucket e=1 is ripe and must emit now.
	if err := st.Append(int64Batch(streamSchema(), []int64{10, 11, 12}, []int64{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	b, err := qs.Next()
	if err == io.EOF {
		t.Fatal("stream ended before the first watermark emission")
	} else if err != nil {
		t.Fatal(err)
	}
	if es, cs := int64Col(t, b, 0), int64Col(t, b, 1); len(es) != 1 || es[0] != 1 || cs[0] != 2 {
		t.Fatalf("first emit: e=%v c=%v, want e=[1] c=[2]", es, cs)
	}

	// Watermark jumps to 5: bucket e=2 closes without any new rows in it.
	if err := st.Append(int64Batch(streamSchema(), []int64{13}, []int64{5})); err != nil {
		t.Fatal(err)
	}
	b, err = qs.Next()
	if err != nil {
		t.Fatal(err)
	}
	if es, cs := int64Col(t, b, 0), int64Col(t, b, 1); len(es) != 1 || es[0] != 2 || cs[0] != 1 {
		t.Fatalf("second emit: e=%v c=%v, want e=[2] c=[1]", es, cs)
	}

	// Seal: the open e=5 bucket flushes, then the stream ends.
	st.Seal()
	b, err = qs.Next()
	if err != nil {
		t.Fatal(err)
	}
	if es, cs := int64Col(t, b, 0), int64Col(t, b, 1); len(es) != 1 || es[0] != 5 || cs[0] != 1 {
		t.Fatalf("flush: e=%v c=%v, want e=[5] c=[1]", es, cs)
	}
	if _, err := qs.Next(); err != io.EOF {
		t.Fatalf("want EOF after flush, got %v", err)
	}
}

// TestWatermarkLateness: a lateness allowance holds buckets open past the
// watermark so late rows still land in their bucket.
func TestWatermarkLateness(t *testing.T) {
	s := NewSession(SessionConfig{WatermarkLateness: 3})
	defer s.Close()
	st, err := s.RegisterStream("live", streamSchema(), "e")
	if err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT e, count(*) AS c FROM live GROUP BY e")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := df.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()

	// Watermark 5 with lateness 3 closes only buckets below 2.
	if err := st.Append(int64Batch(streamSchema(), []int64{10, 11, 12}, []int64{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(int64Batch(streamSchema(), []int64{13}, []int64{5})); err != nil {
		t.Fatal(err)
	}
	b, err := qs.Next()
	if err == io.EOF {
		t.Fatal("stream ended before the lateness-bounded emission")
	} else if err != nil {
		t.Fatal(err)
	}
	if es := int64Col(t, b, 0); len(es) != 1 || es[0] != 1 {
		t.Fatalf("lateness window emitted %v, want [1]", es)
	}
	// A late row for e=2 is still accepted (2 >= watermark-lateness).
	if err := st.Append(int64Batch(streamSchema(), []int64{14}, []int64{2})); err != nil {
		t.Fatal(err)
	}
	st.Seal()
	var got [][2]int64
	for {
		b, err := qs.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		es, cs := int64Col(t, b, 0), int64Col(t, b, 1)
		for i := range es {
			got = append(got, [2]int64{es[i], cs[i]})
		}
	}
	want := [][2]int64{{2, 2}, {5, 1}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("post-seal flush: %v, want %v", got, want)
	}
}

// TestStreamingSymmetricJoin: two live streams route onto the symmetric
// hash join and emit matches before either side seals.
func TestStreamingSymmetricJoin(t *testing.T) {
	s := NewSession(SessionConfig{TargetPartitions: 2})
	defer s.Close()
	lsch := streamSchema()
	rsch := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	l, err := s.RegisterStream("l", lsch, "e")
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RegisterStream("r", rsch, "")
	if err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT a, x FROM l JOIN r ON a = x")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "SymmetricHashJoinExec") {
		t.Fatalf("two live inputs should use the symmetric join:\n%s", plan)
	}
	qs, err := df.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	if err := l.Append(int64Batch(lsch, []int64{1, 2, 3}, []int64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	if err := r.Append(int64Batch(rsch, []int64{2, 3, 4})); err != nil {
		t.Fatal(err)
	}
	// Matches {2,3} must surface while both sides are still live.
	matched := map[int64]bool{}
	for len(matched) < 2 {
		b, err := qs.Next()
		if err == io.EOF {
			t.Fatalf("join ended before both matches surfaced (got %v)", matched)
		} else if err != nil {
			t.Fatalf("pre-seal matches: %v (got %v)", err, matched)
		}
		for _, v := range int64Col(t, b, 0) {
			matched[v] = true
		}
	}
	if !matched[2] || !matched[3] {
		t.Fatalf("matched %v, want {2,3}", matched)
	}
	l.Seal()
	r.Seal()
	for {
		if _, err := qs.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamingProbeJoin: a bounded build side with a live probe side
// stays on the regular hash join and streams probe matches as they
// arrive.
func TestStreamingProbeJoin(t *testing.T) {
	s := NewSession(SessionConfig{})
	defer s.Close()
	dsch := arrow.NewSchema(arrow.NewField("x", arrow.Int64, false))
	if err := s.RegisterBatches("dim", dsch, []*arrow.RecordBatch{int64Batch(dsch, []int64{2, 3})}); err != nil {
		t.Fatal(err)
	}
	st, err := s.RegisterStream("live", streamSchema(), "e")
	if err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT x, a FROM dim JOIN live ON x = a")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := df.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "HashJoinExec") || strings.Contains(plan, "Symmetric") {
		t.Fatalf("bounded build + live probe should use the plain hash join:\n%s", plan)
	}
	qs, err := df.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	if err := st.Append(int64Batch(streamSchema(), []int64{1, 2, 3}, []int64{1, 2, 3})); err != nil {
		t.Fatal(err)
	}
	b, err := qs.Next()
	if err == io.EOF {
		t.Fatal("live probe ended before emitting matches")
	} else if err != nil {
		t.Fatal(err)
	}
	if got := int64Col(t, b, 0); len(got) != 2 {
		t.Fatalf("probe matches %v, want two", got)
	}
}

// TestStreamingCancelUnblocks: cancelling the query context must unblock
// a tail read waiting on a quiet source.
func TestStreamingCancelUnblocks(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	s := NewSession(SessionConfig{})
	defer s.Close()
	if _, err := s.RegisterStream("live", streamSchema(), "e"); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT a FROM live WHERE a > 0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	qs, err := df.Execute(ctx)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := qs.Next(); err == nil || err == io.EOF {
		t.Fatalf("blocked tail read returned %v after cancel, want context error", err)
	}
	qs.Close()
}

// TestTailingJSONFile: an NDJSON file appended by an external writer is
// an unbounded source; the scan yields rows as they land and ends at the
// seal marker.
func TestTailingJSONFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "events.ndjson")
	if err := os.WriteFile(path, []byte("{\"a\":1,\"e\":1}\n{\"a\":2,\"e\":2}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{})
	defer s.Close()
	if _, err := s.RegisterTailingJSON("tailed", path, streamSchema(), "e", 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT a, e FROM tailed WHERE e >= 0")
	if err != nil {
		t.Fatal(err)
	}
	qs, err := df.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	b, err := qs.Next()
	if err == io.EOF {
		t.Fatal("tail ended before serving the initial rows")
	} else if err != nil {
		t.Fatal(err)
	}
	if got := int64Col(t, b, 0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("initial rows %v, want [1 2]", got)
	}
	// External append: complete lines become visible; the trailing partial
	// line must be withheld until its newline arrives.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"a\":3,\"e\":3}\n{\"a\":4,"); err != nil {
		t.Fatal(err)
	}
	b, err = qs.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := int64Col(t, b, 0); len(got) != 1 || got[0] != 3 {
		t.Fatalf("appended rows %v, want [3]", got)
	}
	if _, err := f.WriteString("\"e\":4}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	b, err = qs.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := int64Col(t, b, 0); len(got) != 1 || got[0] != 4 {
		t.Fatalf("completed row %v, want [4]", got)
	}
	if err := os.WriteFile(catalog.SealMarker(path), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := qs.Next(); err != io.EOF {
		t.Fatalf("want EOF after seal marker, got %v", err)
	}
}

// TestCopyIntoFormats: COPY INTO bulk-loads every supported format into
// an existing table through the SQL surface. The gpq case is the
// regression for COPY reading zero rows when the staging scan's limit
// defaulted to 0 instead of "none".
func TestCopyIntoFormats(t *testing.T) {
	dir := t.TempDir()
	schema := streamSchema()
	seed := []*arrow.RecordBatch{int64Batch(schema, []int64{1, 2}, []int64{1, 2})}
	stage := []*arrow.RecordBatch{int64Batch(schema, []int64{3, 4, 5}, []int64{3, 4, 5})}

	gpqStage := filepath.Join(dir, "stage.gpq")
	if err := parquet.WriteFile(gpqStage, schema, stage, parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	csvStage := filepath.Join(dir, "stage.csv")
	if err := csvio.WriteFile(csvStage, schema, stage, ','); err != nil {
		t.Fatal(err)
	}
	jsonStage := filepath.Join(dir, "stage.ndjson")
	if err := jsonio.WriteFile(jsonStage, stage); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, sql string
	}{
		{"gpq-explicit", fmt.Sprintf("COPY INTO t FROM '%s' FORMAT gpq", gpqStage)},
		{"gpq-inferred", fmt.Sprintf("COPY INTO t FROM '%s'", gpqStage)},
		{"csv", fmt.Sprintf("COPY INTO t FROM '%s' FORMAT csv", csvStage)},
		{"json", fmt.Sprintf("COPY INTO t FROM '%s' FORMAT json", jsonStage)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSession(SessionConfig{})
			defer s.Close()
			if err := s.RegisterBatches("t", schema, seed); err != nil {
				t.Fatal(err)
			}
			df, err := s.SQL(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := df.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if status := bs[0].Column(0).GetScalar(0); status.String() != `"COPY 3"` && !strings.Contains(status.String(), "COPY 3") {
				t.Fatalf("status %v, want COPY 3", status)
			}
			df2, err := s.SQL("SELECT count(*) AS c, sum(a) AS s FROM t")
			if err != nil {
				t.Fatal(err)
			}
			out, err := df2.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if c := out[0].Column(0).GetScalar(0).AsInt64(); c != 5 {
				t.Fatalf("count after COPY = %d, want 5", c)
			}
			if sum := out[0].Column(1).GetScalar(0).AsInt64(); sum != 15 {
				t.Fatalf("sum after COPY = %d, want 15", sum)
			}
		})
	}
}

// TestCopyIntoGPQAppendsInPlace: COPY INTO a GPQ-backed table must grow
// the backing file in place (new row groups, rewritten footer) and the
// re-registered table must serve old and new rows.
func TestCopyIntoGPQAppendsInPlace(t *testing.T) {
	dir := t.TempDir()
	schema := streamSchema()
	base := filepath.Join(dir, "base.gpq")
	if err := parquet.WriteFile(base, schema,
		[]*arrow.RecordBatch{int64Batch(schema, []int64{1, 2}, []int64{1, 2})}, parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	stagePath := filepath.Join(dir, "stage.gpq")
	if err := parquet.WriteFile(stagePath, schema,
		[]*arrow.RecordBatch{int64Batch(schema, []int64{3}, []int64{3})}, parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{})
	defer s.Close()
	if err := s.RegisterGPQ("t", base); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mustCollect(s, fmt.Sprintf("COPY INTO t FROM '%s'", stagePath)); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= before.Size() {
		t.Fatalf("backing file did not grow: %d -> %d bytes", before.Size(), after.Size())
	}
	out, err := mustCollect(s, "SELECT count(*) AS c FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if c := out[0].Column(0).GetScalar(0).AsInt64(); c != 3 {
		t.Fatalf("count after in-place append = %d, want 3", c)
	}
}

func mustCollect(s *SessionContext, sql string) ([]*arrow.RecordBatch, error) {
	df, err := s.SQL(sql)
	if err != nil {
		return nil, err
	}
	return df.Collect()
}

// TestInsertStampsOnlyItsTable: every write path (INSERT into a mem
// table, INSERT into a stream, COPY INTO a GPQ table) gives the written
// table a fresh write stamp and leaves every other table's stamp alone,
// so caches over the other tables stay valid.
func TestInsertStampsOnlyItsTable(t *testing.T) {
	dir := t.TempDir()
	schema := streamSchema()
	base := filepath.Join(dir, "base.gpq")
	stage := filepath.Join(dir, "stage.gpq")
	for _, path := range []string{base, stage} {
		if err := parquet.WriteFile(path, schema,
			[]*arrow.RecordBatch{int64Batch(schema, []int64{1}, []int64{1})}, parquet.DefaultWriterOptions()); err != nil {
			t.Fatal(err)
		}
	}
	s := NewSession(SessionConfig{})
	defer s.Close()
	if err := s.RegisterBatches("m", schema, []*arrow.RecordBatch{int64Batch(schema, []int64{1}, []int64{1})}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterStream("st", schema, "e"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterGPQ("g", base); err != nil {
		t.Fatal(err)
	}
	tables := []string{"m", "st", "g"}
	stamps := func() map[string]uint64 {
		out := map[string]uint64{}
		for _, name := range tables {
			_, stamp, _ := s.Catalog().Lookup("public", name)
			out[name] = stamp
		}
		return out
	}
	for _, w := range []struct{ table, sql string }{
		{"m", "INSERT INTO m VALUES (2, 2)"},
		{"st", "INSERT INTO st VALUES (3, 3)"},
		{"g", fmt.Sprintf("COPY INTO g FROM '%s'", stage)},
	} {
		before := stamps()
		if _, err := mustCollect(s, w.sql); err != nil {
			t.Fatal(err)
		}
		after := stamps()
		for _, name := range tables {
			if changed := after[name] != before[name]; changed != (name == w.table) {
				t.Errorf("%s: stamp of %s went %d -> %d", w.sql, name, before[name], after[name])
			}
		}
	}
}

// TestResultCacheInvalidationUnderInsert pins the result-cache hit/miss
// counters across append -> re-query: miss, hit, INSERT (invalidate),
// miss with fresh rows, hit again — asserted through both QueryMetrics
// and the EXPLAIN ANALYZE rendering.
func TestResultCacheInvalidationUnderInsert(t *testing.T) {
	s := NewSession(SessionConfig{EnableResultCache: true})
	defer s.Close()
	schema := streamSchema()
	if err := s.RegisterBatches("m", schema, []*arrow.RecordBatch{int64Batch(schema, []int64{1, 2}, []int64{1, 2})}); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT sum(a) AS s FROM m"

	run := func(wantHit bool, wantSum int64) {
		t.Helper()
		df, err := s.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		bs, qm, err := df.CollectWithMetrics()
		if err != nil {
			t.Fatal(err)
		}
		if qm.ResultCacheHit != wantHit {
			t.Fatalf("ResultCacheHit=%t, want %t (hits=%d misses=%d)",
				qm.ResultCacheHit, wantHit, qm.ResultCacheHits, qm.ResultCacheMisses)
		}
		if got := bs[0].Column(0).GetScalar(0).AsInt64(); got != wantSum {
			t.Fatalf("sum=%d, want %d (hit=%t)", got, wantSum, wantHit)
		}
	}

	run(false, 3) // cold: miss, computes 1+2
	run(true, 3)  // warm: served from cache
	if _, err := mustCollect(s, "INSERT INTO m VALUES (10, 3)"); err != nil {
		t.Fatal(err)
	}
	run(false, 13) // the write renewed m's stamp: stale entry unusable
	run(true, 13)  // re-cached

	// The EXPLAIN ANALYZE summary must surface the same verdict.
	df, err := s.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	text, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "result_cache: hit=true") {
		t.Fatalf("EXPLAIN ANALYZE missing result-cache hit line:\n%s", text)
	}
}

// TestPageCacheInvalidationUnderCopy pins the shared decoded-page cache
// counters across a GPQ in-place append: warm hits before, misses (new
// fingerprint) after COPY INTO rotates the file identity, and correct
// rows throughout.
func TestPageCacheInvalidationUnderCopy(t *testing.T) {
	dir := t.TempDir()
	schema := streamSchema()
	base := filepath.Join(dir, "base.gpq")
	if err := parquet.WriteFile(base, schema,
		[]*arrow.RecordBatch{int64Batch(schema, []int64{1, 2}, []int64{1, 2})}, parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	stagePath := filepath.Join(dir, "stage.gpq")
	if err := parquet.WriteFile(stagePath, schema,
		[]*arrow.RecordBatch{int64Batch(schema, []int64{3}, []int64{3})}, parquet.DefaultWriterOptions()); err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{})
	defer s.Close()
	if err := s.RegisterGPQ("t", base); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT sum(a) AS s FROM t WHERE e >= 0"

	run := func(wantSum int64) *QueryMetrics {
		t.Helper()
		df, err := s.SQL(q)
		if err != nil {
			t.Fatal(err)
		}
		bs, qm, err := df.CollectWithMetrics()
		if err != nil {
			t.Fatal(err)
		}
		if got := bs[0].Column(0).GetScalar(0).AsInt64(); got != wantSum {
			t.Fatalf("sum=%d, want %d", got, wantSum)
		}
		return qm
	}

	cold := run(3)
	if cold.PageCacheMisses == 0 {
		t.Fatalf("cold scan should miss the page cache (hits=%d misses=%d)",
			cold.PageCacheHits, cold.PageCacheMisses)
	}
	warm := run(3)
	if warm.PageCacheHits == 0 || warm.PageCacheMisses != 0 {
		t.Fatalf("warm scan should be all hits (hits=%d misses=%d)",
			warm.PageCacheHits, warm.PageCacheMisses)
	}
	if _, err := mustCollect(s, fmt.Sprintf("COPY INTO t FROM '%s'", stagePath)); err != nil {
		t.Fatal(err)
	}
	// The append rewrote the file: size and mtime changed, so every page
	// key rotated and the first post-append scan must re-decode.
	grown := run(6)
	if grown.PageCacheMisses == 0 {
		t.Fatalf("post-append scan served stale pages (hits=%d misses=%d)",
			grown.PageCacheHits, grown.PageCacheMisses)
	}
	rewarm := run(6)
	if rewarm.PageCacheHits == 0 || rewarm.PageCacheMisses != 0 {
		t.Fatalf("re-warmed scan should be all hits (hits=%d misses=%d)",
			rewarm.PageCacheHits, rewarm.PageCacheMisses)
	}

	df, err := s.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	text, err := df.ExplainAnalyze()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "page_cache: hits=") {
		t.Fatalf("EXPLAIN ANALYZE missing page-cache line:\n%s", text)
	}
}

// TestCollectContextCancelsAQueryInFlight collects a query over an
// unsealed stream table, which waits for the next append, and cancels its
// context: CollectContext must return the cancellation instead of waiting
// for a write that never comes.
func TestCollectContextCancelsAQueryInFlight(t *testing.T) {
	s := NewSession(SessionConfig{})
	if _, err := s.RegisterStream("live", streamSchema(), ""); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT a FROM live")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := df.CollectContext(ctx)
		done <- err
	}()
	// Let the query reach the stream's wait; a cancel that lands before
	// it still passes, through collect's up-front ctx.Err check.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CollectContext returned %v, want the cancellation", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CollectContext still running 10s after its context was cancelled")
	}
}
