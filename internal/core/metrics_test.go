package core

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/exec"
	"gofusion/internal/memory"
)

// TestExplainAnalyzeDiffersFromExplain is the regression test for the
// dropped ExplainStmt.Analyze flag: EXPLAIN ANALYZE used to return the
// exact same text as EXPLAIN. ANALYZE output must carry per-operator
// metric annotations that plain EXPLAIN never has.
func TestExplainAnalyzeDiffersFromExplain(t *testing.T) {
	s := newTestSession(t, 2)
	const query = "SELECT dname, count(*) FROM emp JOIN dept ON dept_id = did GROUP BY dname"

	plain := strings.Join(q(t, s, "EXPLAIN "+query), "\n")
	analyzed := strings.Join(q(t, s, "EXPLAIN ANALYZE "+query), "\n")

	if plain == analyzed {
		t.Fatal("EXPLAIN ANALYZE returned identical output to EXPLAIN")
	}
	if strings.Contains(plain, "metrics=[") {
		t.Fatalf("plain EXPLAIN must not carry metrics:\n%s", plain)
	}
	for _, want := range []string{"metrics=[", "output_rows=", "elapsed_compute=", "== Query Summary ==", "rows_returned="} {
		if !strings.Contains(analyzed, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, analyzed)
		}
	}
	// Every operator line of the annotated physical plan carries metrics.
	inPlan := false
	for _, line := range strings.Split(analyzed, "\n") {
		switch {
		case strings.Contains(line, "== Physical Plan"):
			inPlan = true
		case strings.Contains(line, "== Query Summary =="):
			inPlan = false
		case inPlan && strings.TrimSpace(line) != "":
			if !strings.Contains(line, "metrics=[") {
				t.Fatalf("operator line lacks metrics: %q\nfull output:\n%s", line, analyzed)
			}
		}
	}
}

// TestCollectWithMetrics checks the programmatic metrics surface: row
// accounting matches the returned batches and the plan passes the
// cross-operator invariant checker.
func TestCollectWithMetrics(t *testing.T) {
	s := newTestSession(t, 4)
	df, err := s.SQL("SELECT dept_id, sum(salary) FROM emp GROUP BY dept_id ORDER BY dept_id")
	if err != nil {
		t.Fatal(err)
	}
	batches, qm, err := df.CollectWithMetrics()
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, b := range batches {
		rows += int64(b.NumRows())
	}
	if rows == 0 || qm.RowsReturned != rows {
		t.Fatalf("RowsReturned = %d, batches hold %d", qm.RowsReturned, rows)
	}
	if qm.Plan == nil {
		t.Fatal("no executed plan attached")
	}
	if err := exec.CheckPlanMetrics(qm.Plan, rows); err != nil {
		t.Fatalf("invariant check: %v", err)
	}
}

// TestCollectWithMetricsSpill: a memory-limited session must surface
// spill metrics through the plan and the pool peak must stay at or under
// the limit.
func TestCollectWithMetricsSpill(t *testing.T) {
	s := NewSession(SessionConfig{TargetPartitions: 2, MemoryLimit: 4 << 10})
	schema := arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, false),
	)
	kb := arrow.NewNumericBuilder[int64](arrow.Int64)
	vb := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < 20000; i++ {
		kb.Append(int64((i * 7919) % 20000))
		vb.Append(int64(i))
	}
	batch := arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()})
	if err := s.RegisterBatches("big", schema, []*arrow.RecordBatch{batch}); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT k, v FROM big ORDER BY k DESC, v")
	if err != nil {
		t.Fatal(err)
	}
	_, qm, err := df.CollectWithMetrics()
	if err != nil {
		t.Fatal(err)
	}
	count, bytes := exec.PlanSpillStats(qm.Plan)
	if count == 0 || bytes == 0 {
		t.Fatalf("expected spills under 4KiB limit, got count=%d bytes=%d", count, bytes)
	}
	if qm.PoolReservedPeak > 4<<10 {
		t.Fatalf("pool peak %d exceeds limit", qm.PoolReservedPeak)
	}
	// Spill metrics must also surface in the rendered EXPLAIN ANALYZE.
	text := exec.ExplainAnalyze(qm.Plan)
	if !strings.Contains(text, "spill_count=") || !strings.Contains(text, "spilled_bytes=") {
		t.Fatalf("spill metrics missing from EXPLAIN ANALYZE:\n%s", text)
	}
}

// TestExplainWindowRendering pins how EXPLAIN shows window execution: the
// operator names its keys and partition count, sits on a hash exchange when
// PARTITION BY allows one, and carries topk=k once the physical top-k
// rewrite fired; ANALYZE adds the groups and rows_pruned_topk counters.
func TestExplainWindowRendering(t *testing.T) {
	s := newTestSession(t, 2)
	const topK = `SELECT name FROM (SELECT name, row_number() OVER (PARTITION BY dept_id ORDER BY salary DESC) AS rn FROM emp) ranked WHERE rn <= 2`
	// q renders every plan line as a quoted string cell.
	explain := func(query string) []string {
		lines := q(t, s, query)
		for i, line := range lines {
			plainLine, err := strconv.Unquote(line)
			if err != nil {
				t.Fatalf("EXPLAIN row %q: %v", line, err)
			}
			lines[i] = plainLine
		}
		return lines
	}
	plain := explain("EXPLAIN " + topK)
	windowLine := -1
	for i, line := range plain {
		if strings.Contains(line, "WindowExec: ") {
			windowLine = i
			want := "WindowExec: row_number partition_by=[dept_id@1] order_by=[salary@2 DESC] partitions=2 topk=2"
			if strings.TrimSpace(line) != want {
				t.Fatalf("window line %q, want %q", strings.TrimSpace(line), want)
			}
		}
	}
	if windowLine < 0 || windowLine+1 >= len(plain) || !strings.Contains(plain[windowLine+1], "RepartitionExec: hash(1 exprs) into 2") {
		t.Fatalf("want a hash exchange directly under the window:\n%s", strings.Join(plain, "\n"))
	}
	analyzed := strings.Join(explain("EXPLAIN ANALYZE "+topK), "\n")
	// 6 employees in 3 departments and a NULL one; dept 10 and 20 have two each.
	for _, want := range []string{"groups=4", "rows_pruned_topk=0", "mem_reserved_peak="} {
		if !strings.Contains(analyzed, want) {
			t.Fatalf("EXPLAIN ANALYZE missing %q:\n%s", want, analyzed)
		}
	}

	// No PARTITION BY: one partition, no exchange, no top-k for rank().
	full := strings.Join(explain(`EXPLAIN SELECT name, rank() OVER (ORDER BY salary) FROM emp`), "\n")
	if !strings.Contains(full, "WindowExec: rank partition_by=[] order_by=[salary@1 ASC] partitions=1\n") {
		t.Fatalf("unpartitioned window rendering:\n%s", full)
	}
	if strings.Contains(full, "hash(") || strings.Contains(full, "topk=") {
		t.Fatalf("unpartitioned window must not shuffle or limit:\n%s", full)
	}
}

// TestWindowMemoryLimit: windows do not spill, so a window over more rows
// than the session's MemoryLimit allows fails with the typed exhaustion
// error the server maps to a retryable 503.
func TestWindowMemoryLimit(t *testing.T) {
	s := NewSession(SessionConfig{TargetPartitions: 2, MemoryLimit: 4 << 10})
	schema := arrow.NewSchema(
		arrow.NewField("k", arrow.Int64, false),
		arrow.NewField("v", arrow.Int64, false),
	)
	kb := arrow.NewNumericBuilder[int64](arrow.Int64)
	vb := arrow.NewNumericBuilder[int64](arrow.Int64)
	for i := 0; i < 20000; i++ {
		kb.Append(int64(i % 50))
		vb.Append(int64(i))
	}
	batch := arrow.NewRecordBatch(schema, []arrow.Array{kb.Finish(), vb.Finish()})
	if err := s.RegisterBatches("big", schema, []*arrow.RecordBatch{batch}); err != nil {
		t.Fatal(err)
	}
	df, err := s.SQL("SELECT k, sum(v) OVER (PARTITION BY k ORDER BY v) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	_, err = df.Collect()
	var exhausted *memory.ErrResourcesExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("window under a 4 KiB limit: got %v, want ErrResourcesExhausted", err)
	}
}
