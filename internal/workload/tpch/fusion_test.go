package tpch_test

import (
	"regexp"
	"strings"
	"testing"

	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/workload/tpch"
)

// explainText renders EXPLAIN <q> as one string.
func explainText(t *testing.T, s *core.SessionContext, q string) string {
	t.Helper()
	df, err := s.SQL("EXPLAIN " + q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := df.CollectBatch()
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	col := b.Column(0).(interface{ Value(int) string })
	for i := 0; i < b.NumRows(); i++ {
		plan.WriteString(col.Value(i))
		plan.WriteByte('\n')
	}
	return plan.String()
}

// TestExplainFusedRendering pins how fused segments and morsel scans
// render in EXPLAIN over a GPQ-backed table: a multi-stage chain gets a
// `PipelineExec: stages=N` line with the original operators nested beneath
// it, the scan line announces the morsel scheduler and its unit count
// whether or not a segment sits above it, and EXPLAIN ANALYZE over the
// morsel path keeps the strip-equality contract from the analyze tests.
func TestExplainFusedRendering(t *testing.T) {
	dir := t.TempDir()
	// Small row groups so even sf 0.01 lineitem yields many morsel units.
	if err := tpch.WriteGPQ(dir, 0.01, 2000); err != nil {
		t.Fatal(err)
	}
	s := core.NewSession(core.SessionConfig{TargetPartitions: 4})
	if err := tpch.RegisterGPQ(s, dir); err != nil {
		t.Fatal(err)
	}
	morselScan := regexp.MustCompile(`TableScanExec: lineitem .* scheduler=morsel units=\d+`)

	// A predicate the scan cannot evaluate stays a FilterExec, so the
	// chain filter -> partial agg fuses into one segment.
	text := explainText(t, s, "SELECT l_returnflag, sum(l_quantity) FROM lineitem WHERE l_quantity * 2 > l_tax GROUP BY l_returnflag")
	if !regexp.MustCompile(`PipelineExec: stages=\d+\n`).MatchString(text) {
		t.Errorf("EXPLAIN lacks a bare `PipelineExec: stages=N` line:\n%s", text)
	}
	for _, op := range []string{"HashAggregateExec: mode=Partial", "FilterExec"} {
		if !strings.Contains(text, op) {
			t.Errorf("EXPLAIN lost nested operator %s:\n%s", op, text)
		}
	}
	if !morselScan.MatchString(text) {
		t.Errorf("scan under the segment should be morsel-driven with a unit count:\n%s", text)
	}

	// Q6's filter is pushed into the GPQ scan, leaving a lone partial
	// aggregate over the scan: no segment of its own, same morsel-driven
	// scan. The final aggregate above the coalesce is a push stage too and
	// fuses with the projection over it.
	q, err := tpch.Query(6)
	if err != nil {
		t.Fatal(err)
	}
	text = explainText(t, s, q)
	fusedFinal := regexp.MustCompile(`PipelineExec: stages=2\n\s+ProjectionExec: .*\n\s+HashAggregateExec: mode=Final `)
	if strings.Count(text, "PipelineExec") != 1 || !fusedFinal.MatchString(text) {
		t.Errorf("Q6 should fuse its projection and final aggregate, and nothing else:\n%s", text)
	}
	lonePartial := regexp.MustCompile(`HashAggregateExec: mode=Partial .*\n\s+TableScanExec: lineitem .* scheduler=morsel units=\d+`)
	if !lonePartial.MatchString(text) {
		t.Errorf("Q6 should be a partial aggregate over a morsel-driven scan:\n%s", text)
	}

	// EXPLAIN ANALYZE over the morsel path: tree unchanged after
	// stripping metrics, every operator line carries core metrics.
	dfq, err := s.SQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, qm, err := dfq.CollectWithMetrics(); err != nil {
		t.Fatal(err)
	} else {
		analyzed := exec.ExplainAnalyze(qm.Plan)
		if !morselScan.MatchString(analyzed) {
			t.Errorf("ANALYZE lost the morsel annotation:\n%s", analyzed)
		}
		if stripped := metricsAnnotation.ReplaceAllString(analyzed, ""); stripped != exec.ExplainPhysical(qm.Plan) {
			t.Errorf("ANALYZE tree differs from physical plan:\n%s", analyzed)
		}
		for _, line := range strings.Split(strings.TrimRight(analyzed, "\n"), "\n") {
			if !strings.Contains(line, "metrics=[") || !strings.Contains(line, "output_rows=") {
				t.Errorf("ANALYZE line lacks metrics: %q", line)
			}
		}
	}
}

// TestExplainRendersNotLike checks that q13's `o_comment not like ...`
// renders as NOT LIKE in the physical plan, not as the plain LIKE it
// negates.
func TestExplainRendersNotLike(t *testing.T) {
	s := core.NewSession(core.SessionConfig{TargetPartitions: 2})
	if err := tpch.RegisterInMemory(s, 0.001); err != nil {
		t.Fatal(err)
	}
	q, err := tpch.Query(13)
	if err != nil {
		t.Fatal(err)
	}
	text := explainText(t, s, q)
	physical := text[strings.Index(text, "Physical Plan"):]
	if !strings.Contains(physical, `o_comment@0 NOT LIKE "%special%requests%"`) {
		t.Errorf("q13's physical plan lacks its NOT LIKE:\n%s", physical)
	}
}
