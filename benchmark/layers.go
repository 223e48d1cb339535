package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gofusion/internal/core"
	"gofusion/internal/exec"
	"gofusion/internal/physical"
)

// opClasses are the operator groups exec.op_busy_ms is reported for.
var opClasses = []string{"scan", "filter", "agg", "join", "sort", "window", "exchange", "other"}

func opClass(n physical.ExecutionPlan) string {
	switch n.(type) {
	case *exec.TableScanExec:
		return "scan"
	case *exec.FilterExec:
		return "filter"
	case *exec.HashAggregateExec, *exec.WatermarkAggExec:
		return "agg"
	case *exec.HashJoinExec, *exec.SortMergeJoinExec, *exec.NestedLoopJoinExec, *exec.SymmetricHashJoinExec:
		return "join"
	case *exec.ExternalSortExec, *exec.SortPreservingMergeExec, *exec.TopKExec:
		return "sort"
	case *exec.WindowExec:
		return "window"
	case *exec.RepartitionExec, *exec.CoalescePartitionsExec:
		return "exchange"
	}
	return "other"
}

// planStats sums what the executed physical plans of a traced pass
// recorded in their operators' MetricsSets.
type planStats struct {
	session      *core.SessionContext // for the row counts of scanned tables
	busy         map[string]time.Duration
	scanRowsOut  int64 // rows the scans handed to the rest of the plan
	scanRowsIn   int64 // rows of the tables those scans read
	rgPruned     int64
	rgScanned    int64
	pagesPruned  int64
	spills       int64
	poolPeak     int64 // largest per-statement sum of operator reservation peaks
	rowsReturned int64
}

func newPlanStats(s *core.SessionContext) *planStats {
	return &planStats{session: s, busy: map[string]time.Duration{}}
}

// tableRows is the registered table's exact row count (GPQ footers and
// in-memory tables both know theirs).
func (ps *planStats) tableRows(name string) int64 {
	if sp, ok := ps.session.Catalog().SchemaByName("public"); ok {
		if t, ok := sp.Table(name); ok && t.Statistics().NumRows > 0 {
			return t.Statistics().NumRows
		}
	}
	return 0
}

func snapshot(n physical.ExecutionPlan) physical.MetricsSnapshot {
	if mp, ok := n.(physical.MetricsProvider); ok {
		return mp.Metrics().Snapshot()
	}
	return physical.MetricsSnapshot{}
}

// addPlan folds one executed plan into the totals.
func (ps *planStats) addPlan(plan physical.ExecutionPlan) {
	var memSum int64
	ps.walk(plan, &memSum)
	if memSum > ps.poolPeak {
		ps.poolPeak = memSum
	}
}

// merge adds another collector's totals (one per server client).
func (ps *planStats) merge(o *planStats) {
	for class, d := range o.busy {
		ps.busy[class] += d
	}
	ps.scanRowsOut += o.scanRowsOut
	ps.scanRowsIn += o.scanRowsIn
	ps.rgPruned += o.rgPruned
	ps.rgScanned += o.rgScanned
	ps.pagesPruned += o.pagesPruned
	ps.spills += o.spills
	ps.rowsReturned += o.rowsReturned
	if o.poolPeak > ps.poolPeak {
		ps.poolPeak = o.poolPeak
	}
}

// walk attributes busy time to operator classes and returns the node's
// inclusive time. Pull-mode operators record the wall clock of their
// Next calls, children included, so their own share is what the children
// do not cover. Operators fused into a PipelineExec record only their own
// push time. An exchange's producers run on other goroutines, so its
// children are not nested in it and its share is clamped at zero: it
// holds the consumer's wait, not work.
func (ps *planStats) walk(n physical.ExecutionPlan, memSum *int64) time.Duration {
	snap := snapshot(n)
	ps.spills += snap.SpillCount
	*memSum += snap.MemReservedPeak
	if scan, ok := n.(*exec.TableScanExec); ok {
		ps.scanRowsOut += snap.OutputRows
		ps.scanRowsIn += ps.tableRows(scan.Name)
		ps.rgPruned += snap.ExtraValue("row_groups_pruned")
		ps.rgScanned += snap.ExtraValue("row_groups_scanned")
		ps.pagesPruned += snap.ExtraValue("pages_pruned")
	}
	var covered time.Duration
	if pipe, ok := n.(*exec.PipelineExec); ok {
		for _, st := range pipe.Stages {
			s := snapshot(st)
			ps.spills += s.SpillCount
			*memSum += s.MemReservedPeak
			ps.busy[opClass(st)] += s.Elapsed
			covered += s.Elapsed
		}
		covered += ps.walk(pipe.Source, memSum)
	} else {
		for _, c := range n.Children() {
			covered += ps.walk(c, memSum)
		}
	}
	if own := snap.Elapsed - covered; own > 0 {
		ps.busy[opClass(n)] += own
	}
	return snap.Elapsed
}

// sharedLayerMetrics writes the trace file and fills in the per-layer
// metrics that in-process and server workloads derive the same way. units
// is what operator totals are divided by: traced passes in process, traced
// requests on the server. gcPause, allocBytes and okOps are the untraced
// phase's.
func sharedLayerMetrics(rep *report, rc runConfig, rec *recorder, ps *planStats, units float64,
	gcPause time.Duration, allocBytes uint64, okOps int64) error {
	if err := rec.write(rc.outDir, rep.workload, rc.seed); err != nil {
		return err
	}
	sum, err := summarize(rec.spans)
	if err != nil {
		return fmt.Errorf("trace of %s: %w", rep.workload, err)
	}
	m := rep.metrics
	for _, name := range []string{"sql.parse", "planner.plan", "optimizer.optimize", "exec.lower", "exec.run"} {
		m[name+"_ms"] = ratio(float64(sum.selfNS[name])/1e6, float64(sum.count["query"]))
	}
	m["trace.attributed_ratio"] = 1 - ratio(float64(sum.selfNS["query"]), float64(sum.durNS["query"]))
	for _, class := range opClasses {
		m["exec.op_busy_ms."+class] = ratio(ms(ps.busy[class]), units)
	}
	m["exec.rows_examined_per_row_returned"] = ratio(float64(ps.scanRowsOut), float64(ps.rowsReturned))
	m["catalog.scan_rows_kept_ratio"] = ratio(float64(ps.scanRowsOut), float64(ps.scanRowsIn))
	m["catalog.row_groups_pruned_ratio"] = ratio(float64(ps.rgPruned), float64(ps.rgPruned+ps.rgScanned))
	m["catalog.pages_pruned"] = ratio(float64(ps.pagesPruned), units)
	m["memory.pool_peak_mb"] = float64(ps.poolPeak) / 1e6
	m["memory.spill_count"] = float64(ps.spills)
	m["memory.peak_rss_mb"] = peakRSSMB()
	m["memory.gc_pause_ms"] = ms(gcPause)
	m["memory.alloc_mb_per_op"] = ratio(float64(allocBytes)/1e6, float64(okOps))
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// memDelta brackets a timed phase with runtime.MemStats.
type memDelta struct{ before runtime.MemStats }

func startMemDelta() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// stop returns GC pause time and bytes allocated since start.
func (m *memDelta) stop() (gcPause time.Duration, allocBytes uint64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return time.Duration(after.PauseTotalNs - m.before.PauseTotalNs), after.TotalAlloc - m.before.TotalAlloc
}
