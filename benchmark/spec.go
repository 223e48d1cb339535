package main

// metricSpec names one reported metric. BENCHMARK.json repeats the
// end-to-end and per-layer tables below; TestSpecMatchesBenchmarkJSON
// keeps the two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: allowed worsening as a share of the parent's median
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadSpecs lists the five workloads. Each is built so that one group
// of layers does most of the work and another does almost none, which is
// what lets a later change be shown to help where it should and to leave
// the other workloads flat.
var workloadSpecs = []workloadSpec{
	{"tpch_power_warm", "22 TPC-H queries over GPQ with a page cache that holds the working set: joins, aggregation, sort and plan quality do the work, parquet decode is bypassed"},
	{"clickbench_scan_cold", "21 ClickBench scans over hits in 8 GPQ files with a page cache far below the decoded working set: parquet decode, pruning and filter-during-scan do the work, the optimizer almost none"},
	{"h2o_groupby_mem", "10 H2O group-by statements over a CSV-loaded in-memory table: group table, accumulators, window and sort do the work, parquet, pruning and the page cache do nothing"},
	{"server_read_closed", "2 closed-loop HTTP clients replaying a pool of sub-ms to ~8 ms statements with the plan cache on: sql, planner, optimizer, plan cache and server JSON/admission are most of a request, exec little"},
	{"server_ingest_mixed", "the same server and pool with 10% INSERTs and 10% aggregates over the written table: every write bumps the catalog version, takes the writer mutex and empties the plan cache, beside reads"},
}

// The bounds are three times the spread measured on the 2-core build box
// (README, "Stability"), where whole runs drift by up to 9% within minutes;
// the issue's 8-10% could not be resolved there.
var endToEndSpecs = []metricSpec{
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "query_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "query_max_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayerSpecs are reported from the traced run and never gated. A
// metric that does not apply to a workload (csvio on TPC-H, server on the
// in-process workloads) reads 0 there.
var perLayerSpecs = []metricSpec{
	{Name: "sql.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "planner.plan_ms", Unit: "ms", Better: "lower"},
	{Name: "optimizer.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.run_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.scan", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.filter", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.agg", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.join", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.sort", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.window", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.exchange", Unit: "ms", Better: "lower"},
	{Name: "exec.op_busy_ms.other", Unit: "ms", Better: "lower"},
	{Name: "exec.rows_examined_per_row_returned", Unit: "ratio", Better: "lower"},
	{Name: "parquet.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "parquet.stored_bytes_per_raw_byte", Unit: "ratio", Better: "lower"},
	{Name: "parquet.page_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "parquet.page_cache_evictions", Unit: "count", Better: "lower"},
	{Name: "catalog.row_groups_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "catalog.pages_pruned", Unit: "count", Better: "higher"},
	{Name: "catalog.scan_rows_kept_ratio", Unit: "ratio", Better: "lower"},
	{Name: "csvio.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wire_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed_count", Unit: "count", Better: "lower"},
	{Name: "server.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "memory.pool_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "memory.spill_count", Unit: "count", Better: "lower"},
	{Name: "memory.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "memory.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "memory.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "trace.attributed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "higher"},
}

// sizes fixes every dataset and load-shape constant of a run.
type sizes struct {
	tpchSF        float64
	tpchGroupRows int
	hitsRows      int
	hitsFiles     int
	hitsCache     int64 // SharedCacheBytes for clickbench_scan_cold
	h2oRows       int
	fuzzQueries   int
	clients       int
	insertRows    int
	setupRepeats  int
	// smoke runs count passes and requests instead of watching the clock.
	passes   int
	requests int
}

// fullSizes are the measured sizes. They are half of what the issue
// proposed for TPC-H, hits and H2O because the driver's budget is about
// 28 s per run including set-up (see README, "Sizes").
var fullSizes = sizes{
	tpchSF: 0.05, tpchGroupRows: 65536,
	hitsRows: 500_000, hitsFiles: 8, hitsCache: 8 << 20,
	h2oRows:     500_000,
	fuzzQueries: 20, clients: 2, insertRows: 32,
	setupRepeats: 3,
}

var smokeSizes = sizes{
	tpchSF: 0.01, tpchGroupRows: 4096,
	hitsRows: 20_000, hitsFiles: 8, hitsCache: 256 << 10,
	h2oRows:     20_000,
	fuzzQueries: 20, clients: 2, insertRows: 32,
	setupRepeats: 1,
	passes:       1, requests: 100,
}
