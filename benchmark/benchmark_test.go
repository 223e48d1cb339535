package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, seed int64) runConfig {
	dir := t.TempDir()
	return runConfig{seed: seed, trace: true, sz: smokeSizes, tmpDir: dir, outDir: filepath.Join(dir, "out")}
}

// TestSmoke runs every workload at tiny size, traced pass included, and
// checks the result and the trace file each leaves behind.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloadSpecs {
		rc := smokeConfig(t, 1)
		rep, err := runWorkload(w.Name, rc)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, rep.failed, rep.attempted, rep.failures)
		}
		for _, spec := range endToEndSpecs {
			if rep.metrics[spec.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, spec.Name, rep.metrics[spec.Name])
			}
		}
		for _, name := range []string{"sql.parse_ms", "planner.plan_ms", "optimizer.optimize_ms", "exec.lower_ms",
			"exec.run_ms", "exec.op_busy_ms.scan", "memory.peak_rss_mb", "trace_overhead_ratio"} {
			if rep.metrics[name] <= 0 {
				t.Errorf("%s: per-layer metric %s = %v, want > 0", w.Name, name, rep.metrics[name])
			}
		}
		if got := rep.metrics["trace.attributed_ratio"]; got < 0.9 {
			t.Errorf("%s: spans under a query root cover %.2f of it, want >= 0.90", w.Name, got)
		}

		data, err := os.ReadFile(filepath.Join(rc.outDir, w.Name+".trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatalf("%s trace: %v", w.Name, err)
		}
		if tf.Workload != w.Name || len(tf.Spans) == 0 {
			t.Fatalf("%s trace: workload %q, %d spans", w.Name, tf.Workload, len(tf.Spans))
		}
		// Every span has a live parent, nests inside it, and has self time >= 0.
		sum, err := summarize(tf.Spans)
		if err != nil {
			t.Fatalf("%s trace: %v", w.Name, err)
		}
		for _, name := range []string{"query", "sql.parse", "planner.plan", "optimizer.optimize", "exec.lower", "exec.run"} {
			if sum.count[name] == 0 || sum.count[name] != sum.count["query"] {
				t.Errorf("%s trace: %d %s spans for %d query roots", w.Name, sum.count[name], name, sum.count["query"])
			}
		}
	}
	// About 4 s here; the budget is 20 s (not asserted: -race takes 25 s).
	t.Logf("smoke took %v", time.Since(start))
}

// TestSeedDeterminism: the seed fixes the operation sequence and every
// counter that does not depend on timing; another seed gives another
// sequence.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"tpch_power_warm", "server_ingest_mixed"} {
		run := func(seed int64) *report {
			rc := smokeConfig(t, seed)
			rc.partitions = 1 // row groups scanned repeat exactly only without a morsel race
			rep, err := runWorkload(name, rc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			return rep
		}
		a, b, c := run(5), run(5), run(6)
		if a.seqHash != b.seqHash {
			t.Errorf("%s: same seed, sequence hashes %x and %x", name, a.seqHash, b.seqHash)
		}
		if !reflect.DeepEqual(a.counters, b.counters) {
			t.Errorf("%s: same seed, counters %v and %v", name, a.counters, b.counters)
		}
		if a.metrics["parquet.stored_bytes_per_raw_byte"] != b.metrics["parquet.stored_bytes_per_raw_byte"] {
			t.Errorf("%s: same seed, stored bytes per raw byte differ", name)
		}
		if a.seqHash == c.seqHash {
			t.Errorf("%s: seeds 5 and 6 give the same sequence hash %x", name, a.seqHash)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go in step.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default --seconds %d", file.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(file.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n%v\n%v", file.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n%v\n%v", file.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n%v\n%v", file.PerLayer, perLayerSpecs)
	}
}

func TestSelfTimesRejectsBrokenTraces(t *testing.T) {
	ok := []span{
		{ID: 1, Op: 1, Name: "query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "sql.parse", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "exec.run", Start: 40, End: 90},
	}
	self, err := selfTimes(ok)
	if err != nil || self[0] != 20 || self[1] != 30 || self[2] != 50 {
		t.Fatalf("self times %v, err %v", self, err)
	}
	orphan := append([]span(nil), ok...)
	orphan[2].Parent = 9
	escapes := append([]span(nil), ok...)
	escapes[2].End = 120
	overlap := append([]span(nil), ok...)
	overlap[1].End, overlap[2].Start = 95, 5
	for name, spans := range map[string][]span{"orphan": orphan, "escapes": escapes, "overlap": overlap} {
		if _, err := selfTimes(spans); err == nil {
			t.Errorf("%s trace accepted", name)
		}
	}
}

func TestChecksumToleratesOrderAndFloatNoise(t *testing.T) {
	a := checksum{rows: 2, hash: 7, floatSum: []float64{100.0}, floatAbs: []float64{100.0}}
	b := checksum{rows: 2, hash: 7, floatSum: []float64{100.0 + 1e-9}, floatAbs: []float64{100.0}}
	c := checksum{rows: 2, hash: 7, floatSum: []float64{100.5}, floatAbs: []float64{100.5}}
	if !a.equal(b) {
		t.Error("summation-order noise rejected")
	}
	if a.equal(c) {
		t.Error("a different float column accepted")
	}
}
