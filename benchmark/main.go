// Command benchmark is the repository's one benchmark: five seeded
// workloads that each load a different group of engine layers, measured
// end to end with tracing off and per layer on a separate traced run. See
// README.md for the metrics, the workloads and how to read them.
//
// With --workload it runs that workload in this process (the driver's
// contract: one JSON line last). Without it, it re-executes itself once per
// workload and trace mode, because the mmap registry is process-wide and
// workloads must not warm each other, and prints every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const defaultSeconds = 12 // BENCHMARK.json run_seconds

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process")
	seed := fs.Int64("seed", 1, "seed for the statement order of every pass and for each client's request sequence")
	seconds := fs.Float64("seconds", defaultSeconds, "how long a run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "tiny datasets, one pass: exercises every code path in seconds")
	stability := fs.Bool("check-stability", false, "run the full set twice and compare every end-to-end metric with its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *smoke, *stability, stdout, stderr)
	}

	rc := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, sz: fullSizes, outDir: "out"}
	if *smoke {
		rc.sz = smokeSizes
	}
	rep, err := runWorkload(*workload, rc)
	if rep != nil {
		printReport(stdout, rep, rc.trace)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process inside a scratch
// directory of its own, which it removes afterwards.
func runWorkload(name string, rc runConfig) (*report, error) {
	if rc.tmpDir == "" {
		base := filepath.Join(".build", "tmp")
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(base, name+"-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		rc.tmpDir = dir
	}
	for _, w := range inprocWorkloads {
		if w.name == name {
			return runInproc(w, rc)
		}
	}
	for _, w := range serverWorkloads {
		if w.name == name {
			return runServer(w, rc)
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// printReport prints every metric of the run by name and unit, then the
// machine-readable line: the end-to-end metrics of an untraced run, the
// per-layer metrics of a traced one.
func printReport(w io.Writer, rep *report, traced bool) {
	for _, f := range rep.failures {
		fmt.Fprintf(w, "failure %s %s\n", rep.workload, f)
	}
	for _, st := range rep.statements {
		fmt.Fprintf(w, "statement %s %s median_ms %g samples %d\n", rep.workload, st.name, st.medianMS, st.samples)
	}
	names := make([]string, 0, len(rep.counters))
	for name := range rep.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "counter %s %s %d\n", rep.workload, name, rep.counters[name])
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	emit := func(specs []metricSpec, inResult bool) {
		for _, spec := range specs {
			v, ok := rep.metrics[spec.Name]
			if !ok && !inResult {
				continue
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			fmt.Fprintf(w, "metric %s %s %g %s\n", rep.workload, spec.Name, v, spec.Unit)
			if inResult {
				res.Metrics[spec.Name] = metricValue{v, spec.Unit}
			}
		}
	}
	emit(endToEndSpecs, !traced)
	emit(perLayerSpecs, traced)
	fmt.Fprintf(w, "metric %s fail_ratio %g ratio\n", rep.workload, ratio(float64(rep.failed), float64(rep.attempted)))
	fmt.Fprintf(w, "metric %s ops_attempted %d count\n", rep.workload, rep.attempted)
	fmt.Fprintf(w, "metric %s ops_failed %d count\n", rep.workload, rep.failed)
	line, _ := json.Marshal(res) // a map of finite floats and strings cannot fail to marshal
	fmt.Fprintf(w, "%s\n", line)
}

// child re-executes this binary for one workload and returns the result
// parsed from the last line of its output, which is echoed.
func child(name string, seed int64, seconds float64, trace int, smoke bool, stdout, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace)}
	if smoke {
		args = append(args, "--smoke")
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(&out, stdout)
	cmd.Stderr = stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s: no result line (%v)", name, runErr)
	}
	return &res, nil
}

// runAll runs every workload, each in a child process of its own: an
// untraced run for the end-to-end metrics, then a traced run for the
// per-layer ones. With stability set it instead makes two untraced sets
// and compares them.
func runAll(seed int64, seconds float64, smoke, stability bool, stdout, stderr io.Writer) int {
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	traceModes := [2]int{0, 1}
	if stability {
		traceModes = [2]int{0, 0}
	}
	var columns [2]map[string]metricValue
	for col, trace := range traceModes {
		columns[col] = map[string]metricValue{}
		for _, w := range workloadSpecs {
			res, err := child(w.Name, seed, seconds, trace, smoke, stdout, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for name, v := range res.Metrics {
				columns[col][w.Name+"."+name] = v
				total.Metrics[w.Name+"."+name] = v
			}
		}
	}
	code := 0
	if !total.Correct {
		code = 1
	}
	if stability {
		fmt.Fprintf(stdout, "\n%-22s %-18s %12s %12s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
		for _, w := range workloadSpecs {
			for _, spec := range endToEndSpecs {
				a, b := columns[0][w.Name+"."+spec.Name].Value, columns[1][w.Name+"."+spec.Name].Value
				diff := math.Abs(a-b) / math.Min(a, b)
				verdict := "ok"
				if diff > spec.Bound {
					verdict = "EXCEEDS"
					code = 1
				}
				fmt.Fprintf(stdout, "%-22s %-18s %12.4f %12.4f %7.1f%% %5.0f%% %s\n",
					w.Name, spec.Name, a, b, diff*100, spec.Bound*100, verdict)
			}
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", line)
	return code
}
