package fuzzsql

import (
	"fmt"
	"os"
	"time"
)

// Options parameterizes a fuzzing run.
type Options struct {
	// Seed drives both the dataset and the query stream.
	Seed int64
	// N is the number of queries to generate (0 with Duration set means
	// unbounded).
	N int
	// Duration, when positive, stops the run at the deadline even if N
	// queries have not been generated.
	Duration time.Duration
	// Configs and Formats default to the full matrix.
	Configs []EngineConfig
	Formats []Format
	// Dir is the scratch directory for CSV/GPQ files; empty creates (and
	// removes) a temp dir.
	Dir string
	// MaxFailures stops the run after this many distinct failures
	// (default 3). Each failure is shrunk before being reported.
	MaxFailures int
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// ShrunkFailure is a failure with its minimized repro.
type ShrunkFailure struct {
	Failure
	MinimalSQL string
	NumClauses int
	Repro      string
}

// Report summarizes a run.
type Report struct {
	Seed     int64
	Queries  int
	Elapsed  time.Duration
	Failures []ShrunkFailure
	// SpillCounts totals each config's operator spill events across every
	// successful query (copied from the harness at the end of the run).
	SpillCounts map[string]int64
	// WindowBudgetFailures and JoinBudgetFailures total each
	// memory-limited config's window and join queries that failed
	// with the operator's typed exhaustion error.
	WindowBudgetFailures map[string]int64
	JoinBudgetFailures   map[string]int64
}

// Run generates queries and checks each across the matrix, shrinking any
// failure. It returns an error only on harness setup problems; query
// disagreements are reported in Report.Failures.
func Run(opts Options) (*Report, error) {
	if len(opts.Configs) == 0 {
		opts.Configs = DefaultConfigs()
	}
	if len(opts.Formats) == 0 {
		opts.Formats = AllFormats
	}
	if opts.MaxFailures <= 0 {
		opts.MaxFailures = 3
	}
	if opts.N <= 0 && opts.Duration <= 0 {
		opts.N = 300
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "fuzzsql")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}

	ds := NewDataset(opts.Seed)
	h, err := NewHarness(ds, dir, opts.Configs, opts.Formats)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	gen := NewGen(opts.Seed, ds)

	start := time.Now()
	var deadline time.Time
	if opts.Duration > 0 {
		deadline = start.Add(opts.Duration)
	}
	rep := &Report{Seed: opts.Seed}
	for {
		if opts.N > 0 && rep.Queries >= opts.N {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		q := gen.Query()
		rep.Queries++
		fail := h.CheckQuery(q)
		if fail == nil {
			if rep.Queries%100 == 0 {
				logf("fuzzsql: %d queries, %d failures, %s elapsed",
					rep.Queries, len(rep.Failures), time.Since(start).Round(time.Millisecond))
			}
			continue
		}
		logf("fuzzsql: query %d FAILED (%s/%s); shrinking...", rep.Queries, fail.Format, fail.Config)
		min := Shrink(q, func(c *Query) bool { return h.CheckQuery(c) != nil })
		minFail := h.CheckQuery(min)
		if minFail == nil { // flaky failure: report the original unshrunk
			minFail = fail
			min = q
		}
		rep.Failures = append(rep.Failures, ShrunkFailure{
			Failure:    *minFail,
			MinimalSQL: min.SQL(),
			NumClauses: min.NumClauses(),
			Repro:      ReproSource(opts.Seed, minFail),
		})
		if len(rep.Failures) >= opts.MaxFailures {
			logf("fuzzsql: stopping after %d failures", len(rep.Failures))
			break
		}
	}
	rep.Elapsed = time.Since(start)
	rep.SpillCounts = h.SpillCounts
	rep.WindowBudgetFailures = h.WindowBudgetFailures
	rep.JoinBudgetFailures = h.JoinBudgetFailures
	return rep, nil
}

// Summary renders a human-readable report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("fuzzsql: seed=%d queries=%d failures=%d elapsed=%s\n",
		r.Seed, r.Queries, len(r.Failures), r.Elapsed.Round(time.Millisecond))
	for i, f := range r.Failures {
		s += fmt.Sprintf("\n--- failure %d (%s/%s, %d clauses) ---\n%s\nminimal: %s\n\nrepro:\n%s\n",
			i+1, f.Format, f.Config, f.NumClauses, f.Detail, f.MinimalSQL, f.Repro)
	}
	return s
}
