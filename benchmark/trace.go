package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// (one statement execution or one HTTP request with its in-process
// replays) share Op; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Stmt   string `json:"stmt"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The two server
// clients record concurrently, hence the mutex; it is only taken on the
// traced pass.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int, stmt string) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Stmt: stmt, Start: now})
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// selfTimes returns each span's duration minus the part its children
// cover, indexed like spans. It fails on a span whose parent is missing,
// that leaves its parent's interval, or whose children outlast it: the
// trace-file schema check.
func selfTimes(spans []span) ([]int64, error) {
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.ID != i+1 {
			return nil, fmt.Errorf("span %d has id %d", i+1, s.ID)
		}
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > len(spans) {
			return nil, fmt.Errorf("span %d (%s) has no live parent %d", s.ID, s.Name, s.Parent)
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			return nil, fmt.Errorf("span %d (%s) leaves its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		if s.Op != p.Op {
			return nil, fmt.Errorf("span %d (%s) and its parent belong to different operations", s.ID, s.Name)
		}
		self[s.Parent-1] -= s.dur()
	}
	for i, v := range self {
		if v < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time %d ns", i+1, spans[i].Name, v)
		}
	}
	return self, nil
}

// spanSummary aggregates a trace by span name.
type spanSummary struct {
	selfNS map[string]int64 // total self time per span name
	durNS  map[string]int64 // total duration per span name
	count  map[string]int64
}

func summarize(spans []span) (*spanSummary, error) {
	self, err := selfTimes(spans)
	if err != nil {
		return nil, err
	}
	sum := &spanSummary{selfNS: map[string]int64{}, durNS: map[string]int64{}, count: map[string]int64{}}
	for i, s := range spans {
		sum.selfNS[s.Name] += self[i]
		sum.durNS[s.Name] += s.dur()
		sum.count[s.Name]++
	}
	return sum, nil
}
