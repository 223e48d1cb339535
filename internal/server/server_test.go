package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gofusion/internal/fuzzsql"
)

// newTestServer stands up a server over the seeded fuzzsql tables
// (t1: ~240 rows, t2: ~110 rows) and returns it with its HTTP fixture.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ds := fuzzsql.NewDataset(1)
	for _, tbl := range ds.Tables {
		if err := srv.Session().RegisterBatches(tbl.Name, tbl.Schema, tbl.Batches); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerQueryBasic(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, out := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) AS n FROM t1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if got := out["row_count"].(float64); got != 1 {
		t.Fatalf("row_count = %v, want 1", got)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	cols := out["columns"].([]any)
	if len(cols) != 1 || cols[0] != "n" {
		t.Fatalf("columns = %v, want [n]", cols)
	}
}

func TestServerQueryErrors(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, out := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT FROM nothing WHERE"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SQL status = %d, want 400", resp.StatusCode)
	}
	if out["error"] == nil {
		t.Fatal("error body missing")
	}
	// Exactly one of sql/prepared is required.
	resp, _ = postJSON(t, hs.URL+"/query", map[string]any{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty request status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT 1", "prepared": "p1"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ambiguous request status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, hs.URL+"/query", map[string]any{"prepared": "p99"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown handle status = %d, want 400", resp.StatusCode)
	}
}

func TestServerPreparedFlow(t *testing.T) {
	cfg := Config{}
	cfg.Session.EnablePlanCache = true
	srv, hs := newTestServer(t, cfg)

	resp, out := postJSON(t, hs.URL+"/prepare",
		map[string]any{"sql": "SELECT a, b FROM t1 WHERE a > 3 ORDER BY a, b LIMIT 5", "session": "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prepare status = %d, body %v", resp.StatusCode, out)
	}
	handle := out["handle"].(string)
	if handle == "" {
		t.Fatal("no handle returned")
	}

	var first []any
	for i := 0; i < 3; i++ {
		resp, out := postJSON(t, hs.URL+"/query", map[string]any{"prepared": handle, "session": "alice"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("execute %d status = %d, body %v", i, resp.StatusCode, out)
		}
		rows := out["rows"].([]any)
		if i == 0 {
			first = rows
		} else if fmt.Sprint(rows) != fmt.Sprint(first) {
			t.Fatalf("execution %d diverged: %v vs %v", i, rows, first)
		}
	}
	// Handles are session-scoped: another session cannot execute them.
	resp, _ = postJSON(t, hs.URL+"/query", map[string]any{"prepared": handle, "session": "bob"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-session handle status = %d, want 400", resp.StatusCode)
	}
	// The plan cache served the repeats.
	if pcs, ok := srv.Session().PlanCacheStats(); !ok || pcs.Hits < 2 {
		t.Fatalf("plan cache stats = %+v ok=%v, want >= 2 hits", pcs, ok)
	}
}

func TestServerShedsWhenOverloaded(t *testing.T) {
	srv, hs := newTestServer(t, Config{Slots: 1, MaxQueue: -1}) // no queue
	// Occupy the only execution slot directly; any request must then shed
	// immediately with the documented 429.
	release, err := srv.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	resp, out := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) FROM t1"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d (%v), want 429", resp.StatusCode, out)
	}
	release()
	// With the slot free again the same request succeeds.
	resp, _ = postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) FROM t1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release status = %d, want 200", resp.StatusCode)
	}
}

func TestServerQueueTimeoutSheds(t *testing.T) {
	srv, hs := newTestServer(t, Config{Slots: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	release, err := srv.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp, _ := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) FROM t1"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 after queue timeout", resp.StatusCode)
	}
	if st := srv.Limiter().Stats(); st.ShedTimeout != 1 {
		t.Fatalf("limiter stats = %+v, want 1 queue-timeout shed", st)
	}
}

// TestServerPlanHitIsPerRequest: a reply's plan_cache_hit is its own
// request's plan-cache outcome. One client replays a cached statement
// while another sends a statement never seen before each time; every
// reply to the first reports a hit and every reply to the second a miss.
func TestServerPlanHitIsPerRequest(t *testing.T) {
	cfg := Config{}
	cfg.Session.EnablePlanCache = true
	_, hs := newTestServer(t, cfg)
	const cached = "SELECT count(*) FROM t1"
	postJSON(t, hs.URL+"/query", map[string]any{"sql": cached})

	query := func(sql string) (bool, error) {
		payload, _ := json.Marshal(map[string]any{"sql": sql})
		resp, err := http.Post(hs.URL+"/query", "application/json", bytes.NewReader(payload))
		if err != nil {
			return false, err
		}
		defer resp.Body.Close()
		var out struct {
			PlanHit bool `json:"plan_cache_hit"`
		}
		if resp.StatusCode != http.StatusOK {
			return false, fmt.Errorf("status %d for %s", resp.StatusCode, sql)
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		return out.PlanHit, err
	}
	const rounds = 50
	errs := make(chan error, 2*rounds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if hit, err := query(cached); err != nil || !hit {
				errs <- fmt.Errorf("replay %d: hit=%t err=%v, want a hit", i, hit, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if hit, err := query(fmt.Sprintf("SELECT count(*) FROM t1 WHERE a > %d", i)); err != nil || hit {
				errs <- fmt.Errorf("new statement %d: hit=%t err=%v, want a miss", i, hit, err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerWritesVisibleToReads(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, out := postJSON(t, hs.URL+"/query",
		map[string]any{"sql": "CREATE TABLE snap AS SELECT a, b FROM t1 WHERE a > 0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create status = %d, body %v", resp.StatusCode, out)
	}
	_, before := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) FROM snap"})
	n0 := before["rows"].([]any)[0].([]any)[0].(float64)
	resp, out = postJSON(t, hs.URL+"/query",
		map[string]any{"sql": "INSERT INTO snap SELECT a, b FROM t1 WHERE a > 0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d, body %v", resp.StatusCode, out)
	}
	_, after := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) FROM snap"})
	n1 := after["rows"].([]any)[0].([]any)[0].(float64)
	if n1 != 2*n0 || n0 == 0 {
		t.Fatalf("row counts before/after insert = %v/%v, want doubled non-zero", n0, n1)
	}
}

func TestServerStatsEndpoint(t *testing.T) {
	cfg := Config{MemoryBudget: 64 << 20}
	cfg.Session.EnablePlanCache = true
	_, hs := newTestServer(t, cfg)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, hs.URL+"/query",
			map[string]any{"sql": "SELECT s, count(*) FROM t1 GROUP BY s", "session": "alice"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d failed", i)
		}
	}
	resp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 3 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 3 queries 0 errors", st)
	}
	if st.Admission.Admitted != 3 || st.Admission.Slots == 0 {
		t.Fatalf("admission stats = %+v, want 3 admitted", st.Admission)
	}
	if st.PlanCache == nil || st.PlanCache.Hits != 2 {
		t.Fatalf("plan cache stats = %+v, want 2 hits for 3 identical queries", st.PlanCache)
	}
	if st.Memory == nil || st.Memory.BudgetBytes != 64<<20 {
		t.Fatalf("memory stats = %+v, want 64MiB budget", st.Memory)
	}
	sess, ok := st.Sessions["alice"]
	if !ok || sess.Queries != 3 {
		t.Fatalf("session stats = %+v, want alice with 3 queries", st.Sessions)
	}
}

func TestServerPerRequestTimeoutOverride(t *testing.T) {
	// timeout_ms must bound the whole request including admission: with
	// the one slot held, the queued request's deadline fires and the
	// request sheds as a cancellation rather than waiting for the queue
	// timeout (10s default).
	srv, hs := newTestServer(t, Config{Slots: 1, MaxQueue: 4})
	release, err := srv.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	start := time.Now()
	resp, _ := postJSON(t, hs.URL+"/query",
		map[string]any{"sql": "SELECT count(*) FROM t1", "timeout_ms": 30})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request took %v, deadline did not fire", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 for an expired per-request deadline", resp.StatusCode)
	}
}

func TestServerHealthz(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// TestServerOrderByLimitZero: a top-k of nothing over partitioned input
// answers with zero rows, and the process is still serving afterwards (a
// panic in the merge's priming goroutines would take it down).
func TestServerOrderByLimitZero(t *testing.T) {
	cfg := Config{}
	cfg.Session.TargetPartitions = 2
	_, hs := newTestServer(t, cfg)
	resp, out := postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT a FROM t1 ORDER BY a LIMIT 0"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if got := out["row_count"].(float64); got != 0 {
		t.Fatalf("row_count = %v, want 0", got)
	}
	health, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("healthz after LIMIT 0 = %d", health.StatusCode)
	}
}

func TestServerMemoryBudgetArbitration(t *testing.T) {
	// A query whose tracked demand exceeds the shared budget in an
	// operator that cannot spill (a join build) must fail as retryable
	// 503, and the parent pool must drain back to zero afterwards.
	cfg := Config{MemoryBudget: 256}
	cfg.Session.TargetPartitions = 1
	srv, hs := newTestServer(t, cfg)
	resp, out := postJSON(t, hs.URL+"/query",
		map[string]any{"sql": "SELECT count(*) AS n FROM t1 JOIN t2 ON t1.a = t2.x"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%v), want 503 on budget exhaustion", resp.StatusCode, out)
	}
	if !strings.Contains(fmt.Sprint(out["error"]), "memory") {
		t.Fatalf("error %v does not name the memory budget", out["error"])
	}
	if got := srv.ParentPool().Reserved(); got != 0 {
		t.Fatalf("parent pool reserved after failed query = %d, want 0", got)
	}
	// A small query still fits the budget: the server degrades per-query,
	// not globally.
	resp, out = postJSON(t, hs.URL+"/query", map[string]any{"sql": "SELECT count(*) FROM t1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small query status = %d (%v), want 200 under same budget", resp.StatusCode, out)
	}
}
