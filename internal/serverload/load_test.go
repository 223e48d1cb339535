package serverload

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/server"
	"gofusion/internal/testutil"
)

// newLoadServer stands up a server over the full mixed workload
// (TPC-H sf=0.01, ClickBench 2000 rows, fuzzsql tables).
func newLoadServer(t testing.TB, w *Workload, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(cfg)
	if err := w.Register(srv.Session()); err != nil {
		srv.Close()
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	return srv, hs
}

// TestLoadDifferential is the tentpole harness: >= 8 concurrent clients
// of mixed TPC-H / ClickBench / fuzzsql traffic (including prepared
// replays) against a fully-caching server, with every response
// cross-checked against the serial no-cache baseline. Zero divergences
// and zero unexpected failures are the acceptance bar.
func TestLoadDifferential(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()

	const seed = 42
	fuzzCount, perClient := 20, 25
	if testing.Short() {
		fuzzCount, perClient = 8, 8
	}
	w, err := NewWorkload(seed, fuzzCount)
	if err != nil {
		t.Fatal(err)
	}

	cfg := server.Config{Slots: 4, MaxQueue: 1024} // ample queue: nothing sheds
	cfg.Session.EnablePlanCache = true
	cfg.Session.EnableResultCache = true
	srv, hs := newLoadServer(t, w, cfg)
	defer srv.Close()
	defer hs.Close()
	hc := hs.Client()
	defer hc.CloseIdleConnections()

	oracle, err := NewOracle(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	res := Run(hs.URL, hc, w, Options{
		Clients:           8,
		RequestsPerClient: perClient,
		Seed:              seed,
		PreparedEvery:     5,
		Oracle:            oracle,
	})

	for _, d := range res.Divergences {
		t.Errorf("divergence: %s", d)
	}
	for _, f := range res.Failures {
		t.Errorf("failure: %s", f)
	}
	if res.Shed != 0 {
		t.Errorf("shed %d requests with an ample queue, want 0", res.Shed)
	}
	if got := res.Succeeded + res.QueryErrors + res.Shed + int64(len(res.Failures)); got != res.Requests {
		t.Errorf("accounting: %d outcomes for %d requests", got, res.Requests)
	}
	if res.Succeeded == 0 {
		t.Fatal("no request succeeded")
	}
	// Prepared replays (every 5th request per client) ride the plan cache.
	if res.PlanHits == 0 {
		t.Error("no plan-cache hits despite prepared traffic")
	}
	if got := srv.ParentPool(); got != nil && got.Reserved() != 0 {
		t.Errorf("parent pool reserved after run = %d, want 0", got.Reserved())
	}
	t.Logf("load: %d ok, %d query errors, %d plan hits, %d result hits, %.0f qps, p99 %v",
		res.Succeeded, res.QueryErrors, res.PlanHits, res.ResultHits,
		res.Throughput(), res.LatencyPercentile(0.99))
}

// TestLoadOverloadSheds is the overload half of the smoke contract: a
// one-slot server with a one-deep queue and a short queue timeout must
// shed under 8-client pressure, every shed must be a clean 429/503 (never
// a transport failure), and the /stats admission counters must account
// for exactly the sheds the clients observed.
func TestLoadOverloadSheds(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()

	w, err := NewWorkload(7, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Slots: 1, MaxQueue: 1, QueueTimeout: 2 * time.Millisecond}
	srv, hs := newLoadServer(t, w, cfg)
	defer srv.Close()
	defer hs.Close()
	hc := hs.Client()
	defer hc.CloseIdleConnections()

	// Phase 1 — saturated: the only execution slot is held for the whole
	// run, so every request must shed (queue full or queue timeout), never
	// hang and never fail at the transport level.
	release, err := srv.Limiter().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	hot := Run(hs.URL, hc, w, Options{Clients: 8, RequestsPerClient: 10, Seed: 7})
	release()
	if hot.Shed != hot.Requests {
		t.Fatalf("saturated server shed %d of %d requests, want all", hot.Shed, hot.Requests)
	}
	for _, f := range hot.Failures {
		t.Errorf("non-shed failure under saturation: %s", f)
	}

	// Phase 2 — recovered: with the slot free the same traffic flows
	// again (residual sheds from 8 clients racing 1 slot are expected).
	cool := Run(hs.URL, hc, w, Options{Clients: 8, RequestsPerClient: 10, Seed: 8})
	if cool.Succeeded == 0 {
		t.Fatal("server did not recover after saturation; it should degrade, not collapse")
	}
	for _, f := range cool.Failures {
		t.Errorf("non-shed failure after recovery: %s", f)
	}

	// The server's own accounting must corroborate the clients'.
	c := NewClient(hs.URL, hc, "")
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Admission.ShedFull + st.Admission.ShedTimeout; got != hot.Shed+cool.Shed {
		t.Errorf("limiter sheds %d != client-observed sheds %d (stats %+v)",
			got, hot.Shed+cool.Shed, st.Admission)
	}
	if st.Admission.PeakInFlight > int64(cfg.Slots) {
		t.Errorf("peak in-flight %d exceeded %d slot(s)", st.Admission.PeakInFlight, cfg.Slots)
	}
	t.Logf("overload: saturated %d/%d shed; recovered %d ok, %d shed (full=%d timeout=%d)",
		hot.Shed, hot.Requests, cool.Succeeded, cool.Shed, st.Admission.ShedFull, st.Admission.ShedTimeout)
}

// TestLoadMixedIngest is the write-beside-read differential: two writers
// INSERT rows they alone own into events while readers replay the pool
// against a server with both caches on. It holds the benchmark's
// lost-write and stale-read rules: every read over events, taken after a
// snapshot of each writer's acknowledged rows, shows at least those rows
// and exactly the reading writer's own; the final count(*) equals the
// rows acknowledged; and every pool read matches the serial baseline.
func TestLoadMixedIngest(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()

	const seed, writers, rowsPerInsert = 11, 2, 3
	fuzzCount, readsPerClient, insertsPerWriter := 12, 20, 40
	if testing.Short() {
		fuzzCount, readsPerClient, insertsPerWriter = 6, 8, 15
	}
	w, err := NewWorkload(seed, fuzzCount)
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{Slots: 4, MaxQueue: 1024}
	cfg.Session.EnablePlanCache = true
	cfg.Session.EnableResultCache = true
	srv, hs := newLoadServer(t, w, cfg)
	defer srv.Close()
	defer hs.Close()
	hc := hs.Client()
	defer hc.CloseIdleConnections()
	events := arrow.NewSchema(
		arrow.NewField("client", arrow.Int64, false),
		arrow.NewField("seq", arrow.Int64, false),
	)
	if err := srv.Session().RegisterBatches("events", events, nil); err != nil {
		t.Fatal(err)
	}
	oracle, err := NewOracle(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()

	var acked [writers]atomic.Int64
	cell := func(v any) int64 {
		n, _ := v.(json.Number).Int64()
		return n
	}
	// check verifies one read over events by writer id against the
	// acknowledged counts snapshotted before it was sent.
	check := func(id int, before [writers]int64, res *QueryResult, byClient bool) error {
		if !byClient {
			var floor int64
			for _, n := range before {
				floor += n
			}
			if got := cell(res.Rows[0][0]); got < floor {
				return fmt.Errorf("writer %d reads %d event rows, %d acknowledged before", id, got, floor)
			}
			return nil
		}
		var got [writers]int64
		for _, row := range res.Rows {
			client := cell(row[0])
			if client < 0 || client >= writers {
				return fmt.Errorf("writer %d reads rows of unknown client %d", id, client)
			}
			got[client] = cell(row[1])
		}
		for j := range got {
			if got[j] < before[j] {
				return fmt.Errorf("writer %d reads %d rows of writer %d, %d acknowledged before", id, got[j], j, before[j])
			}
		}
		if own := acked[id].Load(); got[id] != own {
			return fmt.Errorf("writer %d reads %d of its rows, %d acknowledged", id, got[id], own)
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers*insertsPerWriter*2)
	for id := 0; id < writers; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := NewClient(hs.URL, hc, fmt.Sprintf("writer-%d", id))
			ctx := context.Background()
			for i := 0; i < insertsPerWriter; i++ {
				var sb strings.Builder
				sb.WriteString("INSERT INTO events VALUES ")
				for r := 0; r < rowsPerInsert; r++ {
					if r > 0 {
						sb.WriteString(", ")
					}
					fmt.Fprintf(&sb, "(%d, %d)", id, i*rowsPerInsert+r)
				}
				if _, err := c.Query(ctx, sb.String()); err != nil {
					errs <- fmt.Errorf("writer %d insert %d: %w", id, i, err)
					return
				}
				acked[id].Add(rowsPerInsert)
				var before [writers]int64
				for j := range before {
					before[j] = acked[j].Load()
				}
				byClient := i%2 == 0
				sql := "SELECT count(*) AS n FROM events"
				if byClient {
					sql = "SELECT client, count(*) AS n FROM events GROUP BY client"
				}
				res, err := c.Query(ctx, sql)
				if err == nil {
					err = check(id, before, res, byClient)
				}
				if err != nil {
					errs <- err
				}
			}
		}(id)
	}
	reads := Run(hs.URL, hc, w, Options{
		Clients:           4,
		RequestsPerClient: readsPerClient,
		Seed:              seed,
		PreparedEvery:     5,
		Oracle:            oracle,
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, d := range reads.Divergences {
		t.Errorf("divergence: %s", d)
	}
	for _, f := range reads.Failures {
		t.Errorf("failure: %s", f)
	}
	if reads.Succeeded == 0 {
		t.Fatal("no pool read succeeded")
	}
	res, err := NewClient(hs.URL, hc, "").Query(context.Background(), "SELECT count(*) FROM events")
	if err != nil {
		t.Fatal(err)
	}
	want := int64(writers * insertsPerWriter * rowsPerInsert)
	if got := cell(res.Rows[0][0]); got != want {
		t.Fatalf("events holds %d rows, %d acknowledged", got, want)
	}
	t.Logf("mixed ingest: %d inserts, %d pool reads ok (%d plan hits), %.0f qps",
		writers*insertsPerWriter, reads.Succeeded, reads.PlanHits, reads.Throughput())
}
