package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/core"
	"gofusion/internal/physical"
	"gofusion/internal/server"
	"gofusion/internal/serverload"
	"gofusion/internal/workload/clickbench"
)

// serverWorkload is a closed-loop HTTP workload: sz.clients clients on as
// many keep-alive connections, each sending its next request when the
// previous reply has arrived. Callers of a SQL service wait for their
// reply, so the closed loop is the honest model.
type serverWorkload struct {
	name   string
	ingest bool
}

var serverWorkloads = []*serverWorkload{
	{name: "server_read_closed"},
	{name: "server_ingest_mixed", ingest: true},
}

type requestKind int

const (
	reqPool requestKind = iota
	reqPrepared
	reqInsert
	reqEventsByClient
	reqEventsTotal
)

// request is one step of a client's seeded sequence. stmt indexes the
// latency bucket: the pool statements first, then the three statements
// over events.
type request struct {
	kind requestKind
	stmt int
}

// nextRequest draws request number n of a client. Reads are uniform pool
// picks, every fourth sent through the statement's prepared handle (every
// client prepares the whole pool: one pinned statement per client would
// make a quarter of the traffic, and so the throughput, depend on which
// statement the seed drew). The ingest mix turns 10% of requests into
// INSERTs and 10% into aggregates over the written table.
func nextRequest(rng *rand.Rand, n int, ingest bool, pool int) request {
	if ingest {
		switch rng.Intn(10) {
		case 0:
			return request{reqInsert, pool}
		case 1:
			if rng.Intn(2) == 0 {
				return request{reqEventsByClient, pool + 1}
			}
			return request{reqEventsTotal, pool + 2}
		}
	}
	if n%4 == 0 {
		return request{reqPrepared, rng.Intn(pool)}
	}
	return request{reqPool, rng.Intn(pool)}
}

// poolSeed fixes the fuzzsql corpus and its tables (the seed of
// BenchmarkServerLoad). The statement pool is the workload; a pool drawn
// from the run's seed moved throughput_qps by +-15% between seeds. The
// run's seed drives each client's request sequence instead.
const poolSeed = 42

const (
	eventsByClientSQL = "SELECT client, count(*) AS n, sum(v) AS total FROM events GROUP BY client"
	eventsTotalSQL    = "SELECT count(*) AS n, min(seq) AS lo, max(seq) AS hi FROM events"
)

var eventsSchema = arrow.NewSchema(
	arrow.NewField("client", arrow.Int64, false),
	arrow.NewField("seq", arrow.Int64, false),
	arrow.NewField("v", arrow.Float64, false),
)

// loadClient is one closed-loop client. Its rng continues across phases,
// so the whole run is one seeded sequence cut by the clock.
type loadClient struct {
	id      int
	rng     *rand.Rand
	api     *serverload.Client
	handles []string // prepared handle per pool statement
	n       int      // requests sent
	seq     int64    // next event sequence number
	acked   int64    // event rows the server has acknowledged
}

func clientRNG(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000 + int64(id)))
}

func serverSeqHash(seed int64, clients int, ingest bool, pool int) uint64 {
	h := fnv.New64a()
	for id := 0; id < clients; id++ {
		rng := clientRNG(seed, id)
		for n := 0; n < 200; n++ {
			r := nextRequest(rng, n, ingest, pool)
			h.Write([]byte{byte(r.kind), byte(r.stmt)})
		}
	}
	return h.Sum64()
}

// serverRun carries the state of one server workload run.
type serverRun struct {
	w        *serverWorkload
	rc       runConfig
	rep      *report
	load     *serverload.Workload
	names    []string // latency bucket names
	expected []checksum

	srv     *server.Server
	http    *http.Server
	hc      *http.Client
	clients []*loadClient
}

// setUp builds the service once: engine session, datasets, listener,
// clients with their prepared handles, and one warm-up request per pool
// statement (whose responses are kept for verification).
func (r *serverRun) setUp(dir string) (float64, []*serverload.QueryResult, error) {
	start := time.Now()
	cfg := server.Config{Slots: 8}
	cfg.Session = core.DefaultConfig()
	cfg.Session.TargetPartitions = r.rc.targetPartitions()
	cfg.Session.EnablePlanCache = true
	cfg.Session.SpillDir = dir
	r.srv = server.New(cfg)
	if err := r.load.Register(r.srv.Session()); err != nil {
		return 0, nil, err
	}
	if r.w.ingest {
		if err := r.srv.Session().RegisterBatches("events", eventsSchema, nil); err != nil {
			return 0, nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	r.http = &http.Server{Handler: r.srv.Handler()}
	go r.http.Serve(ln) // returns when tearDown shuts the server down

	n := r.rc.sz.clients
	r.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}}
	ctx := context.Background()
	base := "http://" + ln.Addr().String()
	r.clients = r.clients[:0]
	for id := 0; id < n; id++ {
		c := &loadClient{id: id, rng: clientRNG(r.rc.seed, id),
			api: serverload.NewClient(base, r.hc, fmt.Sprintf("client-%d", id))}
		for _, q := range r.load.Queries {
			h, err := c.api.Prepare(ctx, q)
			if err != nil {
				return 0, nil, fmt.Errorf("prepare: %w", err)
			}
			c.handles = append(c.handles, h)
		}
		r.clients = append(r.clients, c)
	}
	warm := make([]*serverload.QueryResult, len(r.load.Queries))
	for i, q := range r.load.Queries {
		if warm[i], err = r.clients[0].api.Query(ctx, q); err != nil {
			return 0, nil, fmt.Errorf("warm-up %s: %w", r.names[i], err)
		}
	}
	return time.Since(start).Seconds(), warm, nil
}

func (r *serverRun) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r.http.Shutdown(ctx)
	r.hc.CloseIdleConnections()
	r.srv.Close()
}

func insertSQL(c *loadClient, rows int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO events VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %.3f)", c.id, c.seq, c.rng.Float64()*100)
		c.seq++
	}
	return sb.String()
}

func cellInt(v any) int64 {
	if num, ok := v.(json.Number); ok {
		n, _ := num.Int64()
		return n
	}
	return -1
}

// check verifies one reply. Pool statements are compared with their
// verified checksum. Statements over events are the lost-write and
// stale-read probe: a client is the only writer of its rows and sends
// nothing while a request is in flight, so a read must show exactly the
// rows it has had acknowledged, and at least as many in total.
func (r *serverRun) check(c *loadClient, req request, res *serverload.QueryResult) error {
	switch req.kind {
	case reqInsert:
		c.acked += int64(r.rc.sz.insertRows)
	case reqEventsByClient:
		var mine int64
		for _, row := range res.Rows {
			if len(row) >= 2 && cellInt(row[0]) == int64(c.id) {
				mine = cellInt(row[1])
			}
		}
		if mine != c.acked {
			return fmt.Errorf("client %d reads %d of its event rows, %d acknowledged", c.id, mine, c.acked)
		}
	case reqEventsTotal:
		if len(res.Rows) != 1 || cellInt(res.Rows[0][0]) < c.acked {
			return fmt.Errorf("client %d reads fewer event rows than its %d acknowledged", c.id, c.acked)
		}
	default:
		if !checksumRows(res).equal(r.expected[req.stmt]) {
			return fmt.Errorf("%s: result differs from the verified one", r.names[req.stmt])
		}
	}
	return nil
}

// phaseStats is what one client measured in one phase.
type phaseStats struct {
	ok, failed, shed int64
	failures         []string
	lat              [][]float64 // per latency bucket, ms
	overheadMS       float64     // sum of round trip minus in-process collect
	wireMS           float64     // sum of round trip minus server-reported execution
	replayed         int64
	began            time.Time
	done             []time.Duration // completion time of each correct operation, from began
}

func (st *phaseStats) fail(format string, args ...any) {
	st.failed++
	if len(st.failures) < 4 {
		st.failures = append(st.failures, fmt.Sprintf(format, args...))
	}
}

const throughputWindow = 500 * time.Millisecond

// throughput is correct operations per second, as the median over the
// phase's whole half-second windows: a stall that hits one window (a
// neighbour on the host, a GC cycle) then does not move the run's number.
// A phase of fewer than four windows reports ok/elapsed.
func (st *phaseStats) throughput(elapsed time.Duration) float64 {
	windows := int(elapsed / throughputWindow)
	if windows < 4 {
		return float64(st.ok) / elapsed.Seconds()
	}
	counts := make([]float64, windows)
	for _, d := range st.done {
		if w := int(d / throughputWindow); w < windows {
			counts[w]++
		}
	}
	return median(counts) / throughputWindow.Seconds()
}

// step sends request number c.n. With a recorder it also replays the
// statement in this process, as siblings of the round-trip span: once
// through SQL+CollectContext on the server's own session (what the
// handler does between decoding and encoding), once through the staged
// path for the per-layer spans. INSERTs are not replayed.
func (r *serverRun) step(ctx context.Context, c *loadClient, st *phaseStats, rec *recorder, ps *planStats) {
	req := nextRequest(c.rng, c.n, r.w.ingest, len(r.load.Queries))
	op := c.id*10_000_000 + c.n + 1
	c.n++
	var text string
	switch req.kind {
	case reqInsert:
		text = insertSQL(c, r.rc.sz.insertRows)
	case reqEventsByClient:
		text = eventsByClientSQL
	case reqEventsTotal:
		text = eventsTotalSQL
	default:
		text = r.load.Queries[req.stmt]
	}
	name := r.names[req.stmt]

	span := 0
	if rec != nil {
		span = rec.begin("http.roundtrip", 0, op, name)
	}
	start := time.Now()
	var res *serverload.QueryResult
	var err error
	if req.kind == reqPrepared {
		res, err = c.api.QueryPrepared(ctx, c.handles[req.stmt])
	} else {
		res, err = c.api.Query(ctx, text)
	}
	rtt := time.Since(start)
	if rec != nil {
		rec.end(span)
	}
	if err == nil {
		err = r.check(c, req, res)
	}
	if err != nil {
		var qe *serverload.QueryError
		if errors.As(err, &qe) && (qe.Status == http.StatusTooManyRequests ||
			qe.Status == http.StatusServiceUnavailable || qe.Status == http.StatusGatewayTimeout) {
			st.shed++
		}
		st.fail("%s: %v", name, err)
		return
	}
	st.ok++
	st.done = append(st.done, time.Since(st.began))
	st.lat[req.stmt] = append(st.lat[req.stmt], ms(rtt))
	if rec == nil || req.kind == reqInsert {
		return
	}

	session := r.srv.Session()
	span = rec.begin("inproc.collect", 0, op, name)
	start = time.Now()
	df, err := session.SQL(text)
	if err == nil {
		_, err = df.CollectContext(ctx)
	}
	inproc := time.Since(start)
	rec.end(span)
	var pp physical.ExecutionPlan
	var batches []*arrow.RecordBatch
	if err == nil {
		batches, pp, err = execStaged(session, rec, op, statement{Name: name, SQL: text})
	}
	if err != nil {
		st.fail("%s replay: %v", name, err)
		return
	}
	st.overheadMS += ms(rtt - inproc)
	st.wireMS += ms(rtt) - res.ElapsedMS
	st.replayed++
	ps.addPlan(pp)
	for _, b := range batches {
		ps.rowsReturned += int64(b.NumRows())
	}
}

// phase runs every client until the time is used (or, in smoke mode, for
// a fixed number of requests) and returns the merged statistics and the
// wall clock taken.
func (r *serverRun) phase(d time.Duration, rec *recorder, ps *planStats) (*phaseStats, time.Duration) {
	ctx := context.Background()
	per := make([]*phaseStats, len(r.clients))
	var wg sync.WaitGroup
	start := time.Now()
	plans := make([]*planStats, len(r.clients)) // one collector per client, merged after the phase
	for i, c := range r.clients {
		per[i] = &phaseStats{lat: make([][]float64, len(r.names)), began: start}
		if ps != nil {
			plans[i] = newPlanStats(ps.session)
		}
		wg.Add(1)
		go func(c *loadClient, st *phaseStats, mine *planStats) {
			defer wg.Done()
			for done := 0; more(r.rc.sz.requests, done, start, d); done++ {
				r.step(ctx, c, st, rec, mine)
			}
		}(c, per[i], plans[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	if ps != nil {
		for _, mine := range plans {
			ps.merge(mine)
		}
	}
	total := per[0]
	for _, st := range per[1:] {
		total.done = append(total.done, st.done...)
		total.ok += st.ok
		total.failed += st.failed
		total.shed += st.shed
		total.failures = append(total.failures, st.failures...)
		total.overheadMS += st.overheadMS
		total.wireMS += st.wireMS
		total.replayed += st.replayed
		for i := range st.lat {
			total.lat[i] = append(total.lat[i], st.lat[i]...)
		}
	}
	return total, elapsed
}

// absorb moves a phase's outcome counts into the report.
func (r *serverRun) absorb(st *phaseStats) {
	r.rep.attempted += st.ok + st.failed
	r.rep.failed += st.failed
	r.rep.failures = append(r.rep.failures, st.failures...) // at most 4 per client and phase
}

func runServer(w *serverWorkload, rc runConfig) (*report, error) {
	rep := &report{workload: w.name, metrics: map[string]float64{}, counters: map[string]int64{}}
	r := &serverRun{w: w, rc: rc, rep: rep}

	// The pool: TPC-H, ClickBench and a seeded fuzzsql corpus. The oracle
	// is a serial session over the same data with no cache; statements it
	// rejects (fuzzsql may generate a failing expression) leave the pool,
	// since no operation of a benchmark run may fail.
	var err error
	if r.load, err = serverload.NewWorkload(poolSeed, rc.sz.fuzzQueries); err != nil {
		return nil, err
	}
	oracle, err := serverload.NewOracle(r.load, 1)
	if err != nil {
		return nil, err
	}
	defer oracle.Close()
	// ClickBench 13 and 16 cut a count-ordered list at LIMIT 10 in the
	// middle of a run of equal counts (2 000 rows of hits), so which rows
	// they return depends on partition timing; they leave the pool too.
	cb := clickbench.Queries()
	var pool []string
	for _, q := range r.load.Queries {
		// CheckError reports an error exactly when the oracle accepts q.
		if q != cb[13] && q != cb[16] && oracle.CheckError(q) != nil {
			pool = append(pool, q)
		}
	}
	r.load.Queries = pool
	for i := range pool {
		r.names = append(r.names, fmt.Sprintf("p%02d", i))
	}
	r.names = append(r.names, "insert_events", "events_by_client", "events_total")
	rep.seqHash = serverSeqHash(rc.seed, rc.sz.clients, w.ingest, len(pool))

	var setups []float64
	var warm []*serverload.QueryResult
	for i := 0; i < rc.sz.setupRepeats; i++ {
		if r.srv != nil {
			r.tearDown()
		}
		var secs float64
		if secs, warm, err = r.setUp(filepath.Join(rc.tmpDir, "spill")); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer r.tearDown()

	// Correctness gate: every pool statement against the oracle.
	r.expected = make([]checksum, len(r.names))
	for i, q := range pool {
		rep.attempted++
		if err := oracle.Check(q, warm[i]); err != nil {
			rep.fail("%s: %v", r.names[i], err)
		}
		r.expected[i] = checksumRows(warm[i])
		rep.counters["rows_returned"] += r.expected[i].rows
	}

	untracedFor, tracedFor := rc.phaseSeconds()
	cache0, _ := r.srv.Session().PlanCacheStats()
	mem := startMemDelta()
	st, elapsed := r.phase(untracedFor, nil, nil)
	gcPause, allocBytes := mem.stop()
	cache1, _ := r.srv.Session().PlanCacheStats()
	r.absorb(st)

	if err := rep.setLatencies(r.names, st.lat); err != nil {
		return rep, err
	}
	var all []float64
	for _, l := range st.lat {
		all = append(all, l...)
	}
	untracedQPS := st.throughput(elapsed)
	rep.metrics["throughput_qps"] = untracedQPS
	rep.metrics["setup_s"] = median(setups)

	if rc.trace {
		rec := newRecorder()
		ps := newPlanStats(r.srv.Session())
		traced, tracedElapsed := r.phase(tracedFor, rec, ps)
		r.absorb(traced)
		if err := sharedLayerMetrics(rep, rc, rec, ps, float64(traced.replayed), gcPause, allocBytes, st.ok); err != nil {
			return rep, err
		}
		m := rep.metrics
		hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
		m["core.plan_cache_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
		m["server.overhead_ms"] = ratio(traced.overheadMS, float64(traced.replayed))
		m["server.queue_wire_ms"] = ratio(traced.wireMS, float64(traced.replayed))
		m["server.shed_count"] = float64(st.shed + traced.shed)
		m["server.latency_p50_ms"] = quantile(all, 0.50)
		m["server.latency_p99_ms"] = quantile(all, 0.99)
		m["trace_overhead_ratio"] = ratio(traced.throughput(tracedElapsed), untracedQPS)
	}

	if w.ingest {
		// Lost-write probe: the table holds exactly the acknowledged rows.
		var acked int64
		for _, c := range r.clients {
			acked += c.acked
		}
		rep.attempted++
		res, err := r.clients[0].api.Query(context.Background(), "SELECT count(*) FROM events")
		switch {
		case err != nil:
			rep.fail("final count: %v", err)
		case len(res.Rows) != 1 || cellInt(res.Rows[0][0]) != acked:
			rep.fail("events holds %v rows, %d acknowledged", res.Rows, acked)
		}
		rep.counters["events_rows"] = acked
	}
	return rep, nil
}
