package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"gofusion/internal/core"
	"gofusion/internal/memory"
)

// Config tunes the service layer.
type Config struct {
	// Session is the engine configuration shared by every request.
	// EnablePlanCache is recommended (prepared statements and repeated
	// queries skip planning); ParentPool is overwritten when
	// MemoryBudget is set.
	Session core.SessionConfig
	// MemoryBudget bounds tracked operator memory across ALL in-flight
	// queries (bytes; 0 = no shared budget). Each query charges a child
	// pool of this budget, so admission-controlled concurrency divides
	// one global allowance instead of multiplying per-query limits.
	MemoryBudget int64
	// QueryMemoryLimit caps each individual query (bytes; 0 = only the
	// shared budget applies).
	QueryMemoryLimit int64
	// Slots is the number of queries allowed to execute concurrently
	// (default 8).
	Slots int
	// MaxQueue bounds how many admitted-but-waiting requests may queue
	// (default 2*Slots; <0 disables queueing entirely; requests beyond
	// the bound are shed with HTTP 429).
	MaxQueue int
	// QueueTimeout is the longest a request may wait for a slot before
	// being shed with HTTP 503 (default 10s; <0 disables).
	QueueTimeout time.Duration
	// RequestTimeout is the default per-request execution deadline
	// (default 60s; <0 disables). A request's timeout_ms field overrides
	// it per query.
	RequestTimeout time.Duration
}

// sessionState is the per-tenant slice of server state: prepared
// statements and usage counters. All sessions execute against the one
// shared engine session (shared catalog, plan cache, and memory budget);
// the state here is what is scoped per tenant.
type sessionState struct {
	mu       sync.Mutex
	prepared map[string]*core.PreparedStatement
	nextID   int

	queries  atomic.Int64
	errors   atomic.Int64
	rows     atomic.Int64
	busyUsec atomic.Int64
}

// SessionStats is the /stats snapshot of one tenant session.
type SessionStats struct {
	Queries      int64   `json:"queries"`
	Errors       int64   `json:"errors"`
	RowsReturned int64   `json:"rows_returned"`
	Prepared     int     `json:"prepared_statements"`
	BusySeconds  float64 `json:"busy_seconds"`
}

// MemoryStats is the /stats snapshot of the shared memory budget.
type MemoryStats struct {
	BudgetBytes   int64 `json:"budget_bytes"`
	ReservedBytes int64 `json:"reserved_bytes"`
	PeakBytes     int64 `json:"peak_bytes"`
}

// Stats is the GET /stats response.
type Stats struct {
	UptimeSeconds float64                 `json:"uptime_seconds"`
	Queries       int64                   `json:"queries"`
	Errors        int64                   `json:"errors"`
	RowsReturned  int64                   `json:"rows_returned"`
	Admission     LimiterStats            `json:"admission"`
	PlanCache     *core.PlanCacheStats    `json:"plan_cache,omitempty"`
	Memory        *MemoryStats            `json:"memory,omitempty"`
	Sessions      map[string]SessionStats `json:"sessions,omitempty"`
}

// Server is the multi-tenant SQL service. One engine session serves every
// request: concurrent reads are safe, and the session serializes the
// commit step of writes (DDL/INSERT/COPY) itself.
type Server struct {
	cfg     Config
	base    *core.SessionContext
	parent  *memory.GreedyPool
	limiter *Limiter
	started time.Time

	mu       sync.Mutex
	sessions map[string]*sessionState

	queries atomic.Int64
	errs    atomic.Int64
	rows    atomic.Int64
}

// New builds a server. Datasets are registered by the caller through
// Session() before serving traffic.
func New(cfg Config) *Server {
	if cfg.Slots <= 0 {
		cfg.Slots = 8
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.Slots
	}
	if cfg.QueueTimeout == 0 {
		cfg.QueueTimeout = 10 * time.Second
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 60 * time.Second
	}
	scfg := cfg.Session
	var parent *memory.GreedyPool
	if cfg.MemoryBudget > 0 {
		parent = memory.NewGreedyPool(cfg.MemoryBudget)
		scfg.ParentPool = parent
	}
	if cfg.QueryMemoryLimit > 0 {
		scfg.MemoryLimit = cfg.QueryMemoryLimit
	}
	return &Server{
		cfg:      cfg,
		base:     core.NewSession(scfg),
		parent:   parent,
		limiter:  NewLimiter(cfg.Slots, cfg.MaxQueue, cfg.QueueTimeout),
		started:  time.Now(),
		sessions: map[string]*sessionState{},
	}
}

// Session exposes the shared engine session for dataset registration.
func (s *Server) Session() *core.SessionContext { return s.base }

// Limiter exposes the admission controller (tests and stats).
func (s *Server) Limiter() *Limiter { return s.limiter }

// ParentPool returns the shared memory budget pool, or nil when no
// budget is configured.
func (s *Server) ParentPool() *memory.GreedyPool { return s.parent }

// Close releases the engine session.
func (s *Server) Close() { s.base.Close() }

// Handler returns the HTTP mux: POST /query, POST /prepare, GET /stats,
// GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/prepare", s.handlePrepare)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (s *Server) session(name string) *sessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.sessions[name]
	if !ok {
		st = &sessionState{prepared: map[string]*core.PreparedStatement{}}
		s.sessions[name] = st
	}
	return st
}

// statusFor maps an execution error to an HTTP status: overload and
// memory pressure are retryable (429/503), deadlines are 504, client
// cancellation is the nginx-conventional 499, everything else is a bad
// request.
func statusFor(err error) int {
	var mem *memory.ErrResourcesExhausted
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrQueueTimeout), errors.As(err, &mem):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if (req.SQL == "") == (req.Prepared == "") {
		writeError(w, http.StatusBadRequest, errors.New("exactly one of sql or prepared must be set"))
		return
	}
	sess := s.session(req.Session)

	ctx := r.Context()
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Admission: waiting for a slot counts against the request deadline,
	// so a saturated server sheds instead of building invisible backlog.
	release, err := s.limiter.Acquire(ctx)
	if err != nil {
		s.errs.Add(1)
		sess.errors.Add(1)
		writeError(w, statusFor(err), err)
		return
	}
	defer release()

	start := time.Now()
	resp, err := s.execute(ctx, sess, &req)
	elapsed := time.Since(start)
	s.queries.Add(1)
	sess.queries.Add(1)
	sess.busyUsec.Add(elapsed.Microseconds())
	if err != nil {
		s.errs.Add(1)
		sess.errors.Add(1)
		writeError(w, statusFor(err), err)
		return
	}
	resp.ElapsedMS = float64(elapsed.Microseconds()) / 1e3
	s.rows.Add(resp.RowCount)
	sess.rows.Add(resp.RowCount)
	writeJSON(w, resp)
}

// execute runs one admitted request to completion.
func (s *Server) execute(ctx context.Context, sess *sessionState, req *queryRequest) (*queryResponse, error) {
	var df *core.DataFrame
	var err error
	switch {
	case req.Prepared != "":
		sess.mu.Lock()
		ps := sess.prepared[req.Prepared]
		sess.mu.Unlock()
		if ps == nil {
			return nil, fmt.Errorf("unknown prepared statement %q", req.Prepared)
		}
		df, err = ps.Query()
	default:
		// Writes execute inside SQL; their frame is a status row.
		df, err = s.base.SQL(req.SQL)
	}
	if err != nil {
		return nil, err
	}

	batches, qm, err := df.CollectWithMetricsContext(ctx)
	if err != nil {
		return nil, err
	}
	resp := &queryResponse{
		Rows:      EncodeRows(batches),
		RowCount:  qm.RowsReturned,
		PlanHit:   qm.PlanCacheHit,
		ResultHit: qm.ResultCacheHit,
	}
	if len(batches) > 0 {
		resp.Columns, resp.Types = EncodeSchema(batches[0].Schema())
	}
	return resp, nil
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req prepareRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	ps, err := s.base.Prepare(req.SQL)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess := s.session(req.Session)
	sess.mu.Lock()
	sess.nextID++
	handle := fmt.Sprintf("p%d", sess.nextID)
	sess.prepared[handle] = ps
	sess.mu.Unlock()
	writeJSON(w, prepareResponse{Handle: handle, SQL: ps.SQL(), Session: req.Session})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	st := Stats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Queries:       s.queries.Load(),
		Errors:        s.errs.Load(),
		RowsReturned:  s.rows.Load(),
		Admission:     s.limiter.Stats(),
	}
	if pcs, ok := s.base.PlanCacheStats(); ok {
		st.PlanCache = &pcs
	}
	if s.parent != nil {
		st.Memory = &MemoryStats{
			BudgetBytes:   s.parent.Limit(),
			ReservedBytes: s.parent.Reserved(),
			PeakBytes:     s.parent.ReservedPeak(),
		}
	}
	s.mu.Lock()
	if len(s.sessions) > 0 {
		st.Sessions = make(map[string]SessionStats, len(s.sessions))
		for name, sess := range s.sessions {
			sess.mu.Lock()
			np := len(sess.prepared)
			sess.mu.Unlock()
			st.Sessions[name] = SessionStats{
				Queries:      sess.queries.Load(),
				Errors:       sess.errors.Load(),
				RowsReturned: sess.rows.Load(),
				Prepared:     np,
				BusySeconds:  float64(sess.busyUsec.Load()) / 1e6,
			}
		}
	}
	s.mu.Unlock()
	writeJSON(w, st)
}
