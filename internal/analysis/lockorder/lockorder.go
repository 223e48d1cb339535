// Package lockorder checks the engine's mutex discipline three ways:
//
//  1. It builds the package's lock-acquisition-order graph — an edge
//     L -> M for every site that acquires lock class M while holding L,
//     including acquisitions performed by (transitively called)
//     same-package functions — and diagnoses cycles as potential
//     deadlocks.
//  2. It checks every edge against the engine-wide lock-order policy
//     (Ranks): the core session's write lock is outermost, then the
//     server session maps, then the core plan cache, the catalog, and finally
//     the memory pools, which are leaves. Acquiring a lower-ranked
//     (outer) lock while holding a higher-ranked (inner) one is a
//     violation even when the opposite edge is not in this package —
//     that is how a per-package analysis enforces a global order.
//  3. It flags operations that can park the goroutine while a mutex is
//     held: channel sends/receives (outside a select with a default),
//     selects, sync.WaitGroup.Wait, and calls to Collect*-style
//     full-result materialization — each can wait on work that needs
//     the very lock being held.
//
// Lock classes are (named type, field) pairs ("core.SessionContext.writeMu")
// or package-level variables; distinct instances of one class share a
// class, so nesting two instances of the same class is reported too
// (instance order is unspecified without an explicit coupling rule).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"gofusion/internal/analysis"
	"gofusion/internal/analysis/cfg"
	"gofusion/internal/analysis/flow"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check lock acquisition order and blocking operations under locks\n\n" +
		"builds the package lock-order graph (interprocedurally, via\n" +
		"function summaries), diagnoses cycles and violations of the engine\n" +
		"lock-rank policy, and flags channel operations or Collect* calls\n" +
		"performed while a mutex is held.",
	Run: run,
}

// Ranks is the engine-wide lock-order policy: locks must be acquired in
// ascending rank. Lower rank = outer lock. Classes with equal rank have
// no prescribed order between them (they should never nest). The table
// is exported so tests and DESIGN.md stay in sync with the checker.
var Ranks = map[string]int{
	// Core: the session's write lock serializes the commit step of
	// writes (resolve, append, register) and is taken before anything
	// else; the catalog and table locks nest inside it.
	"gofusion/internal/core.SessionContext.writeMu": 10,
	// Server: the session map and per-session state.
	"gofusion/internal/server.Server.mu":       20,
	"gofusion/internal/server.sessionState.mu": 30,
	// Catalog: catalog before schema before table providers.
	"gofusion/internal/catalog.MemoryCatalog.mu": 50,
	"gofusion/internal/catalog.MemorySchema.mu":  52,
	"gofusion/internal/catalog.StreamTable.mu":   54,
	// Memory layer: the shared cache takes its own lock, then charges a
	// pool; child pools charge parents. Plain pools are leaves.
	"gofusion/internal/memory.SizedLRU.mu":      60,
	"gofusion/internal/memory.ChildPool.mu":     65,
	"gofusion/internal/memory.UnboundedPool.mu": 70,
	"gofusion/internal/memory.GreedyPool.mu":    70,
	"gofusion/internal/memory.DiskManager.mu":   70,
}

// lockClass identifies one lock in diagnostics and the order graph.
type lockClass struct {
	key  string // canonical "pkgpath.Type.field" / "pkgpath.var" / "local:..." id
	disp string // short display name
}

// edge is one observed ordering: to was acquired while from was held.
type edge struct{ from, to string }

type checker struct {
	pass *analysis.Pass
	pkg  *flow.Pkg

	summaries map[*types.Func]*summary

	edges    map[edge]token.Pos  // witness: the acquisition site of edge.to
	disp     map[string]string   // class key -> display name
	findings map[string]findRec  // dedup across fixpoint revisits
	reported map[string]struct{} // cycle/violation dedup
}

type findRec struct {
	pos token.Pos
	msg string
}

// summary is one function's lock behaviour as seen by its callers.
type summary struct {
	// acquires: classes the function may acquire anywhere inside
	// (transitively), with a witness position. Callers add order edges
	// from every lock they hold at the call site.
	acquires map[string]token.Pos
	// netHeld: classes held on return (lock-helper wrappers).
	netHeld map[string]token.Pos
	// netReleased: classes released on return without being acquired
	// inside (unlock-helper wrappers).
	netReleased map[string]bool
	// blocking describes a parking operation reachable inside (not
	// counting mutex acquisition itself); empty when none.
	blocking string
}

func (s *summary) equal(o *summary) bool {
	if o == nil {
		return false
	}
	return len(s.acquires) == len(o.acquires) &&
		len(s.netHeld) == len(o.netHeld) &&
		len(s.netReleased) == len(o.netReleased) &&
		s.blocking == o.blocking
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		pkg:       flow.NewPkg(pass),
		summaries: map[*types.Func]*summary{},
		edges:     map[edge]token.Pos{},
		disp:      map[string]string{},
		findings:  map[string]findRec{},
		reported:  map[string]struct{}{},
	}
	c.pkg.BottomUp(func(fi *flow.FuncInfo) bool {
		s := c.analyze(fi)
		prev := c.summaries[fi.Obj]
		c.summaries[fi.Obj] = s
		return !s.equal(prev)
	})
	// Function literals (goroutine bodies, callbacks) run with an empty
	// held set of their own.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				c.analyzeBody(cfg.New(lit.Body), nil, nil)
			}
			return true
		})
	}

	for _, fr := range sortedFindings(c.findings) {
		pass.Reportf(fr.pos, "%s", fr.msg)
	}
	c.reportPolicyViolations()
	c.reportCycles()
	return nil
}

// lockState is the dataflow fact: the set of lock classes currently
// held (must-analysis) and the unlocks deferred to function exit.
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockState() lockState {
	return lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (s lockState) clone() lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

func lockMerge(a, b lockState) lockState {
	// Must-held: intersection. Deferred unlocks: union (any path that
	// registered the defer will run it).
	m := newLockState()
	for k, v := range a.held {
		if _, ok := b.held[k]; ok {
			m.held[k] = v
		}
	}
	for k := range a.deferred {
		m.deferred[k] = true
	}
	for k := range b.deferred {
		m.deferred[k] = true
	}
	return m
}

func lockEqual(a, b lockState) bool {
	if len(a.held) != len(b.held) || len(a.deferred) != len(b.deferred) {
		return false
	}
	for k := range a.held {
		if _, ok := b.held[k]; !ok {
			return false
		}
	}
	for k := range a.deferred {
		if !b.deferred[k] {
			return false
		}
	}
	return true
}

// analyze runs the lock dataflow over one declared function and distills
// its summary.
func (c *checker) analyze(fi *flow.FuncInfo) *summary {
	s := &summary{
		acquires:    map[string]token.Pos{},
		netHeld:     map[string]token.Pos{},
		netReleased: map[string]bool{},
	}
	c.analyzeBody(fi.Graph, s, fi)
	return s
}

// analyzeBody walks g with the lock dataflow. When s is non-nil the
// function's summary is filled in (declared functions); function
// literals pass nil and only produce diagnostics.
func (c *checker) analyzeBody(g *cfg.CFG, s *summary, fi *flow.FuncInfo) {
	released := map[string]bool{} // classes unlocked while not held (unlock helpers)

	transfer := func(b *cfg.Block, in lockState) lockState {
		st := in.clone()
		for i, stmt := range b.Stmts {
			c.stmtEffect(b, i, stmt, &st, s, released)
		}
		for _, e := range b.Exprs {
			c.exprEffect(e, &st, s)
		}
		return st
	}
	in := flow.Forward(g, newLockState(), transfer, lockMerge, lockEqual)

	if s == nil {
		return
	}
	// Distill the exit state: held minus deferred unlocks is the net
	// effect callers see.
	exit, ok := in[g.Exit]
	if !ok {
		return // exit unreachable (infinite loop)
	}
	for k, pos := range exit.held {
		if !exit.deferred[k] {
			s.netHeld[k] = pos
		}
	}
	for k := range released {
		if _, held := s.netHeld[k]; !held {
			s.netReleased[k] = true
		}
	}
}

// stmtEffect applies one statement to the lock state, recording edges,
// findings, and summary facts.
func (c *checker) stmtEffect(b *cfg.Block, idx int, stmt ast.Stmt, st *lockState, s *summary, released map[string]bool) {
	switch stmt := stmt.(type) {
	case *ast.DeferStmt:
		if cls, op := c.mutexOp(stmt.Call); op != "" {
			if op == "unlock" {
				st.deferred[cls.key] = true
			}
			return
		}
		if callee := c.pkg.Callee(stmt.Call); callee != nil {
			if cs := c.summaries[callee]; cs != nil {
				for k := range cs.netReleased {
					st.deferred[k] = true
				}
			}
		}
		c.scanCalls(stmt.Call, st, s, true)
	case *ast.SendStmt:
		nonBlocking := idx == 0 && b.CommNonBlocking
		if !nonBlocking {
			c.noteBlocking(s, stmt.Pos(), "channel send")
			c.blockedWhileHeld(st, stmt.Pos(), "channel send")
		}
		c.scanCalls(stmt, st, s, false)
	case *ast.GoStmt:
		// The spawned body runs concurrently with its own empty held
		// set (handled by the FuncLit pass); only argument evaluation
		// happens here.
		for _, arg := range stmt.Call.Args {
			c.scanCalls(arg, st, s, false)
		}
	default:
		isComm := idx == 0 && b.Kind == "select.case"
		if isComm && !b.CommNonBlocking {
			c.noteBlocking(s, stmt.Pos(), "select")
			c.blockedWhileHeld(st, stmt.Pos(), "blocking select")
		}
		c.applyStmt(stmt, st, s, released, isComm)
	}
}

// applyStmt processes a non-defer/send/go statement: mutex operations,
// calls, and receive expressions inside it.
func (c *checker) applyStmt(stmt ast.Stmt, st *lockState, s *summary, released map[string]bool, inComm bool) {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed separately with an empty held set
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if cls, op := c.mutexOp(n); op != "" {
				switch op {
				case "lock":
					c.acquire(cls, n.Pos(), st, s)
				case "unlock":
					if _, held := st.held[cls.key]; held {
						delete(st.held, cls.key)
					} else if released != nil && !strings.HasPrefix(cls.key, "local:") {
						released[cls.key] = true
					}
				}
				return true
			}
			c.callEffect(n, st, s)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && !inComm {
				c.noteBlocking(s, n.Pos(), "channel receive")
				c.blockedWhileHeld(st, n.Pos(), "channel receive")
			}
		}
		return true
	})
}

// scanCalls processes calls/receives inside an expression or statement
// without treating the top level as a comm clause.
func (c *checker) scanCalls(n ast.Node, st *lockState, s *summary, deferring bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if _, op := c.mutexOp(m); op != "" {
				return true // handled by the defer/statement paths
			}
			if !deferring {
				c.callEffect(m, st, s)
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				c.noteBlocking(s, m.Pos(), "channel receive")
				c.blockedWhileHeld(st, m.Pos(), "channel receive")
			}
		}
		return true
	})
}

// exprEffect processes a block's control expressions (conditions, tags,
// range operands).
func (c *checker) exprEffect(e ast.Expr, st *lockState, s *summary) {
	c.scanCalls(e, st, s, false)
	// Ranging over a channel is a receive.
	if t, ok := c.pass.TypesInfo.Types[e]; ok {
		if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
			c.noteBlocking(s, e.Pos(), "channel receive")
			c.blockedWhileHeld(st, e.Pos(), "channel receive (range)")
		}
	}
}

// callEffect handles a non-mutex call: same-package callee summaries,
// and known blocking calls.
func (c *checker) callEffect(call *ast.CallExpr, st *lockState, s *summary) {
	if callee := c.pkg.Callee(call); callee != nil {
		cs := c.summaries[callee]
		if cs == nil {
			return
		}
		for k, pos := range cs.acquires {
			_ = pos
			c.acquireClass(k, c.disp[k], call.Pos(), st, s, false)
		}
		for k := range cs.netReleased {
			delete(st.held, k)
		}
		for k, pos := range cs.netHeld {
			_ = pos
			c.acquireClass(k, c.disp[k], call.Pos(), st, s, true)
		}
		if cs.blocking != "" {
			c.noteBlocking(s, call.Pos(), cs.blocking)
			c.blockedWhileHeld(st, call.Pos(), fmt.Sprintf("call to %s (%s)", callee.Name(), cs.blocking))
		}
		return
	}
	if desc := blockingCallDesc(c.pass.TypesInfo, call); desc != "" {
		c.noteBlocking(s, call.Pos(), desc)
		c.blockedWhileHeld(st, call.Pos(), desc)
	}
}

// acquire records acquisition of cls at pos: order edges from every held
// class, the class entering the held set, and the summary fact.
func (c *checker) acquire(cls lockClass, pos token.Pos, st *lockState, s *summary) {
	c.acquireClass(cls.key, cls.disp, pos, st, s, true)
}

// acquireClass is the shared acquisition bookkeeping. hold controls
// whether the class stays in the held set (a callee that acquires AND
// releases internally adds edges but does not hold on return).
func (c *checker) acquireClass(key, disp string, pos token.Pos, st *lockState, s *summary, hold bool) {
	if disp == "" {
		disp = key
	}
	c.disp[key] = disp
	for heldKey := range st.held {
		if heldKey == key {
			c.addFinding(pos, fmt.Sprintf(
				"nested acquisition of %s while an instance of the same lock class is already held (instance order is unspecified)", disp))
			continue
		}
		if !strings.HasPrefix(heldKey, "local:") && !strings.HasPrefix(key, "local:") {
			e := edge{from: heldKey, to: key}
			if _, ok := c.edges[e]; !ok {
				c.edges[e] = pos
			}
		}
	}
	if s != nil {
		if _, ok := s.acquires[key]; !ok && !strings.HasPrefix(key, "local:") {
			s.acquires[key] = pos
		}
	}
	if hold {
		if _, ok := st.held[key]; !ok {
			st.held[key] = pos
		}
	}
}

func (c *checker) noteBlocking(s *summary, pos token.Pos, desc string) {
	if s != nil && s.blocking == "" {
		s.blocking = desc
	}
}

// blockedWhileHeld files a finding when a parking operation runs with
// any lock held.
func (c *checker) blockedWhileHeld(st *lockState, pos token.Pos, desc string) {
	if len(st.held) == 0 {
		return
	}
	names := make([]string, 0, len(st.held))
	for k := range st.held {
		d := c.disp[k]
		if d == "" {
			d = k
		}
		names = append(names, d)
	}
	sort.Strings(names)
	c.addFinding(pos, fmt.Sprintf("%s while holding %s can block the lock holder; move it outside the critical section",
		desc, strings.Join(names, ", ")))
}

func (c *checker) addFinding(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d:%s", pos, msg)
	if _, ok := c.findings[key]; ok {
		return
	}
	c.findings[key] = findRec{pos: pos, msg: msg}
}

func sortedFindings(m map[string]findRec) []findRec {
	out := make([]findRec, 0, len(m))
	for _, fr := range m {
		out = append(out, fr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].msg < out[j].msg
	})
	return out
}

// reportPolicyViolations checks every observed edge against Ranks.
func (c *checker) reportPolicyViolations() {
	type ve struct {
		e   edge
		pos token.Pos
	}
	var out []ve
	for e, pos := range c.edges {
		rf, okF := Ranks[e.from]
		rt, okT := Ranks[e.to]
		if okF && okT && rf >= rt {
			out = append(out, ve{e, pos})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	for _, v := range out {
		c.pass.Reportf(v.pos, "acquired %s while holding %s: the engine lock order requires %s (rank %d) before %s (rank %d)",
			c.disp[v.e.to], c.disp[v.e.from], c.disp[v.e.to], Ranks[v.e.to], c.disp[v.e.from], Ranks[v.e.from])
	}
}

// reportCycles finds strongly connected components of the order graph
// and reports each once, with the witness site of every edge on the
// cycle. Edges already diagnosed as rank-policy violations are left out:
// the violation report is the actionable one, and keeping the edge would
// re-describe the same defect as a cycle.
func (c *checker) reportCycles() {
	// Adjacency over class keys.
	adj := map[string][]string{}
	for e := range c.edges {
		if rf, okF := Ranks[e.from]; okF {
			if rt, okT := Ranks[e.to]; okT && rf >= rt {
				continue
			}
		}
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, vs := range adj {
		sort.Strings(vs)
	}
	nodes := make([]string, 0, len(adj))
	for k := range adj {
		nodes = append(nodes, k)
	}
	sort.Strings(nodes)

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var sccs [][]string
	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}

	for _, comp := range sccs {
		if len(comp) < 2 {
			continue // self-edges are reported as nested acquisitions
		}
		sort.Strings(comp)
		inComp := map[string]bool{}
		for _, k := range comp {
			inComp[k] = true
		}
		var parts []string
		var at token.Pos
		for _, e := range sortedEdges(c.edges) {
			if rf, okF := Ranks[e.from]; okF {
				if rt, okT := Ranks[e.to]; okT && rf >= rt {
					continue
				}
			}
			if inComp[e.from] && inComp[e.to] {
				if at == token.NoPos {
					at = c.edges[e]
				}
				parts = append(parts, fmt.Sprintf("%s -> %s (%s)",
					c.disp[e.from], c.disp[e.to], c.pass.Fset.Position(c.edges[e])))
			}
		}
		names := make([]string, len(comp))
		for i, k := range comp {
			names[i] = c.disp[k]
		}
		c.pass.Reportf(at, "lock-order cycle (potential deadlock) among %s: %s",
			strings.Join(names, ", "), strings.Join(parts, "; "))
	}
}

func sortedEdges(m map[edge]token.Pos) []edge {
	out := make([]edge, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// mutexOp recognizes m.Lock/RLock (-> "lock"), m.Unlock/RUnlock
// (-> "unlock") on sync.Mutex/sync.RWMutex values and returns the lock's
// class. Other calls return op "".
func (c *checker) mutexOp(call *ast.CallExpr) (lockClass, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, ""
	}
	var op string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return lockClass{}, ""
	}
	// The callee must be a sync method (not any type's Lock()).
	obj := c.pass.TypesInfo.Uses[sel.Sel]
	if sin, ok := c.pass.TypesInfo.Selections[sel]; ok {
		obj = sin.Obj()
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return lockClass{}, ""
	}
	cls, ok := c.classOf(sel.X)
	if !ok {
		return lockClass{}, ""
	}
	return cls, op
}

// classOf maps a mutex-valued receiver expression to its lock class.
func (c *checker) classOf(recv ast.Expr) (lockClass, bool) {
	recv = ast.Unparen(recv)
	switch recv := recv.(type) {
	case *ast.SelectorExpr:
		// x.mu: class = (type of x).field. Promoted fields resolve to the
		// outermost named type, which is the identity that matters for
		// ordering.
		base := c.pass.TypesInfo.Types[recv.X].Type
		if base == nil {
			return lockClass{}, false
		}
		if ptr, ok := base.Underlying().(*types.Pointer); ok {
			base = ptr.Elem()
		}
		if named, ok := types.Unalias(base).(*types.Named); ok && named.Obj().Pkg() != nil {
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + recv.Sel.Name
			return lockClass{key: key, disp: named.Obj().Name() + "." + recv.Sel.Name}, true
		}
		return lockClass{}, false
	case *ast.Ident:
		v := flow.VarOf(c.pass.TypesInfo, recv)
		if v == nil {
			return lockClass{}, false
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			key := v.Pkg().Path() + "." + v.Name()
			return lockClass{key: key, disp: v.Name()}, true
		}
		// A local of a named type that embeds sync.Mutex (t.Lock()):
		// classify by the embedding type, which is the identity that
		// matters across instances.
		base := derefType(v.Type())
		if named, ok := types.Unalias(base).(*types.Named); ok &&
			named.Obj().Pkg() != nil && named.Obj().Pkg().Path() != "sync" {
			key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".Mutex"
			return lockClass{key: key, disp: named.Obj().Name() + ".Mutex"}, true
		}
		// Plain local sync.Mutex: identity per declaration; excluded
		// from the global order graph but tracked for blocking-op
		// findings.
		return lockClass{
			key:  fmt.Sprintf("local:%s@%d", v.Name(), v.Pos()),
			disp: v.Name(),
		}, true
	}
	// Embedded mutex locked through the outer value (t.Lock()): the
	// receiver IS the outer struct; classOf is called with it only when
	// the method resolves to sync, so classify by the outer type.
	base := c.pass.TypesInfo.Types[recv].Type
	if base == nil {
		return lockClass{}, false
	}
	if ptr, ok := base.Underlying().(*types.Pointer); ok {
		base = ptr.Elem()
	}
	if named, ok := types.Unalias(base).(*types.Named); ok && named.Obj().Pkg() != nil {
		key := named.Obj().Pkg().Path() + "." + named.Obj().Name() + ".Mutex"
		return lockClass{key: key, disp: named.Obj().Name() + ".Mutex"}, true
	}
	return lockClass{}, false
}

// blockingCallDesc recognizes known parking calls outside the package:
// sync.WaitGroup.Wait and the exec package's Collect* full-result
// materialization entry points (which drive the whole plan, including
// goroutines that may need the held lock). Collect-prefixed functions in
// other packages (logical.CollectColumns is a pure tree walk) are not
// blocking.
func blockingCallDesc(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	if name == "Wait" {
		if s, ok := info.Selections[sel]; ok {
			if named, ok := types.Unalias(derefType(s.Recv())).(*types.Named); ok {
				if named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" {
					return "sync." + named.Obj().Name() + ".Wait"
				}
			}
		}
		return ""
	}
	if strings.HasPrefix(name, "Collect") {
		obj := info.Uses[sel.Sel]
		if obj != nil && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/exec") {
			return name + " (full result materialization)"
		}
	}
	return ""
}

func derefType(t types.Type) types.Type {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}
