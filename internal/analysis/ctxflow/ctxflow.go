// Package ctxflow checks that cancellation contexts actually thread
// into the operations they are supposed to bound:
//
//   - A function that takes a context (context.Context or
//     *physical.ExecContext) must not mint a fresh root with
//     context.Background()/context.TODO() — that silently detaches the
//     work from the caller's cancellation. The engine's nil-default
//     idiom `if ctx == nil { ctx = context.Background() }` (assigning
//     the root to the context parameter itself) stays legal.
//   - HTTP handlers (w http.ResponseWriter, r *http.Request) must
//     derive from the request context instead of Background/TODO, so a
//     disconnecting client cancels the query.
//   - A blocking channel operation in a context-bearing function must
//     observe the context: selects need a case on the ctx (Done()), and
//     bare sends/receives are flagged. Selects with a default clause
//     cannot park and are exempt.
//   - Calling a same-package function that blocks without observing any
//     context, from a function that has one, is flagged at the call
//     site: the context should be plumbed through. The callee summaries
//     propagate bottom-up over the call graph, so the blocking may be
//     buried several calls deep.
package ctxflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"gofusion/internal/analysis"
	"gofusion/internal/analysis/flow"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "check that contexts thread into blocking operations\n\n" +
		"flags context.Background()/TODO() in functions that already have a\n" +
		"context (or in HTTP handlers, which must derive from r.Context()),\n" +
		"blocking channel operations that ignore the function's context,\n" +
		"and calls into context-less helpers that block, using bottom-up\n" +
		"function summaries.",
	Run: run,
}

const physicalPkg = "gofusion/internal/physical"

// summary records whether a function may park on a channel operation
// that no context bounds, for propagation to callers.
type summary struct {
	// blockingUnguarded: a channel op with no ctx case is reachable in
	// this function or (transitively) in context-less callees. desc
	// names the operation for diagnostics.
	blockingUnguarded bool
	desc              string
	// takesCtx: the function accepts a context and is therefore itself
	// the remediation point for its blocking ops (already diagnosed
	// there; callers that pass their ctx have done their part).
	takesCtx bool
}

func (s *summary) equal(o *summary) bool {
	return o != nil && s.blockingUnguarded == o.blockingUnguarded && s.takesCtx == o.takesCtx
}

type checker struct {
	pass      *analysis.Pass
	pkg       *flow.Pkg
	summaries map[*types.Func]*summary
	findings  map[string]findRec
}

type findRec struct {
	pos token.Pos
	msg string
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:      pass,
		pkg:       flow.NewPkg(pass),
		summaries: map[*types.Func]*summary{},
		findings:  map[string]findRec{},
	}
	c.pkg.BottomUp(func(fi *flow.FuncInfo) bool {
		s := c.analyze(fi)
		prev := c.summaries[fi.Obj]
		c.summaries[fi.Obj] = s
		return !s.equal(prev)
	})
	out := make([]findRec, 0, len(c.findings))
	for _, fr := range c.findings {
		out = append(out, fr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		return out[i].msg < out[j].msg
	})
	for _, fr := range out {
		c.pass.Reportf(fr.pos, "%s", fr.msg)
	}
	return nil
}

func (c *checker) analyze(fi *flow.FuncInfo) *summary {
	ctxVars := c.ctxParams(fi.Decl)
	isHandler := isHTTPHandler(c.pass.TypesInfo, fi.Decl)
	s := &summary{takesCtx: len(ctxVars) > 0}

	var desc string
	blocking := false
	note := func(d string) {
		if !blocking {
			blocking, desc = true, d
		}
	}

	noNote := func(string) {}

	// Goroutine bodies run on their own schedule (their blocking is the
	// pump/drain protocol's business, not the spawner's), and
	// other function literals (cleanup closures, release funcs, stream
	// callbacks) run at times this function doesn't control — neither
	// contributes blocking to THIS function's summary, and their bodies
	// are checked as anonymous context-less functions (so a release
	// closure's bare receive is not blamed on the enclosing ctx).
	noVars := map[*types.Var]bool{}
	var walk func(n ast.Node, noteFn func(string), vars map[*types.Var]bool)
	walk = func(n ast.Node, noteFn func(string), vars map[*types.Var]bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.GoStmt:
				for _, arg := range m.Call.Args {
					walk(arg, noNote, noVars)
				}
				return false
			case *ast.FuncLit:
				walk(m.Body, noNote, noVars)
				return false
			case *ast.CallExpr:
				c.checkCall(m, vars, isHandler, noteFn)
			case *ast.SendStmt:
				if !insideSelect(fi.Decl, m) {
					noteFn("channel send")
					c.flagBlocking(m.Pos(), "channel send", vars)
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW && !insideSelect(fi.Decl, m) {
					noteFn("channel receive")
					c.flagBlocking(m.Pos(), "channel receive", vars)
				}
			case *ast.SelectStmt:
				c.checkSelect(m, vars, noteFn)
			case *ast.RangeStmt:
				if t, ok := c.pass.TypesInfo.Types[m.X]; ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						noteFn("channel receive")
						c.flagBlocking(m.X.Pos(), "channel range", vars)
					}
				}
			}
			return true
		})
	}
	walk(fi.Decl.Body, note, ctxVars)

	s.blockingUnguarded = blocking
	s.desc = desc
	return s
}

// checkCall handles Background/TODO roots and calls into context-less
// blocking helpers.
func (c *checker) checkCall(call *ast.CallExpr, ctxVars map[*types.Var]bool, isHandler bool, note func(string)) {
	if name, ok := contextRoot(c.pass.TypesInfo, call); ok {
		switch {
		case isHandler:
			c.addFinding(call.Pos(), fmt.Sprintf(
				"handler uses context.%s(); derive from the request context (r.Context()) so client disconnects cancel the work", name))
		case len(ctxVars) > 0 && !c.isNilDefault(call, ctxVars):
			c.addFinding(call.Pos(), fmt.Sprintf(
				"context.%s() detaches this work from the caller's cancellation; thread the function's ctx instead", name))
		}
		return
	}
	callee := c.pkg.Callee(call)
	if callee == nil {
		return
	}
	cs := c.summaries[callee]
	if cs == nil || !cs.blockingUnguarded {
		return
	}
	if cs.takesCtx {
		return // the callee is its own remediation point
	}
	note(cs.desc)
	if len(ctxVars) > 0 {
		c.addFinding(call.Pos(), fmt.Sprintf(
			"%s blocks on a %s but takes no context; plumb this function's ctx through so cancellation reaches it",
			callee.Name(), cs.desc))
	}
}

// checkSelect flags parking selects that have no case observing a
// context. Two forms of comm clause count as observing: any
// context-typed expression (`case <-ctx.Ctx.Done():`,
// `case <-s.ctx.Done():`), and a receive from a chan struct{} — the
// close-to-cancel convention used for stored Done() channels
// (`ctxDone := ctxDoneChan(ctx); ... case <-ctxDone:`) and peer
// cancellation signals like the repartition abandoned channels.
func (c *checker) checkSelect(sel *ast.SelectStmt, ctxVars map[*types.Var]bool, note func(string)) {
	hasDefault := false
	observes := false
	for _, cl := range sel.Body.List {
		comm, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if comm.Comm == nil {
			hasDefault = true
			continue
		}
		if mentionsContext(c.pass.TypesInfo, comm.Comm) ||
			signalChanReceive(c.pass.TypesInfo, comm.Comm) {
			observes = true
		}
	}
	if hasDefault || observes {
		return // cannot park, or parks under a context's control
	}
	note("select")
	if len(ctxVars) > 0 {
		c.addFinding(sel.Pos(), "select can park without observing ctx; add a case on the context's Done() channel")
	}
}

// mentionsContext reports whether n contains any context-typed
// expression.
func mentionsContext(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if e, ok := m.(ast.Expr); ok {
			if t, ok := info.Types[e]; ok && t.Type != nil && isContextType(t.Type) {
				found = true
			}
		}
		return !found
	})
	return found
}

// flagBlocking reports a bare blocking op when a context is in scope.
func (c *checker) flagBlocking(pos token.Pos, what string, ctxVars map[*types.Var]bool) {
	if len(ctxVars) == 0 {
		return
	}
	c.addFinding(pos, fmt.Sprintf(
		"%s ignores ctx and can block forever; use a select with a case on the context's Done() channel", what))
}

// isNilDefault recognizes `ctx = context.Background()` where ctx is one
// of the function's context parameters — the nil-default idiom.
func (c *checker) isNilDefault(call *ast.CallExpr, ctxVars map[*types.Var]bool) bool {
	path := c.enclosing(call)
	for _, n := range path {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for i, rhs := range as.Rhs {
				if ast.Unparen(rhs) == call && i < len(as.Lhs) {
					if v := flow.VarOf(c.pass.TypesInfo, as.Lhs[i]); v != nil && ctxVars[v] {
						return true
					}
				}
			}
		}
	}
	return false
}

// enclosing returns the node path from the file root down to n.
func (c *checker) enclosing(target ast.Node) []ast.Node {
	var path, found []ast.Node
	for _, f := range c.pass.Files {
		if f.Pos() > target.Pos() || f.End() < target.End() {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				path = path[:len(path)-1]
				return true
			}
			if found != nil {
				return false
			}
			path = append(path, n)
			if n == target {
				found = append([]ast.Node(nil), path...)
				return false
			}
			return n.Pos() <= target.Pos() && target.End() <= n.End()
		})
		if found != nil {
			break
		}
	}
	return found
}

// ctxParams collects the function's context-bearing parameters:
// context.Context and *physical.ExecContext (whose Ctx field carries
// the query's context).
func (c *checker) ctxParams(fn *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	if fn.Type.Params == nil {
		return out
	}
	for _, field := range fn.Type.Params.List {
		for _, name := range field.Names {
			v, ok := c.pass.TypesInfo.Defs[name].(*types.Var)
			if !ok || v == nil {
				continue
			}
			if isContextType(v.Type()) || isExecContextType(v.Type()) {
				out[v] = true
			}
		}
	}
	return out
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

func isExecContextType(t types.Type) bool {
	ptr, ok := types.Unalias(t).Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == physicalPkg && named.Obj().Name() == "ExecContext"
}

// isHTTPHandler reports the (http.ResponseWriter, *http.Request) shape.
func isHTTPHandler(info *types.Info, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil || len(fn.Type.Params.List) != 2 {
		return false
	}
	typeOf := func(f *ast.Field) types.Type {
		if t, ok := info.Types[f.Type]; ok {
			return t.Type
		}
		return nil
	}
	w := typeOf(fn.Type.Params.List[0])
	r := typeOf(fn.Type.Params.List[1])
	if w == nil || r == nil {
		return false
	}
	wNamed, ok := types.Unalias(w).(*types.Named)
	if !ok || wNamed.Obj().Pkg() == nil || wNamed.Obj().Pkg().Path() != "net/http" || wNamed.Obj().Name() != "ResponseWriter" {
		return false
	}
	rPtr, ok := types.Unalias(r).Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	rNamed, ok := types.Unalias(rPtr.Elem()).(*types.Named)
	return ok && rNamed.Obj().Pkg() != nil &&
		rNamed.Obj().Pkg().Path() == "net/http" && rNamed.Obj().Name() == "Request"
}

// contextRoot recognizes context.Background() / context.TODO().
func contextRoot(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	if obj.Name() == "Background" || obj.Name() == "TODO" {
		return obj.Name(), true
	}
	return "", false
}

// signalChanReceive reports whether the comm statement receives from a
// chan struct{} — the close-to-cancel convention. Stored Done()
// channels are plain `<-chan struct{}` values, so no context-typed
// expression appears syntactically in the clause.
func signalChanReceive(info *types.Info, comm ast.Stmt) bool {
	var recv *ast.UnaryExpr
	switch s := comm.(type) {
	case *ast.ExprStmt:
		recv, _ = ast.Unparen(s.X).(*ast.UnaryExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			recv, _ = ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr)
		}
	}
	if recv == nil || recv.Op != token.ARROW {
		return false
	}
	t, ok := info.Types[recv.X]
	if !ok || t.Type == nil {
		return false
	}
	ch, ok := t.Type.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// insideSelect reports whether n sits in a CommClause's comm statement
// of some select in fn (those are handled by checkSelect).
func insideSelect(fn *ast.FuncDecl, n ast.Node) bool {
	inside := false
	ast.Inspect(fn.Body, func(m ast.Node) bool {
		sel, ok := m.(*ast.SelectStmt)
		if !ok {
			return !inside
		}
		for _, cl := range sel.Body.List {
			if comm, ok := cl.(*ast.CommClause); ok && comm.Comm != nil {
				if comm.Comm.Pos() <= n.Pos() && n.End() <= comm.Comm.End() {
					inside = true
				}
			}
		}
		return !inside
	})
	return inside
}

func (c *checker) addFinding(pos token.Pos, msg string) {
	key := fmt.Sprintf("%d:%s", pos, msg)
	if _, ok := c.findings[key]; ok {
		return
	}
	c.findings[key] = findRec{pos: pos, msg: msg}
}
