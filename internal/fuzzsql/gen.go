package fuzzsql

import (
	"math/rand"
)

// Gen is the seeded random query generator. Queries are biased toward the
// engine features most recently rewritten (multi-column group keys, join
// probes, range predicates that exercise row-group pruning) and obey the
// determinism rules that make differential comparison sound:
//
//   - division only by non-zero literals (no data-dependent errors);
//   - LIMIT only together with an ORDER BY over every output ordinal, so
//     the kept prefix is unique up to full-row duplicates;
//   - no volatile or session-dependent functions.
type Gen struct {
	rng *rand.Rand
	ds  *Dataset
	// Pinned keeps the query stream free of the shapes added since the
	// server load pool was defined — windows, count(DISTINCT), LIMIT 0 —
	// and draws nothing for them, so the stream is the one generated before
	// they existed. The server load pool sets it: the repository benchmark's
	// server workloads are defined over that pool, and a pool that moved
	// with the generator would make their numbers incomparable across
	// commits.
	Pinned bool
}

// NewGen creates a generator over the dataset's schema.
func NewGen(seed int64, ds *Dataset) *Gen {
	return &Gen{rng: rand.New(rand.NewSource(seed)), ds: ds}
}

// pct rolls an n% chance.
func (g *Gen) pct(n int) bool { return g.rng.Intn(100) < n }

// scope returns the columns visible to the query being generated.
func (g *Gen) scope(join bool) []Column {
	cols := append([]Column(nil), g.ds.Tables[0].Cols...)
	if join {
		cols = append(cols, g.ds.Tables[1].Cols...)
	}
	return cols
}

// colsOf filters a scope by type.
func colsOf(scope []Column, t ValType) []Column {
	var out []Column
	for _, c := range scope {
		if c.T == t {
			out = append(out, c)
		}
	}
	return out
}

// Query generates one random query.
func (g *Gen) Query() *Query {
	q := &Query{From: g.ds.Tables[0].Name, Limit: -1}
	window := !g.Pinned && g.pct(15)
	// Window queries stay on one table: a join's fan-out would repeat rows
	// and the window's ORDER BY would no longer be total.
	join := !window && g.pct(40)
	if join {
		q.Join = g.genJoin()
	}
	scope := g.scope(join)
	switch {
	case window:
		g.genWindow(q, scope)
	case g.pct(55):
		g.genGrouped(q, scope)
	default:
		g.genScalar(q, scope)
	}
	if g.pct(65) {
		q.Where = g.genExpr(scope, TBool, 2)
	}
	if g.pct(70) {
		q.Order = true
		q.OrderDesc = make([]bool, q.numOutputs())
		for i := range q.OrderDesc {
			q.OrderDesc[i] = g.pct(50)
		}
		if g.pct(45) {
			// LIMIT 0 is drawn too, except by the pinned stream, which keeps
			// the draw it had when the server load pool was defined.
			if g.Pinned {
				q.Limit = int64(1 + g.rng.Intn(20))
			} else {
				q.Limit = int64(g.rng.Intn(21))
			}
		}
	}
	return q
}

// genJoin builds the join clause: an equi-join on the int key columns,
// sometimes with an extra pushed-down conjunct. Outside the pinned stream
// a comparison of an int column with the key may join beside the equality
// or instead of it (a residual filter, or a nested-loop join), and an
// inner join may be written as CROSS JOIN … WHERE.
func (g *Gen) genJoin() *Join {
	on := Expr(&Bin{Op: "=", L: &Col{Name: "a", T: TInt}, R: &Col{Name: "x", T: TInt}, T: TBool})
	if !g.Pinned && g.pct(35) {
		ints := colsOf(g.scope(false), TInt)
		c := ints[g.rng.Intn(len(ints))]
		cmp := &Bin{Op: []string{"<", "<=", ">", ">=", "<>"}[g.rng.Intn(5)],
			L: &Col{Name: c.Name, T: TInt}, R: &Col{Name: "x", T: TInt}, T: TBool}
		if g.pct(50) {
			on = cmp
		} else {
			on = &Bin{Op: "AND", L: on, R: cmp, T: TBool}
		}
	}
	if g.pct(30) {
		extra := g.genExpr(g.scope(true), TBool, 1)
		on = &Bin{Op: "AND", L: on, R: extra, T: TBool}
	}
	j := &Join{Left: g.pct(40), Table: g.ds.Tables[1].Name, On: on}
	j.Cross = !g.Pinned && !j.Left && g.pct(25)
	return j
}

// genScalar fills a plain (non-aggregating) select list.
func (g *Gen) genScalar(q *Query, scope []Column) {
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		t := []ValType{TInt, TInt, TFloat, TStr, TDate, TBool}[g.rng.Intn(6)]
		q.Items = append(q.Items, g.genExpr(scope, t, 2))
	}
	q.Distinct = g.pct(15)
}

// genWindow fills a plain select list and appends one window function:
// row_number / rank / sum / lag over 0-2 partition keys, ordered by every
// column of the table in a random permutation and direction. A row_number
// is wrapped in the `WHERE rn <= k` subquery form half of the time, the
// shape the engine's per-partition top-k rewrite looks for.
func (g *Gen) genWindow(q *Query, scope []Column) {
	g.genScalar(q, scope)
	q.Distinct = false
	w := &Win{Fn: []string{"row_number", "rank", "sum", "lag"}[g.rng.Intn(4)]}
	if w.Fn == "sum" || w.Fn == "lag" {
		c := colsOf(scope, TInt)[g.rng.Intn(len(colsOf(scope, TInt)))]
		w.Arg = &Col{Name: c.Name, T: c.T}
	}
	for i := g.rng.Intn(3); i > 0; i-- {
		w.PartitionBy = append(w.PartitionBy, g.genGroupKey(scope))
	}
	for _, i := range g.rng.Perm(len(scope)) {
		w.OrderBy = append(w.OrderBy, Col{Name: scope[i].Name, T: scope[i].T})
		w.OrderDesc = append(w.OrderDesc, g.pct(50))
	}
	q.Items = append(q.Items, w)
	if w.Fn == "row_number" && g.pct(50) {
		q.TopK, q.K = true, int64(g.rng.Intn(4))
	}
}

// genGrouped fills GROUP BY keys, aggregate items, and HAVING.
func (g *Gen) genGrouped(q *Query, scope []Column) {
	nKeys := g.rng.Intn(3) // 0 = global aggregate
	for i := 0; i < nKeys; i++ {
		q.GroupBy = append(q.GroupBy, g.genGroupKey(scope))
	}
	q.Items = append([]Expr(nil), q.GroupBy...)
	if !g.Pinned && g.pct(15) {
		// A lone count(DISTINCT) plans as a nested group-by; beside other
		// aggregates (genAgg) it runs the count_distinct accumulator.
		q.Items = append(q.Items, g.genCountDistinct(scope))
	} else {
		nAggs := 1 + g.rng.Intn(3)
		for i := 0; i < nAggs; i++ {
			q.Items = append(q.Items, g.genAgg(scope))
		}
	}
	if g.pct(40) {
		agg := g.genAgg(scope)
		lit := DefaultLit(agg.VType())
		if agg.VType() == TInt {
			lit = &Lit{T: TInt, Int: int64(g.rng.Intn(40) - 10)}
		}
		op := []string{"<", "<=", ">", ">=", "<>"}[g.rng.Intn(5)]
		q.Having = &Bin{Op: op, L: agg, R: lit, T: TBool}
	}
}

// genGroupKey picks a column or a small derived expression (CASE buckets,
// arithmetic bucketing) so multi-column and expression group keys both
// appear.
func (g *Gen) genGroupKey(scope []Column) Expr {
	c := scope[g.rng.Intn(len(scope))]
	col := &Col{Name: c.Name, T: c.T}
	switch {
	case g.pct(55):
		return col
	case c.T == TInt:
		return &Bin{Op: "/", L: col, R: &Lit{T: TInt, Int: int64(2 + g.rng.Intn(6))}, T: TInt}
	default:
		return &Case{
			Cond: g.genExpr(scope, TBool, 1),
			Then: DefaultLit(c.T),
			Else: col,
		}
	}
}

func (g *Gen) genCountDistinct(scope []Column) Expr {
	c := scope[g.rng.Intn(len(scope))]
	return &Agg{Fn: "count", Arg: &Col{Name: c.Name, T: c.T}, Distinct: true}
}

// genAgg builds one aggregate expression.
func (g *Gen) genAgg(scope []Column) Expr {
	kinds := 7
	if g.Pinned {
		kinds = 6 // no count(DISTINCT)
	}
	switch g.rng.Intn(kinds) {
	case 0:
		return &Agg{Fn: "count", Star: true}
	case 1:
		c := scope[g.rng.Intn(len(scope))]
		return &Agg{Fn: "count", Arg: &Col{Name: c.Name, T: c.T}}
	case 2:
		t := []ValType{TInt, TFloat}[g.rng.Intn(2)]
		return &Agg{Fn: "avg", Arg: g.genExpr(scope, t, 1)}
	case 3:
		t := []ValType{TInt, TFloat}[g.rng.Intn(2)]
		return &Agg{Fn: "sum", Arg: g.genExpr(scope, t, 1)}
	case 6:
		return g.genCountDistinct(scope)
	default:
		fn := []string{"min", "max"}[g.rng.Intn(2)]
		t := []ValType{TInt, TFloat, TStr, TDate}[g.rng.Intn(4)]
		return &Agg{Fn: fn, Arg: g.genExpr(scope, t, 1)}
	}
}

// genExpr builds a random expression of the requested type with bounded
// depth.
func (g *Gen) genExpr(scope []Column, t ValType, depth int) Expr {
	if depth <= 0 {
		return g.genLeaf(scope, t)
	}
	switch t {
	case TInt, TFloat:
		switch g.rng.Intn(5) {
		case 0:
			return g.genLeaf(scope, t)
		case 1:
			op := []string{"+", "-", "*"}[g.rng.Intn(3)]
			return &Bin{Op: op, L: g.genExpr(scope, t, depth-1), R: g.genExpr(scope, t, depth-1), T: t}
		case 2:
			// Division by a non-zero literal only: data-dependent division
			// errors would make both-sides-agree comparisons vacuous.
			return &Bin{Op: "/", L: g.genExpr(scope, t, depth-1), R: g.nonZeroLit(t), T: t}
		case 3:
			return &Neg{E: g.genExpr(scope, t, depth-1)}
		default:
			return &Case{
				Cond: g.genExpr(scope, TBool, depth-1),
				Then: g.genExpr(scope, t, depth-1),
				Else: g.genExpr(scope, t, depth-1),
			}
		}
	case TStr, TDate:
		if g.pct(30) {
			return &Case{
				Cond: g.genExpr(scope, TBool, depth-1),
				Then: g.genLeaf(scope, t),
				Else: g.genLeaf(scope, t),
			}
		}
		return g.genLeaf(scope, t)
	default: // TBool
		// The pinned stream draws nothing for IN lists (see Gen.Pinned).
		if !g.Pinned && g.pct(10) {
			return g.genIn(scope, depth)
		}
		switch g.rng.Intn(6) {
		case 0:
			op := []string{"AND", "OR"}[g.rng.Intn(2)]
			return &Bin{Op: op, L: g.genExpr(scope, TBool, depth-1), R: g.genExpr(scope, TBool, depth-1), T: TBool}
		case 1:
			return &Not{E: g.genExpr(scope, TBool, depth-1)}
		case 2:
			c := scope[g.rng.Intn(len(scope))]
			return &IsNull{E: &Col{Name: c.Name, T: c.T}, Negate: g.pct(50)}
		default:
			ct := []ValType{TInt, TInt, TFloat, TStr, TDate}[g.rng.Intn(5)]
			op := []string{"=", "<>", "<", "<=", ">", ">="}[g.rng.Intn(6)]
			return &Bin{Op: op, L: g.genExpr(scope, ct, depth-1), R: g.genLeaf(scope, ct), T: TBool}
		}
	}
}

// genIn builds `e [NOT] IN (literals)`. Over a numeric e the list mixes
// integer literals with non-integral and integral float ones, so the set
// holds items no value of e's type can equal.
func (g *Gen) genIn(scope []Column, depth int) Expr {
	ct := []ValType{TInt, TInt, TFloat, TStr, TDate}[g.rng.Intn(5)]
	in := &In{E: g.genExpr(scope, ct, depth-1), Negate: g.pct(30)}
	for n := 1 + g.rng.Intn(5); n > 0; n-- {
		switch {
		case ct != TInt && ct != TFloat:
			in.Items = append(in.Items, g.genLit(ct))
		case g.pct(50):
			in.Items = append(in.Items, g.genLit(TInt))
		case g.pct(50):
			in.Items = append(in.Items, g.genLit(TFloat))
		default:
			in.Items = append(in.Items, &Lit{T: TFloat, Float: float64(g.rng.Intn(2*keyDomain+1) - keyDomain)})
		}
	}
	return in
}

// genLeaf returns a column of the type when one exists (70%), else a
// literal.
func (g *Gen) genLeaf(scope []Column, t ValType) Expr {
	cols := colsOf(scope, t)
	if len(cols) > 0 && g.pct(70) {
		c := cols[g.rng.Intn(len(cols))]
		return &Col{Name: c.Name, T: c.T}
	}
	return g.genLit(t)
}

func (g *Gen) genLit(t ValType) Expr {
	switch t {
	case TInt:
		return &Lit{T: TInt, Int: int64(g.rng.Intn(2*keyDomain+1) - keyDomain)}
	case TFloat:
		return &Lit{T: TFloat, Float: float64(g.rng.Intn(200)-100) + 0.5}
	case TStr:
		return &Lit{T: TStr, Str: "s_" + string(rune('0'+g.rng.Intn(10)))}
	case TDate:
		return &Lit{T: TDate, Str: dateString(epochDay + g.rng.Intn(dateRange))}
	default:
		return &Lit{T: TBool, Bool: g.pct(50)}
	}
}

func (g *Gen) nonZeroLit(t ValType) Expr {
	if t == TInt {
		v := int64(1 + g.rng.Intn(9))
		if g.pct(30) {
			v = -v
		}
		return &Lit{T: TInt, Int: v}
	}
	v := float64(1+g.rng.Intn(9)) + 0.5
	if g.pct(30) {
		v = -v
	}
	return &Lit{T: TFloat, Float: v}
}
