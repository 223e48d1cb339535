// Package fuzzsql is a differential SQL fuzzing harness: seeded random
// queries over seeded random tables, executed on the vectorized engine
// across a configuration matrix and on the TightDB baseline, with results
// compared under testutil's canonical normalization. Failures are shrunk
// to minimal repros (see shrink.go) and emitted as ready-to-paste Go test
// cases.
//
// The package is deliberately structured as data (Query, Expr) rather
// than strings so the shrinker can drop clauses and simplify expressions
// while keeping queries well-formed.
package fuzzsql

import (
	"strconv"
	"strings"
)

// ValType is the fuzzer's value-type universe.
type ValType int

const (
	TInt ValType = iota
	TFloat
	TStr
	TDate
	TBool
)

func (t ValType) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TStr:
		return "str"
	case TDate:
		return "date"
	default:
		return "bool"
	}
}

// Expr is a typed SQL expression node. Nodes are immutable: With builds a
// modified copy, which is what the shrinker's rewrites rely on.
type Expr interface {
	SQL() string
	VType() ValType
	Kids() []Expr
	// With returns a copy of the node with its children replaced; len(kids)
	// must equal len(Kids()).
	With(kids []Expr) Expr
}

// Col references a table column by (unqualified) name. Column names are
// unique across the fuzzer's tables, so no qualification is needed even
// under joins.
type Col struct {
	Name string
	T    ValType
}

func (c *Col) SQL() string        { return c.Name }
func (c *Col) VType() ValType     { return c.T }
func (c *Col) Kids() []Expr       { return nil }
func (c *Col) With(_ []Expr) Expr { return c }

// Lit is a literal of any ValType. For TDate, Str holds "YYYY-MM-DD".
type Lit struct {
	T     ValType
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

func (l *Lit) SQL() string {
	switch l.T {
	case TInt:
		return strconv.FormatInt(l.Int, 10)
	case TFloat:
		s := strconv.FormatFloat(l.Float, 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		return s
	case TStr:
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	case TDate:
		return "DATE '" + l.Str + "'"
	default:
		if l.Bool {
			return "TRUE"
		}
		return "FALSE"
	}
}
func (l *Lit) VType() ValType     { return l.T }
func (l *Lit) Kids() []Expr       { return nil }
func (l *Lit) With(_ []Expr) Expr { return l }

// Bin is a binary operator. Arithmetic ops carry the operand type; the
// comparison and logical ops yield TBool.
type Bin struct {
	Op   string // "+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	L, R Expr
	T    ValType
}

func (b *Bin) SQL() string    { return "(" + b.L.SQL() + " " + b.Op + " " + b.R.SQL() + ")" }
func (b *Bin) VType() ValType { return b.T }
func (b *Bin) Kids() []Expr   { return []Expr{b.L, b.R} }
func (b *Bin) With(kids []Expr) Expr {
	return &Bin{Op: b.Op, L: kids[0], R: kids[1], T: b.T}
}

// Not negates a boolean expression.
type Not struct{ E Expr }

func (n *Not) SQL() string           { return "(NOT " + n.E.SQL() + ")" }
func (n *Not) VType() ValType        { return TBool }
func (n *Not) Kids() []Expr          { return []Expr{n.E} }
func (n *Not) With(kids []Expr) Expr { return &Not{E: kids[0]} }

// Neg is arithmetic negation.
type Neg struct{ E Expr }

func (n *Neg) SQL() string           { return "(- " + n.E.SQL() + ")" }
func (n *Neg) VType() ValType        { return n.E.VType() }
func (n *Neg) Kids() []Expr          { return []Expr{n.E} }
func (n *Neg) With(kids []Expr) Expr { return &Neg{E: kids[0]} }

// IsNull is `expr IS [NOT] NULL`.
type IsNull struct {
	E      Expr
	Negate bool
}

func (i *IsNull) SQL() string {
	if i.Negate {
		return "(" + i.E.SQL() + " IS NOT NULL)"
	}
	return "(" + i.E.SQL() + " IS NULL)"
}
func (i *IsNull) VType() ValType        { return TBool }
func (i *IsNull) Kids() []Expr          { return []Expr{i.E} }
func (i *IsNull) With(kids []Expr) Expr { return &IsNull{E: kids[0], Negate: i.Negate} }

// In is `expr [NOT] IN (items)`. Its items are literals, integer and
// non-integral ones mixed over a numeric expr; the engine probes them as
// one typed set.
type In struct {
	E      Expr
	Items  []Expr
	Negate bool
}

func (in *In) SQL() string {
	items := make([]string, len(in.Items))
	for i, it := range in.Items {
		items[i] = it.SQL()
	}
	op := " IN ("
	if in.Negate {
		op = " NOT IN ("
	}
	return "(" + in.E.SQL() + op + strings.Join(items, ", ") + "))"
}
func (in *In) VType() ValType { return TBool }
func (in *In) Kids() []Expr   { return append([]Expr{in.E}, in.Items...) }
func (in *In) With(kids []Expr) Expr {
	return &In{E: kids[0], Items: append([]Expr(nil), kids[1:]...), Negate: in.Negate}
}

// Case is `CASE WHEN cond THEN a ELSE b END`.
type Case struct {
	Cond, Then, Else Expr
}

func (c *Case) SQL() string {
	return "(CASE WHEN " + c.Cond.SQL() + " THEN " + c.Then.SQL() + " ELSE " + c.Else.SQL() + " END)"
}
func (c *Case) VType() ValType { return c.Then.VType() }
func (c *Case) Kids() []Expr   { return []Expr{c.Cond, c.Then, c.Else} }
func (c *Case) With(kids []Expr) Expr {
	return &Case{Cond: kids[0], Then: kids[1], Else: kids[2]}
}

// Agg is an aggregate call; Star means count(*).
type Agg struct {
	Fn       string // "sum", "min", "max", "avg", "count"
	Arg      Expr   // nil iff Star
	Star     bool
	Distinct bool // count(DISTINCT arg)
}

func (a *Agg) SQL() string {
	switch {
	case a.Star:
		return "count(*)"
	case a.Distinct:
		return a.Fn + "(DISTINCT " + a.Arg.SQL() + ")"
	}
	return a.Fn + "(" + a.Arg.SQL() + ")"
}
func (a *Agg) VType() ValType {
	switch a.Fn {
	case "count":
		return TInt
	case "avg":
		return TFloat
	default: // sum/min/max keep the argument type
		return a.Arg.VType()
	}
}
func (a *Agg) Kids() []Expr {
	if a.Star {
		return nil
	}
	return []Expr{a.Arg}
}
func (a *Agg) With(kids []Expr) Expr {
	if a.Star {
		return a
	}
	return &Agg{Fn: a.Fn, Arg: kids[0], Distinct: a.Distinct}
}

// Win is a window function call: row_number(), rank(), sum(arg) or
// lag(arg) OVER (PARTITION BY <0-2 exprs> ORDER BY <every column of the
// table>). Ordering by every column is a total order up to full-row
// duplicates, and duplicates are interchangeable under the row-multiset
// comparison, so the result does not depend on how an engine breaks ties.
type Win struct {
	Fn          string // "row_number", "rank", "sum", "lag"
	Arg         Expr   // sum/lag argument, nil otherwise
	PartitionBy []Expr
	OrderBy     []Col
	OrderDesc   []bool
}

func (w *Win) SQL() string {
	var sb strings.Builder
	sb.WriteString(w.Fn + "(")
	if w.Arg != nil {
		sb.WriteString(w.Arg.SQL())
	}
	sb.WriteString(") OVER (")
	for i, p := range w.PartitionBy {
		if i == 0 {
			sb.WriteString("PARTITION BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(p.SQL())
	}
	for i, c := range w.OrderBy {
		if i == 0 {
			sb.WriteString(" ORDER BY ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		if w.OrderDesc[i] {
			sb.WriteString(" DESC")
		}
	}
	sb.WriteString(")")
	return sb.String()
}
func (w *Win) VType() ValType {
	if w.Arg != nil {
		return w.Arg.VType()
	}
	return TInt
}

// Kids are the argument (when there is one) and then the partition keys.
func (w *Win) Kids() []Expr {
	if w.Arg == nil {
		return w.PartitionBy
	}
	return append([]Expr{w.Arg}, w.PartitionBy...)
}
func (w *Win) With(kids []Expr) Expr {
	out := *w
	if w.Arg != nil {
		out.Arg, kids = kids[0], kids[1:]
	}
	out.PartitionBy = kids
	return &out
}

// IsAgg reports whether the expression contains an aggregate call.
func IsAgg(e Expr) bool {
	if _, ok := e.(*Agg); ok {
		return true
	}
	for _, k := range e.Kids() {
		if IsAgg(k) {
			return true
		}
	}
	return false
}

// DefaultLit returns the simplest literal of a type (1 rather than 0 for
// numerics so shrinking a divisor never introduces division by zero).
func DefaultLit(t ValType) *Lit {
	switch t {
	case TInt:
		return &Lit{T: TInt, Int: 1}
	case TFloat:
		return &Lit{T: TFloat, Float: 1}
	case TStr:
		return &Lit{T: TStr, Str: "s_0"}
	case TDate:
		return &Lit{T: TDate, Str: "1995-06-15"}
	default:
		return &Lit{T: TBool, Bool: true}
	}
}

// Variants returns single-step simplifications of e: e replaced by a
// same-typed child, e replaced by the default literal, and e with one
// descendant simplified. Used by the shrinker; every variant is
// well-typed by construction.
func Variants(e Expr) []Expr {
	var out []Expr
	for _, k := range e.Kids() {
		if k.VType() == e.VType() {
			out = append(out, k)
		}
	}
	if d := DefaultLit(e.VType()); d.SQL() != e.SQL() {
		out = append(out, d)
	}
	kids := e.Kids()
	for i, k := range kids {
		for _, kv := range Variants(k) {
			nk := make([]Expr, len(kids))
			copy(nk, kids)
			nk[i] = kv
			out = append(out, e.With(nk))
		}
	}
	return out
}
