package catalog

import (
	"fmt"
	"regexp"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/logical"
	"gofusion/internal/parquet"
)

// This file compiles a supported subset of logical filter expressions into
// parquet.Predicate implementations so the GPQ provider can prune row
// groups/pages and filter during scans (paper Section 6.8). Unsupported
// conjuncts simply stay in the Filter operator above the scan.

// atom is one compiled conjunct over a single column.
type atom interface {
	col() int
	eval(a arrow.Array) (*arrow.BoolArray, error)
	keepStats(stats parquet.ColumnStats) bool
	eqProbe() (arrow.Scalar, bool)
}

// cmpAtom is `col <op> literal`.
type cmpAtom struct {
	colIdx int
	op     compute.CmpOp
	lit    arrow.Scalar
}

func (c *cmpAtom) col() int { return c.colIdx }
func (c *cmpAtom) eval(a arrow.Array) (*arrow.BoolArray, error) {
	return compute.CompareScalar(c.op, a, c.lit, nil)
}
func (c *cmpAtom) keepStats(stats parquet.ColumnStats) bool {
	return parquet.StatsKeepCompare(c.op.String(), stats, c.lit)
}
func (c *cmpAtom) eqProbe() (arrow.Scalar, bool) {
	if c.op == compute.Eq {
		return c.lit, true
	}
	return arrow.Scalar{}, false
}

// likeAtom is `col [NOT] LIKE pattern`; it contributes row filtering and,
// for prefix patterns, min/max pruning.
type likeAtom struct {
	colIdx  int
	matcher *compute.LikeMatcher
	prefix  string // non-empty for prefix patterns, enables stats pruning
	negated bool
}

func (l *likeAtom) col() int { return l.colIdx }
func (l *likeAtom) eval(a arrow.Array) (*arrow.BoolArray, error) {
	sa, ok := a.(*arrow.StringArray)
	if !ok {
		return nil, fmt.Errorf("catalog: LIKE over non-string column")
	}
	return l.matcher.Eval(sa), nil
}
func (l *likeAtom) keepStats(stats parquet.ColumnStats) bool {
	if l.negated || l.prefix == "" || !stats.HasMinMax {
		return true
	}
	// Rows matching 'prefix%' lie in [prefix, prefix+0xFF...]; keep the
	// container when its range intersects.
	if stats.Min.Null || stats.Max.Null || stats.Min.Type.ID != arrow.STRING {
		return true
	}
	mx := stats.Max.AsString()
	if mx < l.prefix {
		return false
	}
	upper := l.prefix + "\xff"
	return stats.Min.AsString() <= upper
}
func (l *likeAtom) eqProbe() (arrow.Scalar, bool) { return arrow.Scalar{}, false }

// inAtom is `col IN (literals...)`.
type inAtom struct {
	colIdx int
	set    *compute.InSet
}

func (a *inAtom) col() int { return a.colIdx }
func (a *inAtom) eval(arr arrow.Array) (*arrow.BoolArray, error) {
	return a.set.Eval(arr, nil)
}
func (a *inAtom) keepStats(stats parquet.ColumnStats) bool {
	for _, v := range a.set.Items() {
		if parquet.StatsKeepCompare("=", stats, v) {
			return true
		}
	}
	return false
}
func (a *inAtom) eqProbe() (arrow.Scalar, bool) { return arrow.Scalar{}, false }

// nullAtom is `col IS [NOT] NULL`.
type nullAtom struct {
	colIdx  int
	negated bool // true = IS NOT NULL
}

func (a *nullAtom) col() int { return a.colIdx }
func (a *nullAtom) eval(arr arrow.Array) (*arrow.BoolArray, error) {
	if a.negated {
		return compute.IsNotNullMask(arr), nil
	}
	return compute.IsNullMask(arr), nil
}
func (a *nullAtom) keepStats(stats parquet.ColumnStats) bool {
	if a.negated {
		return stats.NumRows == 0 || stats.NullCount < stats.NumRows
	}
	return stats.NumRows == 0 || stats.NullCount > 0
}
func (a *nullAtom) eqProbe() (arrow.Scalar, bool) { return arrow.Scalar{}, false }

// compiledPredicate is a conjunction of atoms implementing
// parquet.Predicate.
type compiledPredicate struct {
	atoms []atom
	cols  []int
}

func (p *compiledPredicate) Columns() []int { return p.cols }

func (p *compiledPredicate) Evaluate(cols map[int]arrow.Array, numRows int) (*arrow.BoolArray, error) {
	var out *arrow.BoolArray
	for _, a := range p.atoms {
		arr, ok := cols[a.col()]
		if !ok {
			return nil, fmt.Errorf("catalog: predicate column %d missing", a.col())
		}
		m, err := a.eval(arr)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = m
		} else {
			out, err = compute.And(out, m, nil)
			if err != nil {
				return nil, err
			}
		}
	}
	if out == nil {
		return arrow.NewBool(arrow.NewBitmapSet(numRows), nil, numRows), nil
	}
	return out, nil
}

func (p *compiledPredicate) KeepColumnStats(col int, stats parquet.ColumnStats) bool {
	for _, a := range p.atoms {
		if a.col() == col && !a.keepStats(stats) {
			return false
		}
	}
	return true
}

func (p *compiledPredicate) EqProbes() []parquet.EqProbe {
	var out []parquet.EqProbe
	for _, a := range p.atoms {
		if v, ok := a.eqProbe(); ok {
			out = append(out, parquet.EqProbe{Col: a.col(), Value: v})
		}
	}
	return out
}

// literalOf unwraps (possibly casted) literal expressions.
func literalOf(e logical.Expr) (arrow.Scalar, bool) {
	switch x := e.(type) {
	case *logical.Literal:
		return x.Value, true
	case *logical.Cast:
		s, ok := literalOf(x.E)
		if !ok {
			return arrow.Scalar{}, false
		}
		out, err := compute.CastScalar(s, x.To)
		if err != nil {
			return arrow.Scalar{}, false
		}
		return out, true
	case *logical.Alias:
		return literalOf(x.E)
	}
	return arrow.Scalar{}, false
}

// columnIndexOf resolves a column reference to a schema index.
func columnIndexOf(e logical.Expr, schema *arrow.Schema) (int, bool) {
	c, ok := e.(*logical.Column)
	if !ok {
		return 0, false
	}
	i := schema.FieldIndex(c.Name)
	return i, i >= 0
}

// normalizeLiteral coerces a literal to the column's physical type so the
// compare kernel sees matching kinds.
func normalizeLiteral(s arrow.Scalar, colType *arrow.DataType) (arrow.Scalar, bool) {
	if s.Type.Equal(colType) {
		return s, true
	}
	out, err := compute.CastScalar(s, colType)
	if err != nil {
		return arrow.Scalar{}, false
	}
	// Refuse lossy numeric narrowing (e.g. 3.5 -> int) to stay correct.
	if colType.IsInteger() && (s.Type.IsFloat() || s.Type.ID == arrow.DECIMAL) {
		back, err := compute.CastScalar(out, s.Type)
		if err != nil || !back.Equal(s) {
			return arrow.Scalar{}, false
		}
	}
	return out, true
}

var cmpOpOf = map[logical.BinOp]compute.CmpOp{
	logical.OpEq: compute.Eq, logical.OpNeq: compute.Neq,
	logical.OpLt: compute.Lt, logical.OpLtEq: compute.LtEq,
	logical.OpGt: compute.Gt, logical.OpGtEq: compute.GtEq,
}

// compileConjunct compiles one filter conjunct into atoms, returning
// ok=false when the shape is unsupported.
func compileConjunct(e logical.Expr, schema *arrow.Schema) ([]atom, bool) {
	switch x := e.(type) {
	case *logical.BinaryExpr:
		if x.Op == logical.OpAnd {
			l, ok := compileConjunct(x.L, schema)
			if !ok {
				return nil, false
			}
			r, ok := compileConjunct(x.R, schema)
			if !ok {
				return nil, false
			}
			return append(l, r...), true
		}
		op, ok := cmpOpOf[x.Op]
		if !ok {
			return nil, false
		}
		if col, okc := columnIndexOf(x.L, schema); okc {
			if lit, okl := literalOf(x.R); okl && !lit.Null {
				if n, okn := normalizeLiteral(lit, schema.Field(col).Type); okn {
					return []atom{&cmpAtom{colIdx: col, op: op, lit: n}}, true
				}
			}
		}
		if col, okc := columnIndexOf(x.R, schema); okc {
			if lit, okl := literalOf(x.L); okl && !lit.Null {
				if n, okn := normalizeLiteral(lit, schema.Field(col).Type); okn {
					return []atom{&cmpAtom{colIdx: col, op: op.Flip(), lit: n}}, true
				}
			}
		}
		return nil, false
	case *logical.Like:
		col, okc := columnIndexOf(x.E, schema)
		if !okc || schema.Field(col).Type.ID != arrow.STRING || x.CaseInsensitive {
			return nil, false
		}
		lit, okl := literalOf(x.Pattern)
		if !okl || lit.Null {
			return nil, false
		}
		pattern := lit.AsString()
		m, err := compute.CompileLike(pattern, x.Negated)
		if err != nil {
			return nil, false
		}
		prefix := likePrefix(pattern)
		return []atom{&likeAtom{colIdx: col, matcher: m, prefix: prefix, negated: x.Negated}}, true
	case *logical.InList:
		if x.Negated {
			return nil, false
		}
		col, okc := columnIndexOf(x.E, schema)
		if !okc {
			return nil, false
		}
		vals := make([]arrow.Scalar, 0, len(x.List))
		for _, item := range x.List {
			lit, okl := literalOf(item)
			if !okl || lit.Null {
				return nil, false
			}
			vals = append(vals, lit)
		}
		set, oks := compute.NewInSet(schema.Field(col).Type, vals, false)
		if !oks {
			return nil, false
		}
		return []atom{&inAtom{colIdx: col, set: set}}, true
	case *logical.Between:
		if x.Negated {
			return nil, false
		}
		col, okc := columnIndexOf(x.E, schema)
		if !okc {
			return nil, false
		}
		lo, okl := literalOf(x.Low)
		hi, okh := literalOf(x.High)
		if !okl || !okh || lo.Null || hi.Null {
			return nil, false
		}
		nlo, ok1 := normalizeLiteral(lo, schema.Field(col).Type)
		nhi, ok2 := normalizeLiteral(hi, schema.Field(col).Type)
		if !ok1 || !ok2 {
			return nil, false
		}
		return []atom{
			&cmpAtom{colIdx: col, op: compute.GtEq, lit: nlo},
			&cmpAtom{colIdx: col, op: compute.LtEq, lit: nhi},
		}, true
	case *logical.IsNull:
		col, okc := columnIndexOf(x.E, schema)
		if !okc {
			return nil, false
		}
		return []atom{&nullAtom{colIdx: col, negated: x.Negated}}, true
	}
	return nil, false
}

var likePrefixRe = regexp.MustCompile(`^([^%_\\]+)%$`)

// likePrefix returns the literal prefix of 'prefix%'-shaped patterns.
func likePrefix(pattern string) string {
	m := likePrefixRe.FindStringSubmatch(pattern)
	if m == nil {
		return ""
	}
	return m[1]
}

// CompileFilters compiles pushable filter conjuncts into a
// parquet.Predicate, reporting per-filter exactness.
func CompileFilters(filters []logical.Expr, schema *arrow.Schema) (parquet.Predicate, []bool) {
	exact := make([]bool, len(filters))
	var atoms []atom
	for i, f := range filters {
		if as, ok := compileConjunct(f, schema); ok {
			atoms = append(atoms, as...)
			exact[i] = true
		}
	}
	if len(atoms) == 0 {
		return nil, exact
	}
	colSet := map[int]bool{}
	var cols []int
	for _, a := range atoms {
		if !colSet[a.col()] {
			colSet[a.col()] = true
			cols = append(cols, a.col())
		}
	}
	return &compiledPredicate{atoms: atoms, cols: cols}, exact
}
