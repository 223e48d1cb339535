package logical

import (
	"fmt"
	"strings"

	"gofusion/internal/arrow"
)

// TableSource is the minimal view of a table the logical layer needs; the
// catalog's TableProvider satisfies it, and the physical planner downcasts
// to obtain scan capabilities.
type TableSource interface {
	Schema() *arrow.Schema
}

// Plan is a logical relational operator tree node.
type Plan interface {
	// Schema returns the node's output schema.
	Schema() *Schema
	// Children returns input plans.
	Children() []Plan
	// WithChildren rebuilds the node with new inputs.
	WithChildren(children []Plan) Plan
	// String renders a one-line description for EXPLAIN output.
	String() string
}

// TableScan reads a table, with pushed-down projection, filters and limit.
type TableScan struct {
	Name   string
	Source TableSource
	// Projection holds source-schema column indexes, or nil for all.
	Projection []int
	// Filters are conjuncts pushed into the scan (source may apply them
	// partially; the optimizer keeps a Filter above unless exact).
	Filters []Expr
	// Fetch is a pushed-down limit when > 0; anything else means none,
	// as a scan limit does in the scan API (Sort and Limit use -1, since
	// 0 rows is a valid LIMIT there).
	Fetch  int64
	schema *Schema
}

// NewTableScan creates a scan of the full table.
func NewTableScan(name string, source TableSource) *TableScan {
	return &TableScan{Name: name, Source: source,
		schema: FromArrow(name, source.Schema())}
}

// WithProjection returns a copy scanning only the given column indexes.
func (t *TableScan) WithProjection(indices []int) *TableScan {
	out := *t
	out.Projection = indices
	full := t.Source.Schema()
	fields := make([]QField, len(indices))
	for i, idx := range indices {
		f := full.Field(idx)
		fields[i] = QField{Qualifier: t.Name, Name: f.Name, Type: f.Type, Nullable: f.Nullable}
	}
	out.schema = NewSchema(fields...)
	return &out
}

func (t *TableScan) Schema() *Schema            { return t.schema }
func (t *TableScan) Children() []Plan           { return nil }
func (t *TableScan) WithChildren(_ []Plan) Plan { return t }
func (t *TableScan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TableScan: %s", t.Name)
	if t.Projection != nil {
		fmt.Fprintf(&sb, " projection=%v", t.Projection)
	}
	if len(t.Filters) > 0 {
		parts := make([]string, len(t.Filters))
		for i, f := range t.Filters {
			parts[i] = f.String()
		}
		fmt.Fprintf(&sb, " filters=[%s]", strings.Join(parts, ", "))
	}
	if t.Fetch > 0 {
		fmt.Fprintf(&sb, " fetch=%d", t.Fetch)
	}
	return sb.String()
}

// Projection computes output expressions over its input.
type Projection struct {
	Input  Plan
	Exprs  []Expr
	schema *Schema
}

// NewProjection derives the projection's schema from its expressions.
func NewProjection(input Plan, exprs []Expr, reg Registry) (*Projection, error) {
	fields := make([]QField, len(exprs))
	for i, e := range exprs {
		f, err := FieldOf(e, input.Schema(), reg)
		if err != nil {
			return nil, err
		}
		fields[i] = f
	}
	return &Projection{Input: input, Exprs: exprs, schema: NewSchema(fields...)}, nil
}

func (p *Projection) Schema() *Schema  { return p.schema }
func (p *Projection) Children() []Plan { return []Plan{p.Input} }
func (p *Projection) WithChildren(ch []Plan) Plan {
	out := *p
	out.Input = ch[0]
	return &out
}
func (p *Projection) String() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Projection: " + strings.Join(parts, ", ")
}

// Filter keeps rows satisfying a boolean predicate.
type Filter struct {
	Input     Plan
	Predicate Expr
}

func (f *Filter) Schema() *Schema  { return f.Input.Schema() }
func (f *Filter) Children() []Plan { return []Plan{f.Input} }
func (f *Filter) WithChildren(ch []Plan) Plan {
	out := *f
	out.Input = ch[0]
	return &out
}
func (f *Filter) String() string { return "Filter: " + f.Predicate.String() }

// Aggregate groups rows and computes aggregate expressions.
type Aggregate struct {
	Input      Plan
	GroupExprs []Expr
	AggExprs   []Expr // each contains exactly one AggFunc at its root or under an alias
	schema     *Schema
}

// NewAggregate derives the aggregate's schema: group fields then aggregate
// fields.
func NewAggregate(input Plan, groups, aggs []Expr, reg Registry) (*Aggregate, error) {
	fields := make([]QField, 0, len(groups)+len(aggs))
	for _, g := range groups {
		f, err := FieldOf(g, input.Schema(), reg)
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	for _, a := range aggs {
		f, err := FieldOf(a, input.Schema(), reg)
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	return &Aggregate{Input: input, GroupExprs: groups, AggExprs: aggs, schema: NewSchema(fields...)}, nil
}

func (a *Aggregate) Schema() *Schema  { return a.schema }
func (a *Aggregate) Children() []Plan { return []Plan{a.Input} }
func (a *Aggregate) WithChildren(ch []Plan) Plan {
	out := *a
	out.Input = ch[0]
	return &out
}
func (a *Aggregate) String() string {
	gs := make([]string, len(a.GroupExprs))
	for i, g := range a.GroupExprs {
		gs[i] = g.String()
	}
	as := make([]string, len(a.AggExprs))
	for i, x := range a.AggExprs {
		as[i] = x.String()
	}
	return fmt.Sprintf("Aggregate: groupBy=[%s], aggr=[%s]", strings.Join(gs, ", "), strings.Join(as, ", "))
}

// Sort orders rows by sort keys; Fetch >= 0 turns it into a Top-K sort.
type Sort struct {
	Input Plan
	Keys  []SortExpr
	Fetch int64 // -1 = no limit
}

func (s *Sort) Schema() *Schema  { return s.Input.Schema() }
func (s *Sort) Children() []Plan { return []Plan{s.Input} }
func (s *Sort) WithChildren(ch []Plan) Plan {
	out := *s
	out.Input = ch[0]
	return &out
}
func (s *Sort) String() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.String()
	}
	msg := "Sort: " + strings.Join(parts, ", ")
	if s.Fetch >= 0 {
		msg += fmt.Sprintf(" fetch=%d", s.Fetch)
	}
	return msg
}

// Limit skips and fetches rows.
type Limit struct {
	Input Plan
	Skip  int64
	Fetch int64 // -1 = unlimited
}

func (l *Limit) Schema() *Schema  { return l.Input.Schema() }
func (l *Limit) Children() []Plan { return []Plan{l.Input} }
func (l *Limit) WithChildren(ch []Plan) Plan {
	out := *l
	out.Input = ch[0]
	return &out
}
func (l *Limit) String() string {
	return fmt.Sprintf("Limit: skip=%d, fetch=%d", l.Skip, l.Fetch)
}

// JoinType enumerates the supported join semantics.
type JoinType int

// Join types.
const (
	InnerJoin JoinType = iota
	LeftJoin
	RightJoin
	FullJoin
	LeftSemiJoin
	RightSemiJoin
	LeftAntiJoin
	RightAntiJoin
	CrossJoin
)

var joinNames = [...]string{"Inner", "Left", "Right", "Full", "LeftSemi", "RightSemi", "LeftAnti", "RightAnti", "Cross"}

func (t JoinType) String() string { return joinNames[t] }

// EquiPair is one equality join predicate left = right.
type EquiPair struct {
	L Expr // references the left input
	R Expr // references the right input
}

// Join combines two inputs on equality predicates plus an optional
// residual filter.
type Join struct {
	Left   Plan
	Right  Plan
	Type   JoinType
	On     []EquiPair
	Filter Expr // residual non-equi condition, may be nil
	schema *Schema
}

// NewJoin derives the join's output schema from its type.
func NewJoin(left, right Plan, jt JoinType, on []EquiPair, filter Expr) *Join {
	j := &Join{Left: left, Right: right, Type: jt, On: on, Filter: filter}
	j.schema = joinSchema(left.Schema(), right.Schema(), jt)
	return j
}

func joinSchema(l, r *Schema, jt JoinType) *Schema {
	nullableSide := func(s *Schema) []QField {
		fields := make([]QField, s.Len())
		for i, f := range s.Fields() {
			f.Nullable = true
			fields[i] = f
		}
		return fields
	}
	switch jt {
	case LeftSemiJoin, LeftAntiJoin:
		return l
	case RightSemiJoin, RightAntiJoin:
		return r
	case LeftJoin:
		return NewSchema(append(append([]QField{}, l.Fields()...), nullableSide(r)...)...)
	case RightJoin:
		return NewSchema(append(nullableSide(l), r.Fields()...)...)
	case FullJoin:
		return NewSchema(append(nullableSide(l), nullableSide(r)...)...)
	default:
		return l.Merge(r)
	}
}

func (j *Join) Schema() *Schema  { return j.schema }
func (j *Join) Children() []Plan { return []Plan{j.Left, j.Right} }
func (j *Join) WithChildren(ch []Plan) Plan {
	return NewJoin(ch[0], ch[1], j.Type, j.On, j.Filter)
}
func (j *Join) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s Join:", j.Type)
	if len(j.On) > 0 {
		parts := make([]string, len(j.On))
		for i, p := range j.On {
			parts[i] = fmt.Sprintf("%s = %s", p.L, p.R)
		}
		fmt.Fprintf(&sb, " on=[%s]", strings.Join(parts, ", "))
	}
	if j.Filter != nil {
		fmt.Fprintf(&sb, " filter=%s", j.Filter)
	}
	return sb.String()
}

// SubqueryAlias renames a subquery's output relation.
type SubqueryAlias struct {
	Input  Plan
	Alias  string
	schema *Schema
}

// NewSubqueryAlias requalifies the input's fields with the alias.
func NewSubqueryAlias(input Plan, alias string) *SubqueryAlias {
	fields := make([]QField, input.Schema().Len())
	for i, f := range input.Schema().Fields() {
		f.Qualifier = alias
		fields[i] = f
	}
	return &SubqueryAlias{Input: input, Alias: alias, schema: NewSchema(fields...)}
}

func (s *SubqueryAlias) Schema() *Schema  { return s.schema }
func (s *SubqueryAlias) Children() []Plan { return []Plan{s.Input} }
func (s *SubqueryAlias) WithChildren(ch []Plan) Plan {
	return NewSubqueryAlias(ch[0], s.Alias)
}
func (s *SubqueryAlias) String() string { return "SubqueryAlias: " + s.Alias }

// Union concatenates inputs with identical schemas; All=false deduplicates.
type Union struct {
	Inputs []Plan
	All    bool
}

func (u *Union) Schema() *Schema  { return u.Inputs[0].Schema() }
func (u *Union) Children() []Plan { return u.Inputs }
func (u *Union) WithChildren(ch []Plan) Plan {
	return &Union{Inputs: ch, All: u.All}
}
func (u *Union) String() string {
	if u.All {
		return "Union All"
	}
	return "Union Distinct"
}

// Distinct removes duplicate rows.
type Distinct struct{ Input Plan }

func (d *Distinct) Schema() *Schema  { return d.Input.Schema() }
func (d *Distinct) Children() []Plan { return []Plan{d.Input} }
func (d *Distinct) WithChildren(ch []Plan) Plan {
	return &Distinct{Input: ch[0]}
}
func (d *Distinct) String() string { return "Distinct" }

// Window computes window expressions, appending them to the input schema.
type Window struct {
	Input       Plan
	WindowExprs []Expr
	schema      *Schema
}

// NewWindow derives the window's schema: input fields plus one field per
// window expression.
func NewWindow(input Plan, exprs []Expr, reg Registry) (*Window, error) {
	fields := append([]QField{}, input.Schema().Fields()...)
	for _, e := range exprs {
		f, err := FieldOf(e, input.Schema(), reg)
		if err != nil {
			return nil, err
		}
		fields = append(fields, f)
	}
	return &Window{Input: input, WindowExprs: exprs, schema: NewSchema(fields...)}, nil
}

func (w *Window) Schema() *Schema  { return w.schema }
func (w *Window) Children() []Plan { return []Plan{w.Input} }
func (w *Window) WithChildren(ch []Plan) Plan {
	out := *w
	out.Input = ch[0]
	// The schema prefix mirrors the input; recompute it (the window-column
	// tail keeps its derived types) so rewrites below (e.g. scan pruning)
	// stay positionally consistent.
	tail := w.schema.Fields()[w.schema.Len()-len(w.WindowExprs):]
	fields := append(append([]QField{}, ch[0].Schema().Fields()...), tail...)
	out.schema = NewSchema(fields...)
	return &out
}
func (w *Window) String() string {
	parts := make([]string, len(w.WindowExprs))
	for i, e := range w.WindowExprs {
		parts[i] = e.String()
	}
	return "Window: " + strings.Join(parts, ", ")
}

// Values is an inline constant relation (VALUES (...), (...)).
type Values struct {
	Rows   [][]Expr
	schema *Schema
}

// NewValues derives the schema from the first row's literal types.
func NewValues(rows [][]Expr, reg Registry) (*Values, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("logical: VALUES requires at least one row and column")
	}
	empty := NewSchema()
	fields := make([]QField, len(rows[0]))
	for c := range rows[0] {
		t, err := TypeOf(rows[0][c], empty, reg)
		if err != nil {
			return nil, err
		}
		// Widen with subsequent rows (e.g. first row NULL).
		for r := 1; r < len(rows) && (t.ID == arrow.NULL); r++ {
			t2, err := TypeOf(rows[r][c], empty, reg)
			if err != nil {
				return nil, err
			}
			t = t2
		}
		fields[c] = QField{Name: fmt.Sprintf("column%d", c+1), Type: t, Nullable: true}
	}
	return &Values{Rows: rows, schema: NewSchema(fields...)}, nil
}

func (v *Values) Schema() *Schema            { return v.schema }
func (v *Values) Children() []Plan           { return nil }
func (v *Values) WithChildren(_ []Plan) Plan { return v }
func (v *Values) String() string             { return fmt.Sprintf("Values: %d rows", len(v.Rows)) }

// EmptyRelation produces zero rows (or one all-default row for SELECT
// without FROM).
type EmptyRelation struct {
	ProduceOneRow bool
	SchemaVal     *Schema
}

func (e *EmptyRelation) Schema() *Schema            { return e.SchemaVal }
func (e *EmptyRelation) Children() []Plan           { return nil }
func (e *EmptyRelation) WithChildren(_ []Plan) Plan { return e }
func (e *EmptyRelation) String() string             { return "EmptyRelation" }

// ExtensionNode is the user-defined logical operator contract (paper
// Section 7.7): systems embed custom relational operators that the
// optimizer passes through.
type ExtensionNode interface {
	Name() string
	Schema() *Schema
	Inputs() []Plan
	WithInputs(inputs []Plan) ExtensionNode
}

// Extension wraps a user-defined logical node into the Plan tree.
type Extension struct{ Node ExtensionNode }

func (e *Extension) Schema() *Schema  { return e.Node.Schema() }
func (e *Extension) Children() []Plan { return e.Node.Inputs() }
func (e *Extension) WithChildren(ch []Plan) Plan {
	return &Extension{Node: e.Node.WithInputs(ch)}
}
func (e *Extension) String() string { return "Extension: " + e.Node.Name() }

// TransformPlan rewrites a plan bottom-up.
func TransformPlan(p Plan, f func(Plan) (Plan, error)) (Plan, error) {
	children := p.Children()
	if len(children) > 0 {
		newChildren := make([]Plan, len(children))
		changed := false
		for i, c := range children {
			nc, err := TransformPlan(c, f)
			if err != nil {
				return nil, err
			}
			newChildren[i] = nc
			if nc != c {
				changed = true
			}
		}
		if changed {
			p = p.WithChildren(newChildren)
		}
	}
	return f(p)
}

// VisitPlan walks the plan pre-order; return false to skip a subtree.
func VisitPlan(p Plan, f func(Plan) bool) {
	if !f(p) {
		return
	}
	for _, c := range p.Children() {
		VisitPlan(c, f)
	}
}

// Explain renders an indented plan tree.
func Explain(p Plan) string {
	var sb strings.Builder
	var walk func(Plan, int)
	walk = func(n Plan, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		sb.WriteString(n.String())
		sb.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return sb.String()
}
