package exec

import (
	"fmt"
	"slices"
	"strings"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/catalog"
	"gofusion/internal/functions"
	"gofusion/internal/logical"
	"gofusion/internal/optimizer"
	"gofusion/internal/parquet"
	"gofusion/internal/physical"
)

// PlannerConfig controls physical planning.
type PlannerConfig struct {
	// TargetPartitions is the desired parallelism (paper Section 5.5.2).
	TargetPartitions int
	// BatchRows is the preferred batch size (default 8192).
	BatchRows int
	// ScanReadahead is the per-partition scan decode pipeline depth in row
	// groups; 0 means the default (2), negative disables readahead.
	ScanReadahead int
	// Reg resolves functions.
	Reg *functions.Registry
	// PreferHashJoin disables sort-merge join selection when true.
	PreferHashJoin bool
	// ExtensionPlanners lower user-defined logical nodes (paper Section
	// 7.7); each is tried in order.
	ExtensionPlanners []ExtensionPlanner
	// PageCache, when set, is threaded into provider scans so decoded
	// pages are shared process-wide.
	PageCache *parquet.PageCache
	// WatermarkLateness is the event-time slack (in the watermark column's
	// units) that streaming aggregation allows for out-of-order rows before
	// closing a time bucket.
	WatermarkLateness int64
}

// ExtensionPlanner lowers one kind of user-defined logical node.
type ExtensionPlanner func(node logical.ExtensionNode, inputs []physical.ExecutionPlan, cfg *PlannerConfig) (physical.ExecutionPlan, bool, error)

func (cfg *PlannerConfig) withDefaults() *PlannerConfig {
	out := *cfg
	if out.TargetPartitions <= 0 {
		out.TargetPartitions = 1
	}
	if out.BatchRows <= 0 {
		out.BatchRows = 8192
	}
	if out.ScanReadahead == 0 {
		out.ScanReadahead = 2
	} else if out.ScanReadahead < 0 {
		out.ScanReadahead = 0
	}
	if out.Reg == nil {
		out.Reg = functions.NewRegistry()
	}
	return &out
}

// CreatePhysicalPlan lowers an optimized logical plan to an execution plan.
func CreatePhysicalPlan(plan logical.Plan, cfg *PlannerConfig) (physical.ExecutionPlan, error) {
	c := cfg.withDefaults()
	p, err := c.create(plan)
	if err != nil {
		return nil, err
	}
	p, err = applyPhysicalOptimizers(p)
	if err != nil {
		return nil, err
	}
	// Backstop: no full-pipeline breaker may sit over an unbounded input
	// (the operator-selection paths above raise friendlier errors first).
	if err := validateStreamingPlan(p); err != nil {
		return nil, err
	}
	return p, nil
}

func (cfg *PlannerConfig) compiler(schema *logical.Schema) *physical.Compiler {
	return physical.NewCompiler(schema, cfg.Reg)
}

func (cfg *PlannerConfig) compileSorts(keys []logical.SortExpr, schema *logical.Schema) ([]SortSpec, error) {
	comp := cfg.compiler(schema)
	out := make([]SortSpec, len(keys))
	for i, k := range keys {
		e, err := comp.Compile(k.E)
		if err != nil {
			return nil, err
		}
		out[i] = SortSpec{Expr: e, Descending: !k.Asc, NullsFirst: k.NullsFirst}
	}
	return out, nil
}

func (cfg *PlannerConfig) create(plan logical.Plan) (physical.ExecutionPlan, error) {
	switch node := plan.(type) {
	case *logical.TableScan:
		return cfg.planScan(node)
	case *logical.Projection:
		input, err := cfg.create(node.Input)
		if err != nil {
			return nil, err
		}
		comp := cfg.compiler(node.Input.Schema())
		exprs := make([]physical.PhysicalExpr, len(node.Exprs))
		for i, e := range node.Exprs {
			pe, err := comp.Compile(e)
			if err != nil {
				return nil, err
			}
			exprs[i] = pe
		}
		names := make([]string, node.Schema().Len())
		nullables := make([]bool, node.Schema().Len())
		for i, f := range node.Schema().Fields() {
			names[i] = f.Name
			nullables[i] = f.Nullable
		}
		return NewProjectionExec(input, exprs, names, nullables), nil
	case *logical.Filter:
		input, err := cfg.create(node.Input)
		if err != nil {
			return nil, err
		}
		pred, err := cfg.compiler(node.Input.Schema()).Compile(node.Predicate)
		if err != nil {
			return nil, err
		}
		return &FilterExec{Input: input, Predicate: pred}, nil
	case *logical.Aggregate:
		return cfg.planAggregate(node)
	case *logical.Sort:
		return cfg.planSort(node)
	case *logical.Limit:
		input, err := cfg.create(node.Input)
		if err != nil {
			return nil, err
		}
		// A fetch-limited sort already ends in a limit (planSort); when its
		// fetch covers this one's rows, one limit does both.
		if inner, ok := input.(*GlobalLimitExec); ok && inner.Skip == 0 && node.Fetch >= 0 &&
			inner.Fetch >= node.Skip+node.Fetch {
			input = inner.Input
		}
		if input.Partitions() > 1 {
			if node.Fetch >= 0 {
				input = &LocalLimitExec{Input: input, Fetch: node.Skip + node.Fetch}
			}
			input = &CoalescePartitionsExec{Input: input}
		}
		return &GlobalLimitExec{Input: input, Skip: node.Skip, Fetch: node.Fetch}, nil
	case *logical.Join:
		return cfg.planJoin(node)
	case *logical.SubqueryAlias:
		// Pure renaming: physical plans reference columns by position.
		return cfg.create(node.Input)
	case *logical.Union:
		inputs := make([]physical.ExecutionPlan, len(node.Inputs))
		for i, in := range node.Inputs {
			p, err := cfg.create(in)
			if err != nil {
				return nil, err
			}
			inputs[i] = p
		}
		// Unify field names to the union schema.
		return NewUnionExec(inputs), nil
	case *logical.Distinct:
		input, err := cfg.create(node.Input)
		if err != nil {
			return nil, err
		}
		return cfg.planDistinct(node, input)
	case *logical.Window:
		return cfg.planWindow(node)
	case *logical.Values:
		return cfg.planValues(node)
	case *logical.EmptyRelation:
		schema := node.Schema().ToArrow()
		var batches []*arrow.RecordBatch
		if node.ProduceOneRow {
			cols := make([]arrow.Array, schema.NumFields())
			for i, f := range schema.Fields() {
				b := arrow.NewBuilder(f.Type)
				b.AppendNull()
				cols[i] = b.Finish()
			}
			batches = append(batches, arrow.NewRecordBatchWithRows(schema, cols, 1))
		}
		return NewValuesExec(schema, batches), nil
	case *logical.Extension:
		inputs := make([]physical.ExecutionPlan, len(node.Node.Inputs()))
		for i, in := range node.Node.Inputs() {
			p, err := cfg.create(in)
			if err != nil {
				return nil, err
			}
			inputs[i] = p
		}
		for _, ep := range cfg.ExtensionPlanners {
			p, ok, err := ep(node.Node, inputs, cfg)
			if err != nil {
				return nil, err
			}
			if ok {
				return p, nil
			}
		}
		return nil, fmt.Errorf("exec: no physical planner for extension node %q", node.Node.Name())
	}
	return nil, fmt.Errorf("exec: cannot plan %T", plan)
}

func (cfg *PlannerConfig) planScan(node *logical.TableScan) (physical.ExecutionPlan, error) {
	provider, ok := node.Source.(catalog.TableProvider)
	if !ok {
		return nil, fmt.Errorf("exec: table %q has no physical provider", node.Name)
	}
	req := catalog.ScanRequest{
		Projection: node.Projection,
		Filters:    node.Filters,
		Limit:      node.Fetch,
		Partitions: cfg.TargetPartitions,
		BatchRows:  cfg.BatchRows,
		Readahead:  cfg.ScanReadahead,
		PageCache:  cfg.PageCache,
	}
	result, err := provider.Scan(req)
	if err != nil {
		return nil, err
	}
	var plan physical.ExecutionPlan = NewTableScanExec(node.Name, result)
	// Maximize parallelism: fan a narrow scan out across the target
	// partition count (unless that would destroy a useful sort order, or
	// the scan tails a live source — buffering an unbounded producer
	// through an exchange only adds latency).
	if result.Partitions < cfg.TargetPartitions && result.SortOrder == nil && !result.Unbounded {
		plan = &RepartitionExec{Input: plan, Scheme: RoundRobinPartitioning, NumParts: cfg.TargetPartitions}
	}
	// Re-apply filters the provider could not guarantee exactly.
	var residual []logical.Expr
	for i, f := range node.Filters {
		if i >= len(result.ExactFilters) || !result.ExactFilters[i] {
			residual = append(residual, f)
		}
	}
	if len(residual) > 0 {
		pred, err := cfg.compiler(node.Schema()).Compile(logical.And(residual...))
		if err != nil {
			return nil, err
		}
		plan = &FilterExec{Input: plan, Predicate: pred}
	}
	return plan, nil
}

// aggCall unwraps an aggregate expression (possibly aliased).
func aggCall(e logical.Expr) (*logical.AggFunc, error) {
	switch x := e.(type) {
	case *logical.Alias:
		return aggCall(x.E)
	case *logical.AggFunc:
		return x, nil
	}
	return nil, fmt.Errorf("exec: aggregate expression %s must be a direct aggregate call", e)
}

func (cfg *PlannerConfig) buildAggSpecs(node *logical.Aggregate, comp *physical.Compiler) ([]AggSpec, error) {
	specs := make([]AggSpec, len(node.AggExprs))
	outFields := node.Schema().Fields()[len(node.GroupExprs):]
	for i, e := range node.AggExprs {
		call, err := aggCall(e)
		if err != nil {
			return nil, err
		}
		if specs[i], err = cfg.aggSpec(call, outFields[i].Name, comp); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// aggSpec compiles one aggregate call whose output is named name.
func (cfg *PlannerConfig) aggSpec(call *logical.AggFunc, name string, comp *physical.Compiler) (AggSpec, error) {
	fnName := call.Name
	if call.Distinct {
		if fnName != "count" {
			return AggSpec{}, fmt.Errorf("exec: DISTINCT is only supported for count(), got %s", fnName)
		}
		fnName = "count_distinct"
	}
	fn, ok := cfg.Reg.Agg(fnName)
	if !ok {
		return AggSpec{}, fmt.Errorf("exec: unknown aggregate function %q", fnName)
	}
	args := make([]physical.PhysicalExpr, len(call.Args))
	for j, a := range call.Args {
		pa, err := comp.Compile(a)
		if err != nil {
			return AggSpec{}, err
		}
		args[j] = pa
	}
	var filter physical.PhysicalExpr
	if call.Filter != nil {
		var err error
		if filter, err = comp.Compile(call.Filter); err != nil {
			return AggSpec{}, err
		}
	}
	return NewAggSpec(fn, name, args, filter)
}

// linearArg describes a sum (or count) of `e op c` or `c op e` that reduces
// to sum(e) and count(e) (DESIGN.md §6, "Linear aggregates"); its zero
// value marks a call that does not.
type linearArg struct {
	sum       bool
	e         logical.Expr
	op        logical.BinOp
	c         int64
	constLeft bool
}

// linearCall recognizes a non-DISTINCT sum or count whose one argument is
// e + c, c + e, e - c, c - e, e * c or c * e, with c a non-NULL integer
// literal, e of an integer type whose values embed in Int64, and an Int64
// result: arithmetic mod 2^64, the ring sumIntAcc sums in.
func (cfg *PlannerConfig) linearCall(call *logical.AggFunc, schema *logical.Schema) (linearArg, bool) {
	name := strings.ToLower(call.Name)
	if call.Distinct || len(call.Args) != 1 || name != "sum" && name != "count" {
		return linearArg{}, false
	}
	b, ok := call.Args[0].(*logical.BinaryExpr)
	if !ok || b.Op != logical.OpAdd && b.Op != logical.OpSub && b.Op != logical.OpMul {
		return linearArg{}, false
	}
	arg := linearArg{sum: name == "sum", e: b.L, op: b.Op}
	if arg.c, ok = intLiteral(b.R); !ok {
		arg.e, arg.constLeft = b.R, true
		if arg.c, ok = intLiteral(b.L); !ok {
			return linearArg{}, false
		}
	}
	et, err := logical.TypeOf(arg.e, schema, cfg.Reg)
	if err != nil || !embedsInInt64(et) {
		return linearArg{}, false
	}
	if rt, err := logical.TypeOf(b, schema, cfg.Reg); err != nil || rt.ID != arrow.INT64 {
		return linearArg{}, false
	}
	return arg, true
}

// intLiteral returns the value of a non-NULL integer literal that embeds in
// Int64.
func intLiteral(e logical.Expr) (int64, bool) {
	lit, ok := e.(*logical.Literal)
	if !ok || lit.Value.Null || !embedsInInt64(lit.Value.Type) {
		return 0, false
	}
	return lit.Value.AsInt64(), true
}

// embedsInInt64 reports whether every value of t is an Int64 value: Int8
// to Int64 and UInt8 to UInt32.
func embedsInInt64(t *arrow.DataType) bool {
	return t.IsSignedInteger() || t.IsInteger() && t.BitWidth() < 64
}

// reduceLinearAggs plans node's aggregates with every linear call (see
// linearCall) reduced to a shared sum(e) and count(e) under the call's
// FILTER, and returns the specs to aggregate with and one expression per
// aggregate output of node over the result (the k group columns first):
//
//	sum(e + c), sum(c + e)  S + c·N
//	sum(e - c)              S - c·N
//	sum(c - e)              c·N - S
//	sum(e * c), sum(c * e)  c·S
//	count(...)              N
//
// where S = sum(e) and N = count(e). Each is exact mod 2^64, and NULL just
// where the call is, since S is NULL exactly when N = 0. Calls are shared
// by rendered form, so a written sum(e) is the S it needs. It returns nil,
// and node plans as written, unless the reduction leaves fewer aggregates
// than node has: each aggregate evaluates its own argument and FILTER, so a
// lone sum(e + c) would pay for e and its FILTER twice.
func (cfg *PlannerConfig) reduceLinearAggs(node *logical.Aggregate, comp *physical.Compiler) ([]AggSpec, []physical.PhysicalExpr, error) {
	k := len(node.GroupExprs)
	calls := make([]*logical.AggFunc, len(node.AggExprs))
	args := make([]linearArg, len(node.AggExprs))
	linear := false
	for i, e := range node.AggExprs {
		call, err := aggCall(e)
		if err != nil {
			return nil, nil, err
		}
		var ok bool
		calls[i] = call
		args[i], ok = cfg.linearCall(call, node.Input.Schema())
		linear = linear || ok
	}
	if !linear {
		return nil, nil, nil
	}
	var specs []AggSpec
	var planned []*logical.AggFunc
	// column returns the output column of call, planning it as name first
	// if no equal call is planned yet.
	column := func(call *logical.AggFunc, name string) (physical.PhysicalExpr, error) {
		i := slices.IndexFunc(planned, func(c *logical.AggFunc) bool { return logical.ExprEqual(c, call) })
		if i < 0 {
			spec, err := cfg.aggSpec(call, name, comp)
			if err != nil {
				return nil, err
			}
			i = len(specs)
			specs, planned = append(specs, spec), append(planned, call)
		}
		return physical.NewColumnExpr(k+i, specs[i].Name, specs[i].OutType), nil
	}
	arith := func(op logical.BinOp, l, r physical.PhysicalExpr) physical.PhysicalExpr {
		return &physical.BinaryExpr{Op: op, L: l, R: r, Type: arrow.Int64}
	}
	outFields := node.Schema().Fields()[k:]
	outs := make([]physical.PhysicalExpr, len(calls))
	for i, call := range calls {
		arg := args[i]
		if arg.e == nil {
			col, err := column(call, outFields[i].Name)
			if err != nil {
				return nil, nil, err
			}
			outs[i] = col
			continue
		}
		base := func(name string) (physical.PhysicalExpr, error) {
			c := &logical.AggFunc{Name: name, Args: []logical.Expr{arg.e}, Filter: call.Filter}
			return column(c, c.String())
		}
		var s, n physical.PhysicalExpr
		var err error
		if arg.sum {
			s, err = base("sum")
		}
		if err == nil && (!arg.sum || arg.op != logical.OpMul) {
			n, err = base("count")
		}
		if err != nil {
			return nil, nil, err
		}
		c := &physical.LiteralExpr{Value: arrow.Int64Scalar(arg.c)}
		switch {
		case !arg.sum:
			outs[i] = n
		case arg.op == logical.OpMul:
			outs[i] = arith(logical.OpMul, c, s)
		case arg.op == logical.OpAdd:
			outs[i] = arith(logical.OpAdd, s, arith(logical.OpMul, c, n))
		case arg.constLeft:
			outs[i] = arith(logical.OpSub, arith(logical.OpMul, c, n), s)
		default:
			outs[i] = arith(logical.OpSub, s, arith(logical.OpMul, c, n))
		}
	}
	if len(specs) >= len(calls) {
		return nil, nil, nil
	}
	return specs, outs, nil
}

// orderingCoversGroups reports whether the input ordering's leading
// columns are exactly the group columns (any permutation), enabling the
// streaming aggregation fast path.
func orderingCoversGroups(ordering []physical.SortField, groups []physical.PhysicalExpr) bool {
	if len(ordering) < len(groups) || len(groups) == 0 {
		return false
	}
	lead := map[int]bool{}
	for _, f := range ordering[:len(groups)] {
		lead[f.Col] = true
	}
	for _, g := range groups {
		c, ok := g.(*physical.ColumnExpr)
		if !ok || !lead[c.Index] {
			return false
		}
	}
	return true
}

// groupBy plans `GROUP BY groupExprs` computing specs over a bounded input:
// one single-phase aggregate on one partition, otherwise the two-phase chain
// (paper Section 6.3) of a partial aggregate per input partition, a hash
// exchange on the group keys (a coalesce when there are none) and the final
// merge. Every grouped shape the planner produces is built here.
func (cfg *PlannerConfig) groupBy(input physical.ExecutionPlan, groupExprs []physical.PhysicalExpr,
	groupNames []string, specs []AggSpec) physical.ExecutionPlan {
	mode := PartialAgg
	if input.Partitions() == 1 {
		mode = SingleAgg
	}
	first := NewHashAggregateExec(input, mode, groupExprs, groupNames, specs)
	first.InputOrdered = orderingCoversGroups(input.OutputOrdering(), groupExprs)
	if mode == SingleAgg {
		return first
	}
	// The final phase reads the partial output by position: group columns
	// first, then each aggregate's state columns.
	finalGroups := outputColumns(first, len(groupExprs))
	finalSpecs := make([]AggSpec, len(specs))
	for i, s := range specs {
		finalSpecs[i] = AggSpec{Fn: s.Fn, Name: s.Name, ArgTypes: s.ArgTypes,
			OutType: s.OutType, StateTypes: s.StateTypes}
	}
	var mid physical.ExecutionPlan
	if len(groupExprs) == 0 {
		mid = &CoalescePartitionsExec{Input: first}
	} else {
		mid = &RepartitionExec{Input: first, Scheme: HashPartitioning,
			HashExprs: finalGroups, NumParts: cfg.TargetPartitions}
	}
	return NewHashAggregateExec(mid, FinalAgg, finalGroups, groupNames, finalSpecs)
}

// outputColumns references the first n output columns of plan by position.
func outputColumns(plan physical.ExecutionPlan, n int) []physical.PhysicalExpr {
	cols := make([]physical.PhysicalExpr, n)
	for i := range cols {
		f := plan.Schema().Field(i)
		cols[i] = physical.NewColumnExpr(i, f.Name, f.Type)
	}
	return cols
}

// soleDistinctArg returns e when every aggregate of node is an unfiltered
// count(DISTINCT e) over one and the same e, and nil otherwise.
func soleDistinctArg(node *logical.Aggregate) logical.Expr {
	var arg logical.Expr
	for _, e := range node.AggExprs {
		call, err := aggCall(e)
		if err != nil || call.Name != "count" || !call.Distinct || call.Filter != nil || len(call.Args) != 1 {
			return nil
		}
		if arg != nil && !logical.ExprEqual(arg, call.Args[0]) {
			return nil
		}
		arg = call.Args[0]
	}
	return arg
}

func (cfg *PlannerConfig) planAggregate(node *logical.Aggregate) (physical.ExecutionPlan, error) {
	input, err := cfg.create(node.Input)
	if err != nil {
		return nil, err
	}
	comp := cfg.compiler(node.Input.Schema())
	groupExprs := make([]physical.PhysicalExpr, len(node.GroupExprs))
	for i, g := range node.GroupExprs {
		pg, err := comp.Compile(g)
		if err != nil {
			return nil, err
		}
		groupExprs[i] = pg
	}
	outNames := make([]string, node.Schema().Len())
	for i, f := range node.Schema().Fields() {
		outNames[i] = f.Name
	}
	groupNames, aggNames := outNames[:len(groupExprs)], outNames[len(groupExprs):]

	// A lone count(DISTINCT e) is two ordinary group-bys (DESIGN.md §6,
	// "Distinct aggregates"): de-duplicate on (keys, e), then count e per
	// keys. Anything else keeps the count_distinct accumulator.
	if arg := soleDistinctArg(node); arg != nil && !IsUnbounded(input) {
		pe, err := comp.Compile(arg)
		if err != nil {
			return nil, err
		}
		count, ok := cfg.Reg.Agg("count")
		if !ok {
			return nil, fmt.Errorf("exec: unknown aggregate function %q", "count")
		}
		k := len(groupExprs)
		inner := cfg.groupBy(input, append(groupExprs[:k:k], pe), append(groupNames[:k:k], arg.String()), nil)
		cols := outputColumns(inner, k+1)
		specs := make([]AggSpec, len(aggNames))
		for i, name := range aggNames {
			if specs[i], err = NewAggSpec(count, name, cols[k:], nil); err != nil {
				return nil, err
			}
		}
		return cfg.groupBy(inner, cols[:k], groupNames, specs), nil
	}

	if !IsUnbounded(input) {
		specs, outs, err := cfg.reduceLinearAggs(node, comp)
		if err != nil {
			return nil, err
		}
		if outs != nil {
			agg := cfg.groupBy(input, groupExprs, groupNames, specs)
			return NewProjectionExec(agg, append(outputColumns(agg, len(groupExprs)), outs...), outNames, nil), nil
		}
	}
	specs, err := cfg.buildAggSpecs(node, comp)
	if err != nil {
		return nil, err
	}
	if IsUnbounded(input) {
		return cfg.planStreamingAggregate(input, groupExprs, groupNames, specs)
	}
	return cfg.groupBy(input, groupExprs, groupNames, specs), nil
}

// planStreamingAggregate routes a grouped aggregation over an unbounded
// input onto WatermarkAggExec, provided the grouping keys include the
// source's declared event-time column (otherwise no group ever becomes
// final while the stream runs).
func (cfg *PlannerConfig) planStreamingAggregate(input physical.ExecutionPlan,
	groupExprs []physical.PhysicalExpr, groupNames []string, specs []AggSpec) (physical.ExecutionPlan, error) {
	wm := watermarkColumn(input)
	if wm < 0 {
		return nil, breakerErr("HashAggregateExec",
			"aggregation only finalizes at end of input; declare a watermark column on the source and group by it for streaming emit")
	}
	wmPos := -1
	for i, g := range groupExprs {
		if c, ok := g.(*physical.ColumnExpr); ok && c.Index == wm {
			wmPos = i
			break
		}
	}
	if wmPos < 0 {
		return nil, breakerErr("HashAggregateExec",
			"aggregation only finalizes at end of input; group by the source's watermark column for streaming emit")
	}
	if input.Partitions() > 1 {
		input = &CoalescePartitionsExec{Input: input}
	}
	return NewWatermarkAggExec(input, groupExprs, groupNames, specs, wmPos, cfg.WatermarkLateness), nil
}

func (cfg *PlannerConfig) planDistinct(node *logical.Distinct, input physical.ExecutionPlan) (physical.ExecutionPlan, error) {
	groupExprs := outputColumns(input, node.Schema().Len())
	groupNames := make([]string, len(groupExprs))
	for i, f := range node.Schema().Fields() {
		groupNames[i] = f.Name
	}
	if IsUnbounded(input) {
		// DISTINCT streams when the watermark column is among the selected
		// columns: de-duplication then partitions by event time.
		return cfg.planStreamingAggregate(input, groupExprs, groupNames, nil)
	}
	return cfg.groupBy(input, groupExprs, groupNames, nil), nil
}

func (cfg *PlannerConfig) planSort(node *logical.Sort) (physical.ExecutionPlan, error) {
	input, err := cfg.create(node.Input)
	if err != nil {
		return nil, err
	}
	keys, err := cfg.compileSorts(node.Keys, node.Input.Schema())
	if err != nil {
		return nil, err
	}
	// Sort elimination: input already provides the requested order.
	if orderingSatisfies(input.OutputOrdering(), keys) && input.Partitions() == 1 {
		if node.Fetch >= 0 {
			return &GlobalLimitExec{Input: input, Skip: 0, Fetch: node.Fetch}, nil
		}
		return input, nil
	}
	if IsUnbounded(input) {
		if node.Fetch >= 0 {
			return nil, breakerErr("TopKExec", "top-k only emits after the input ends")
		}
		return nil, breakerErr("ExternalSortExec", "sorting buffers the entire input")
	}
	if node.Fetch >= 0 {
		topk := &TopKExec{Input: input, Keys: keys, K: node.Fetch}
		if input.Partitions() == 1 {
			return topk, nil
		}
		merged := &SortPreservingMergeExec{Input: topk, Keys: keys}
		return &GlobalLimitExec{Input: merged, Skip: 0, Fetch: node.Fetch}, nil
	}
	sorted := &ExternalSortExec{Input: input, Keys: keys}
	if input.Partitions() == 1 {
		return sorted, nil
	}
	return &SortPreservingMergeExec{Input: sorted, Keys: keys}, nil
}

// orderingSatisfies reports whether an existing output ordering subsumes
// the requested sort keys.
func orderingSatisfies(have []physical.SortField, want []SortSpec) bool {
	if len(have) < len(want) {
		return false
	}
	for i, w := range want {
		c, ok := w.Expr.(*physical.ColumnExpr)
		if !ok {
			return false
		}
		h := have[i]
		if h.Col != c.Index || h.Descending != w.Descending || h.NullsFirst != w.NullsFirst {
			return false
		}
	}
	return true
}

func (cfg *PlannerConfig) planJoin(node *logical.Join) (physical.ExecutionPlan, error) {
	left, err := cfg.create(node.Left)
	if err != nil {
		return nil, err
	}
	right, err := cfg.create(node.Right)
	if err != nil {
		return nil, err
	}
	filter, err := cfg.joinFilter(node)
	if err != nil {
		return nil, err
	}

	if node.Type == logical.CrossJoin || len(node.On) == 0 {
		return NewNestedLoopJoinExec(left, right, filter, node.Type), nil
	}

	lcomp := cfg.compiler(node.Left.Schema())
	rcomp := cfg.compiler(node.Right.Schema())
	on := make([]JoinOn, len(node.On))
	for i, p := range node.On {
		le, err := lcomp.Compile(p.L)
		if err != nil {
			return nil, err
		}
		re, err := rcomp.Compile(p.R)
		if err != nil {
			return nil, err
		}
		// Coerce key types so both sides encode identically.
		le, re, err = coerceJoinKeys(le, re)
		if err != nil {
			return nil, err
		}
		on[i] = JoinOn{L: le, R: re}
	}

	if lu, ru := IsUnbounded(left), IsUnbounded(right); lu || ru {
		return cfg.planStreamingJoin(node, left, right, on, filter, lu, ru)
	}

	// Sorted inputs with matching keys use the merge join.
	if !cfg.PreferHashJoin && mergeJoinApplicable(left, right, on) {
		return NewSortMergeJoinExec(left, right, on, filter, node.Type), nil
	}

	if cfg.TargetPartitions > 1 {
		// A small build side is cheaper to share (CollectLeft) than to
		// hash-repartition both inputs: the probe then stays in the
		// pipeline of its scan.
		if rows := optimizer.EstimateRows(node.Left); rows >= 0 && rows <= 100_000 {
			return NewHashJoinExec(left, right, on, filter, node.Type, CollectLeft), nil
		}
		leftKeys := make([]physical.PhysicalExpr, len(on))
		rightKeys := make([]physical.PhysicalExpr, len(on))
		for i, p := range on {
			leftKeys[i] = p.L
			rightKeys[i] = p.R
		}
		lrep := &RepartitionExec{Input: left, Scheme: HashPartitioning, HashExprs: leftKeys, NumParts: cfg.TargetPartitions}
		rrep := &RepartitionExec{Input: right, Scheme: HashPartitioning, HashExprs: rightKeys, NumParts: cfg.TargetPartitions}
		return NewHashJoinExec(lrep, rrep, on, filter, node.Type, PartitionedJoin), nil
	}
	return NewHashJoinExec(left, right, on, filter, node.Type, CollectLeft), nil
}

// joinFilter compiles the join's residual filter over only the columns it
// reads, in their (left ++ right) order; nil without one.
func (cfg *PlannerConfig) joinFilter(node *logical.Join) (*JoinFilter, error) {
	if node.Filter == nil {
		return nil, nil
	}
	combined := node.Left.Schema().Merge(node.Right.Schema())
	var cols []int
	for _, c := range logical.CollectColumns(node.Filter) {
		i, err := combined.IndexOfColumn(c)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(cols, i) {
			cols = append(cols, i)
		}
	}
	slices.Sort(cols)
	fields := make([]logical.QField, len(cols))
	for k, i := range cols {
		fields[k] = combined.Field(i)
	}
	expr, err := cfg.compiler(logical.NewSchema(fields...)).Compile(node.Filter)
	if err != nil {
		return nil, err
	}
	return &JoinFilter{Expr: expr, Columns: cols}, nil
}

// planStreamingJoin selects a join operator when at least one equi-join
// input is unbounded. A bounded build with a streaming probe runs on the
// regular hash join (for join types owing no build-side tail pass); an
// unbounded build side forces the symmetric hash join, which only supports
// INNER semantics without retractions.
func (cfg *PlannerConfig) planStreamingJoin(node *logical.Join, left, right physical.ExecutionPlan,
	on []JoinOn, filter *JoinFilter, lu, ru bool) (physical.ExecutionPlan, error) {
	if !lu && !owesBuildRows(node.Type) {
		return NewHashJoinExec(left, right, on, filter, node.Type, CollectLeft), nil
	}
	if node.Type != logical.InnerJoin {
		return nil, breakerErr("HashJoinExec",
			fmt.Sprintf("%s join over a live stream would need retractions; only INNER equi-joins stream symmetrically", node.Type))
	}
	if left.Partitions() > 1 {
		left = &CoalescePartitionsExec{Input: left}
	}
	if right.Partitions() > 1 {
		right = &CoalescePartitionsExec{Input: right}
	}
	var out physical.ExecutionPlan = NewSymmetricHashJoinExec(left, right, on)
	if node.Filter != nil {
		predicate, err := cfg.compiler(node.Schema()).Compile(node.Filter)
		if err != nil {
			return nil, err
		}
		out = &FilterExec{Input: out, Predicate: predicate}
	}
	return out, nil
}

func coerceJoinKeys(l, r physical.PhysicalExpr) (physical.PhysicalExpr, physical.PhysicalExpr, error) {
	lt, rt := l.DataType(), r.DataType()
	if lt.Equal(rt) {
		return l, r, nil
	}
	common, err := logical.PromoteNumeric(lt, rt)
	if err != nil {
		return nil, nil, fmt.Errorf("exec: incompatible join key types %s and %s", lt, rt)
	}
	if !lt.Equal(common) {
		l = &physical.CastExpr{E: l, To: common}
	}
	if !rt.Equal(common) {
		r = &physical.CastExpr{E: r, To: common}
	}
	return l, r, nil
}

// mergeJoinApplicable reports whether both inputs are one partition sorted
// ascending on their bare-column keys.
func mergeJoinApplicable(left, right physical.ExecutionPlan, on []JoinOn) bool {
	check := func(p physical.ExecutionPlan, side func(JoinOn) physical.PhysicalExpr) bool {
		ord := p.OutputOrdering()
		if len(ord) < len(on) || p.Partitions() != 1 {
			return false
		}
		for i, pair := range on {
			c, ok := side(pair).(*physical.ColumnExpr)
			if !ok || ord[i].Col != c.Index || ord[i].Descending {
				return false
			}
		}
		return true
	}
	return check(left, func(p JoinOn) physical.PhysicalExpr { return p.L }) &&
		check(right, func(p JoinOn) physical.PhysicalExpr { return p.R })
}

func (cfg *PlannerConfig) planWindow(node *logical.Window) (physical.ExecutionPlan, error) {
	input, err := cfg.create(node.Input)
	if err != nil {
		return nil, err
	}
	if IsUnbounded(input) {
		return nil, breakerErr("WindowExec", "window functions buffer their partitions")
	}
	return PlanWindowOver(input, node, cfg)
}

// PlanWindowOver lowers a logical Window node onto a pre-built physical
// input (also used by the baseline engine, which shares only the window
// algorithm). It establishes WindowExec's distribution contract: with
// PARTITION BY keys common to every spec and parallelism to use, the input
// is hash-repartitioned on those keys and each partition is windowed on
// its own; otherwise the input is coalesced to one partition.
func PlanWindowOver(input physical.ExecutionPlan, node *logical.Window, cfg *PlannerConfig) (physical.ExecutionPlan, error) {
	cfg = cfg.withDefaults()
	comp := cfg.compiler(node.Input.Schema())
	inLen := node.Input.Schema().Len()
	specs := make([]WindowSpec, len(node.WindowExprs))
	for i, e := range node.WindowExprs {
		wf, name, err := windowCall(e)
		if err != nil {
			return nil, err
		}
		spec := WindowSpec{Name: wf.Name, Frame: wf.Frame, OutName: name}
		for _, a := range wf.Args {
			pa, err := comp.Compile(a)
			if err != nil {
				return nil, err
			}
			spec.Args = append(spec.Args, pa)
		}
		for _, p := range wf.PartitionBy {
			pp, err := comp.Compile(p)
			if err != nil {
				return nil, err
			}
			spec.PartitionBy = append(spec.PartitionBy, pp)
		}
		sorts, err := cfg.compileSorts(wf.OrderBy, node.Input.Schema())
		if err != nil {
			return nil, err
		}
		spec.OrderBy = sorts
		if !cfg.Reg.IsWindow(wf.Name) {
			fn, ok := cfg.Reg.Agg(wf.Name)
			if !ok {
				return nil, fmt.Errorf("exec: unknown window function %q", wf.Name)
			}
			spec.AggFn = fn
		}
		spec.OutType = node.Schema().Field(inLen + i).Type
		specs[i] = spec
	}
	if keys := commonPartitionKeys(specs); len(keys) > 0 && cfg.TargetPartitions > 1 {
		input = &RepartitionExec{Input: input, Scheme: HashPartitioning,
			HashExprs: keys, NumParts: cfg.TargetPartitions}
	} else if input.Partitions() > 1 {
		input = &CoalescePartitionsExec{Input: input}
	}
	return NewWindowExec(input, specs, cfg.Reg), nil
}

// commonPartitionKeys returns the PARTITION BY expressions every spec
// lists. Rows that agree on all of a spec's keys agree on these, so hashing
// on them keeps every spec's partitions whole.
func commonPartitionKeys(specs []WindowSpec) []physical.PhysicalExpr {
	if len(specs) == 0 {
		return nil
	}
	var keys []physical.PhysicalExpr
	for _, k := range specs[0].PartitionBy {
		shared := true
		for _, s := range specs[1:] {
			if !slices.ContainsFunc(s.PartitionBy, func(p physical.PhysicalExpr) bool { return p.String() == k.String() }) {
				shared = false
				break
			}
		}
		if shared {
			keys = append(keys, k)
		}
	}
	return keys
}

func windowCall(e logical.Expr) (*logical.WindowFunc, string, error) {
	name := logical.OutputName(e)
	for {
		switch x := e.(type) {
		case *logical.Alias:
			e = x.E
		case *logical.WindowFunc:
			return x, name, nil
		default:
			return nil, "", fmt.Errorf("exec: window expression %s must be a direct window call", e)
		}
	}
}

func (cfg *PlannerConfig) planValues(node *logical.Values) (physical.ExecutionPlan, error) {
	schema := node.Schema().ToArrow()
	builders := make([]arrow.Builder, schema.NumFields())
	for i, f := range schema.Fields() {
		builders[i] = arrow.NewBuilder(f.Type)
	}
	empty := logical.NewSchema()
	comp := physical.NewCompiler(empty, cfg.Reg)
	oneRow := arrow.NewRecordBatchWithRows(arrow.NewSchema(), nil, 1)
	for _, row := range node.Rows {
		for c, cell := range row {
			pe, err := comp.Compile(cell)
			if err != nil {
				return nil, err
			}
			d, err := pe.Evaluate(oneRow, nil)
			if err != nil {
				return nil, err
			}
			var s arrow.Scalar
			if d.IsArray() {
				s = d.Array().GetScalar(0)
			} else {
				s = d.ScalarValue()
			}
			if !s.Type.Equal(schema.Field(c).Type) && !s.Null {
				s2, err := compute.CastScalar(s, schema.Field(c).Type)
				if err != nil {
					return nil, err
				}
				s = s2
			}
			if s.Null {
				builders[c].AppendNull()
			} else {
				builders[c].AppendScalar(s)
			}
		}
	}
	cols := make([]arrow.Array, len(builders))
	for i, b := range builders {
		cols[i] = b.Finish()
	}
	return NewValuesExec(schema, []*arrow.RecordBatch{arrow.NewRecordBatchWithRows(schema, cols, len(node.Rows))}), nil
}
