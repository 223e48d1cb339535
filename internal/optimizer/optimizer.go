// Package optimizer implements the logical plan rewrites of paper Section
// 6.1: expression simplification, correlated subquery decorrelation,
// cross-join to inner-join conversion, filter pushdown (with OUTER join
// restrictions), outer-to-inner join conversion, join ordering by the join
// graph with statistics-based build sides, limit pushdown, and projection
// pushdown into scans and join outputs. Rules share the rewrite framework exposed to
// user-defined OptimizerRules (paper Section 7.6).
package optimizer

import (
	"slices"

	"gofusion/internal/functions"
	"gofusion/internal/logical"
)

// Rule is one logical rewrite pass.
type Rule interface {
	Name() string
	Apply(plan logical.Plan, ctx *Context) (logical.Plan, error)
}

// Context carries shared state into rules.
type Context struct {
	Reg *functions.Registry
}

// Optimizer runs an ordered list of rules, each to fixpoint-ish effect.
type Optimizer struct {
	rules []Rule
	ctx   *Context
}

// New returns the default rule pipeline.
func New(reg *functions.Registry) *Optimizer {
	return &Optimizer{
		ctx: &Context{Reg: reg},
		rules: []Rule{
			&SimplifyExpressions{},
			&EliminateDistinct{},
			&DecorrelateSubqueries{},
			&SimplifyExpressions{},
			&FilterPushdown{},
			&FilterPushdown{}, // second pass reaches filters exposed by the first
			&OuterToInner{},
			&FilterPushdown{},
			&CommonSubexpressionElimination{},
			&LimitPushdown{},
			&JoinOrder{},
			&ProjectionPushdown{},
		},
	}
}

// WithRule appends a user-defined rule (paper Section 7.6).
func (o *Optimizer) WithRule(r Rule) *Optimizer {
	o.rules = append(o.rules, r)
	return o
}

// WithRuleFirst prepends a user-defined rule so it runs before the
// built-in pipeline (typical for macro expansions that must be rewritten
// before filter pushdown buries them in scans).
func (o *Optimizer) WithRuleFirst(r Rule) *Optimizer {
	o.rules = append([]Rule{r}, o.rules...)
	return o
}

// WithRules replaces the rule pipeline entirely.
func (o *Optimizer) WithRules(rules []Rule) *Optimizer {
	o.rules = rules
	return o
}

// Without drops the named rules from the pipeline.
func (o *Optimizer) Without(names ...string) *Optimizer {
	var kept []Rule
	for _, r := range o.rules {
		if !slices.Contains(names, r.Name()) {
			kept = append(kept, r)
		}
	}
	o.rules = kept
	return o
}

// Optimize rewrites a logical plan.
func (o *Optimizer) Optimize(plan logical.Plan) (logical.Plan, error) {
	var err error
	for _, r := range o.rules {
		plan, err = r.Apply(plan, o.ctx)
		if err != nil {
			return nil, err
		}
	}
	return plan, nil
}

// exprsOf enumerates the expressions embedded in a plan node.
func exprsOf(p logical.Plan) []logical.Expr {
	switch n := p.(type) {
	case *logical.Projection:
		return n.Exprs
	case *logical.Filter:
		return []logical.Expr{n.Predicate}
	case *logical.Aggregate:
		return append(append([]logical.Expr{}, n.GroupExprs...), n.AggExprs...)
	case *logical.Sort:
		out := make([]logical.Expr, len(n.Keys))
		for i, k := range n.Keys {
			out[i] = k.E
		}
		return out
	case *logical.Join:
		var out []logical.Expr
		for _, pair := range n.On {
			out = append(out, pair.L, pair.R)
		}
		if n.Filter != nil {
			out = append(out, n.Filter)
		}
		return out
	case *logical.Window:
		return n.WindowExprs
	case *logical.TableScan:
		return n.Filters
	case *logical.Values:
		var out []logical.Expr
		for _, row := range n.Rows {
			out = append(out, row...)
		}
		return out
	}
	return nil
}
