package exec

import "gofusion/internal/physical"

// PartialProbeRows lets external tests build inputs on either side of the
// adaptive partial aggregate's probe window.
const PartialProbeRows = partialProbeRows

// PartialAggMetric sums a named counter over the plan's partial aggregates
// and reports whether the plan has any.
func PartialAggMetric(p physical.ExecutionPlan, name string) (total int64, found bool) {
	if agg, ok := p.(*HashAggregateExec); ok && agg.Mode == PartialAgg {
		total, found = agg.Metrics().Snapshot().ExtraValue(name), true
	}
	for _, c := range p.Children() {
		n, ok := PartialAggMetric(c, name)
		total, found = total+n, found || ok
	}
	return total, found
}

// DistinctShape says how plan computes count(DISTINCT): "residual" when an
// aggregation runs the count_distinct accumulator, "nested" when a counting
// group-by reads an aggregate-free group-by directly, "" when neither.
func DistinctShape(p physical.ExecutionPlan) string {
	residual, nested := false, false
	var walk func(p physical.ExecutionPlan)
	walk = func(p physical.ExecutionPlan) {
		agg, _ := p.(*HashAggregateExec)
		if w, ok := p.(*WatermarkAggExec); ok {
			agg = w.helper
		}
		if agg != nil {
			counts := len(agg.Aggs) > 0
			for _, a := range agg.Aggs {
				residual = residual || a.Fn.Name == "count_distinct"
				counts = counts && a.Fn.Name == "count"
			}
			inner, ok := agg.Input.(*HashAggregateExec)
			if counts && agg.Mode != FinalAgg && ok && inner.Mode != PartialAgg && len(inner.Aggs) == 0 {
				nested = true
			}
		}
		for _, c := range p.Children() {
			walk(c)
		}
	}
	walk(p)
	switch {
	case residual:
		return "residual"
	case nested:
		return "nested"
	}
	return ""
}
