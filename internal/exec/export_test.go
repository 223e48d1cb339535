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
