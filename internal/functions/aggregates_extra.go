package functions

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"gofusion/internal/arrow"
	"gofusion/internal/rowformat"
)

// minMaxAcc tracks per-group minimum or maximum for any comparable type.
type minMaxAcc struct {
	argType *arrow.DataType
	isMax   bool

	// Exactly one of these state families is used, by physical kind.
	i64       []int64
	f64       []float64
	strs      []string
	seen      []bool
	useFloat  bool
	useString bool
}

func newMinMaxAcc(t *arrow.DataType, isMax bool) (GroupsAccumulator, error) {
	acc := &minMaxAcc{argType: t, isMax: isMax}
	switch t.ID {
	case arrow.FLOAT32, arrow.FLOAT64:
		acc.useFloat = true
	case arrow.STRING:
		acc.useString = true
	case arrow.BOOL:
		return nil, fmt.Errorf("min/max of boolean not supported")
	}
	return acc, nil
}

func (m *minMaxAcc) ensure(n int) {
	m.seen = growTo(m.seen, n)
	switch {
	case m.useFloat:
		m.f64 = growTo(m.f64, n)
	case m.useString:
		m.strs = growTo(m.strs, n)
	default:
		m.i64 = growTo(m.i64, n)
	}
}

func (m *minMaxAcc) better(cmp int) bool {
	if m.isMax {
		return cmp > 0
	}
	return cmp < 0
}

func (m *minMaxAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	m.ensure(numGroups)
	a := args[0]
	if numGroups == 1 && !m.useString {
		op, n, ok := foldMin, 0, false
		if m.isMax {
			op = foldMax
		}
		if m.useFloat {
			m.f64[0], n, ok = foldArray(op, a, m.f64[0], 1, m.seen[0])
		} else {
			m.i64[0], n, ok = foldArray(op, a, m.i64[0], 1, m.seen[0])
		}
		if ok {
			m.seen[0] = m.seen[0] || n > 0
			return nil
		}
	}
	switch {
	case m.useString:
		sa, ok := a.(*arrow.StringArray)
		if !ok {
			return fmt.Errorf("min/max: expected string array, got %s", a.DataType())
		}
		for i, g := range groupIdx {
			if sa.IsNull(i) {
				continue
			}
			v := sa.Value(i)
			if !m.seen[g] || m.better(cmpStr(v, m.strs[g])) {
				m.strs[g] = string(sa.ValueBytes(i)) // copy out of shared buffer
				m.seen[g] = true
			}
		}
	case m.useFloat:
		vals, valid, err := asFloat64Values(a)
		if err != nil {
			return err
		}
		for i, g := range groupIdx {
			if valid != nil && !valid.Get(i) {
				continue
			}
			v := vals[i]
			if !m.seen[g] || m.better(cmpF64(v, m.f64[g])) {
				m.f64[g] = v
				m.seen[g] = true
			}
		}
	default:
		vals, valid, err := asInt64Values(a)
		if err != nil {
			return err
		}
		if valid == nil {
			if m.isMax {
				for i, g := range groupIdx {
					if !m.seen[g] || vals[i] > m.i64[g] {
						m.i64[g] = vals[i]
						m.seen[g] = true
					}
				}
			} else {
				for i, g := range groupIdx {
					if !m.seen[g] || vals[i] < m.i64[g] {
						m.i64[g] = vals[i]
						m.seen[g] = true
					}
				}
			}
			return nil
		}
		for i, g := range groupIdx {
			if !valid.Get(i) {
				continue
			}
			v := vals[i]
			if !m.seen[g] || m.better(cmpI64(v, m.i64[g])) {
				m.i64[g] = v
				m.seen[g] = true
			}
		}
	}
	return nil
}

func cmpI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (m *minMaxAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	return m.Update(states, groupIdx, numGroups)
}

func (m *minMaxAcc) buildArray() (arrow.Array, error) {
	n := len(m.seen)
	b := arrow.NewBuilder(m.argType)
	for g := 0; g < n; g++ {
		if !m.seen[g] {
			b.AppendNull()
			continue
		}
		switch {
		case m.useString:
			b.(*arrow.StringBuilder).Append(m.strs[g])
		case m.useFloat:
			if m.argType.ID == arrow.FLOAT32 {
				b.(*arrow.NumericBuilder[float32]).Append(float32(m.f64[g]))
			} else {
				b.(*arrow.NumericBuilder[float64]).Append(m.f64[g])
			}
		default:
			switch m.argType.BitWidth() {
			case 64:
				if m.argType.ID == arrow.UINT64 {
					b.AppendScalar(arrow.NewScalar(m.argType, uint64(m.i64[g])))
				} else {
					b.AppendScalar(arrow.NewScalar(m.argType, m.i64[g]))
				}
			case 32:
				if m.argType.IsSignedInteger() || m.argType.ID == arrow.DATE32 {
					b.AppendScalar(arrow.NewScalar(m.argType, int32(m.i64[g])))
				} else {
					b.AppendScalar(arrow.NewScalar(m.argType, uint32(m.i64[g])))
				}
			case 16:
				if m.argType.IsSignedInteger() {
					b.AppendScalar(arrow.NewScalar(m.argType, int16(m.i64[g])))
				} else {
					b.AppendScalar(arrow.NewScalar(m.argType, uint16(m.i64[g])))
				}
			case 8:
				if m.argType.IsSignedInteger() {
					b.AppendScalar(arrow.NewScalar(m.argType, int8(m.i64[g])))
				} else {
					b.AppendScalar(arrow.NewScalar(m.argType, uint8(m.i64[g])))
				}
			}
		}
	}
	return b.Finish(), nil
}

func (m *minMaxAcc) State() ([]arrow.Array, error) {
	a, err := m.buildArray()
	return []arrow.Array{a}, err
}

func (m *minMaxAcc) Evaluate() (arrow.Array, error) { return m.buildArray() }

// varKind selects between sample/population variance and stddev.
type varKind int

const (
	varSamp varKind = iota
	varPop
	stdSamp
	stdPop
)

// varianceAcc implements Welford/Chan parallel variance.
type varianceAcc struct {
	kind  varKind
	ns    []int64
	means []float64
	m2s   []float64
}

func (v *varianceAcc) ensure(n int) {
	v.ns = growTo(v.ns, n)
	v.means = growTo(v.means, n)
	v.m2s = growTo(v.m2s, n)
}

func (v *varianceAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	v.ensure(numGroups)
	vals, valid, err := asFloat64Values(args[0])
	if err != nil {
		return err
	}
	for i, g := range groupIdx {
		if valid != nil && !valid.Get(i) {
			continue
		}
		x := vals[i]
		v.ns[g]++
		delta := x - v.means[g]
		v.means[g] += delta / float64(v.ns[g])
		v.m2s[g] += delta * (x - v.means[g])
	}
	return nil
}

func (v *varianceAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	v.ensure(numGroups)
	ns := states[0].(*arrow.Int64Array).Values()
	means := states[1].(*arrow.Float64Array).Values()
	m2s := states[2].(*arrow.Float64Array).Values()
	for i, g := range groupIdx {
		nb := ns[i]
		if nb == 0 {
			continue
		}
		na := v.ns[g]
		delta := means[i] - v.means[g]
		total := na + nb
		v.means[g] += delta * float64(nb) / float64(total)
		v.m2s[g] += m2s[i] + delta*delta*float64(na)*float64(nb)/float64(total)
		v.ns[g] = total
	}
	return nil
}

func (v *varianceAcc) State() ([]arrow.Array, error) {
	return []arrow.Array{
		arrow.NewInt64(append([]int64(nil), v.ns...)),
		arrow.NewFloat64(append([]float64(nil), v.means...)),
		arrow.NewFloat64(append([]float64(nil), v.m2s...)),
	}, nil
}

func (v *varianceAcc) Evaluate() (arrow.Array, error) {
	n := len(v.ns)
	out := make([]float64, n)
	var valid arrow.Bitmap
	for g := 0; g < n; g++ {
		minN := int64(2)
		if v.kind == varPop || v.kind == stdPop {
			minN = 1
		}
		if v.ns[g] < minN {
			if valid == nil {
				valid = arrow.NewBitmapSet(n)
			}
			valid.Clear(g)
			continue
		}
		den := float64(v.ns[g] - 1)
		if v.kind == varPop || v.kind == stdPop {
			den = float64(v.ns[g])
		}
		x := v.m2s[g] / den
		if v.kind == stdSamp || v.kind == stdPop {
			x = math.Sqrt(x)
		}
		out[g] = x
	}
	return arrow.NewNumeric(arrow.Float64, out, valid), nil
}

// corrAcc implements Pearson correlation with parallel co-moment merging.
type corrAcc struct {
	ns            []int64
	meanX, meanY  []float64
	cXY, m2X, m2Y []float64
}

func (c *corrAcc) ensure(n int) {
	c.ns = growTo(c.ns, n)
	c.meanX = growTo(c.meanX, n)
	c.meanY = growTo(c.meanY, n)
	c.cXY = growTo(c.cXY, n)
	c.m2X = growTo(c.m2X, n)
	c.m2Y = growTo(c.m2Y, n)
}

func (c *corrAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	if len(args) != 2 {
		return fmt.Errorf("corr takes 2 arguments")
	}
	c.ensure(numGroups)
	xs, xValid, err := asFloat64Values(args[0])
	if err != nil {
		return err
	}
	ys, yValid, err := asFloat64Values(args[1])
	if err != nil {
		return err
	}
	for i, g := range groupIdx {
		if (xValid != nil && !xValid.Get(i)) || (yValid != nil && !yValid.Get(i)) {
			continue
		}
		x, y := xs[i], ys[i]
		c.ns[g]++
		n := float64(c.ns[g])
		dx := x - c.meanX[g]
		c.meanX[g] += dx / n
		dy := y - c.meanY[g]
		c.meanY[g] += dy / n
		c.cXY[g] += dx * (y - c.meanY[g])
		c.m2X[g] += dx * (x - c.meanX[g])
		c.m2Y[g] += dy * (y - c.meanY[g])
	}
	return nil
}

func (c *corrAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	c.ensure(numGroups)
	ns := states[0].(*arrow.Int64Array).Values()
	mxs := states[1].(*arrow.Float64Array).Values()
	mys := states[2].(*arrow.Float64Array).Values()
	cxys := states[3].(*arrow.Float64Array).Values()
	m2xs := states[4].(*arrow.Float64Array).Values()
	m2ys := states[5].(*arrow.Float64Array).Values()
	for i, g := range groupIdx {
		nb := ns[i]
		if nb == 0 {
			continue
		}
		na := c.ns[g]
		total := float64(na + nb)
		dx := mxs[i] - c.meanX[g]
		dy := mys[i] - c.meanY[g]
		f := float64(na) * float64(nb) / total
		c.cXY[g] += cxys[i] + dx*dy*f
		c.m2X[g] += m2xs[i] + dx*dx*f
		c.m2Y[g] += m2ys[i] + dy*dy*f
		c.meanX[g] += dx * float64(nb) / total
		c.meanY[g] += dy * float64(nb) / total
		c.ns[g] = na + nb
	}
	return nil
}

func (c *corrAcc) State() ([]arrow.Array, error) {
	return []arrow.Array{
		arrow.NewInt64(append([]int64(nil), c.ns...)),
		arrow.NewFloat64(append([]float64(nil), c.meanX...)),
		arrow.NewFloat64(append([]float64(nil), c.meanY...)),
		arrow.NewFloat64(append([]float64(nil), c.cXY...)),
		arrow.NewFloat64(append([]float64(nil), c.m2X...)),
		arrow.NewFloat64(append([]float64(nil), c.m2Y...)),
	}, nil
}

func (c *corrAcc) Evaluate() (arrow.Array, error) {
	n := len(c.ns)
	out := make([]float64, n)
	var valid arrow.Bitmap
	for g := 0; g < n; g++ {
		den := math.Sqrt(c.m2X[g] * c.m2Y[g])
		if c.ns[g] < 2 || den == 0 {
			if valid == nil {
				valid = arrow.NewBitmapSet(n)
			}
			valid.Clear(g)
			continue
		}
		out[g] = c.cXY[g] / den
	}
	return arrow.NewNumeric(arrow.Float64, out, valid), nil
}

// medianAcc collects values per group and sorts at evaluation.
type medianAcc struct {
	groups [][]float64
}

func (m *medianAcc) ensure(n int) {
	m.groups = growTo(m.groups, n)
}

func (m *medianAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	m.ensure(numGroups)
	vals, valid, err := asFloat64Values(args[0])
	if err != nil {
		return err
	}
	for i, g := range groupIdx {
		if valid != nil && !valid.Get(i) {
			continue
		}
		m.groups[g] = append(m.groups[g], vals[i])
	}
	return nil
}

func (m *medianAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	m.ensure(numGroups)
	la := states[0].(*arrow.ListArray)
	for i, g := range groupIdx {
		if la.IsNull(i) {
			continue
		}
		vals := la.ValueArray(i).(*arrow.Float64Array)
		m.groups[g] = append(m.groups[g], vals.Values()...)
	}
	return nil
}

func (m *medianAcc) State() ([]arrow.Array, error) {
	lb := arrow.NewListBuilder(arrow.Float64)
	child := lb.Child().(*arrow.NumericBuilder[float64])
	for _, vals := range m.groups {
		for _, v := range vals {
			child.Append(v)
		}
		lb.CloseList()
	}
	return []arrow.Array{lb.Finish()}, nil
}

func (m *medianAcc) Evaluate() (arrow.Array, error) {
	n := len(m.groups)
	out := make([]float64, n)
	var valid arrow.Bitmap
	for g, vals := range m.groups {
		if len(vals) == 0 {
			if valid == nil {
				valid = arrow.NewBitmapSet(n)
			}
			valid.Clear(g)
			continue
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		mid := len(sorted) / 2
		if len(sorted)%2 == 1 {
			out[g] = sorted[mid]
		} else {
			out[g] = (sorted[mid-1] + sorted[mid]) / 2
		}
	}
	return arrow.NewNumeric(arrow.Float64, out, valid), nil
}

// distinctAcc implements COUNT(DISTINCT x) as one exact set of (group,
// value) members: the 4-byte group id followed by the value's rowformat key,
// the normalization GROUP BY uses, so the two agree on which values are
// equal. A lone count(DISTINCT) plans as a nested group-by (DESIGN.md §6).
type distinctAcc struct {
	enc    *rowformat.Encoder
	seen   map[string]struct{}
	counts []int64 // members per group
	key    []byte  // scratch for one member
}

// add puts row of the one-column vals into g's set; NULL is never a member.
func (d *distinctAcc) add(g uint32, vals []arrow.Array, row int) {
	if vals[0].IsNull(row) {
		return
	}
	d.key = binary.BigEndian.AppendUint32(d.key[:0], g)
	d.key = d.enc.AppendRowKey(d.key, vals, row)
	if _, ok := d.seen[string(d.key)]; !ok {
		d.seen[string(d.key)] = struct{}{}
		d.counts[g]++
	}
}

func (d *distinctAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	d.counts = growTo(d.counts, numGroups)
	for i, g := range groupIdx {
		d.add(g, args[:1], i)
	}
	return nil
}

func (d *distinctAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	d.counts = growTo(d.counts, numGroups)
	la := states[0].(*arrow.ListArray)
	vals, offsets := []arrow.Array{la.Values()}, la.Offsets()
	for i, g := range groupIdx {
		if la.IsValid(i) {
			for row := offsets[i]; row < offsets[i+1]; row++ {
				d.add(g, vals, int(row))
			}
		}
	}
	return nil
}

// State lists each group's values: counts says which rows of the value
// column are whose, and starts[row] finds the key that decodes to row.
func (d *distinctAcc) State() ([]arrow.Array, error) {
	offsets := make([]int32, len(d.counts)+1)
	for g, c := range d.counts {
		offsets[g+1] = offsets[g] + int32(c)
	}
	next, starts := slices.Clone(offsets), make([]int, len(d.seen))
	var arena []byte
	for member := range d.seen {
		g := binary.BigEndian.Uint32([]byte(member[:4]))
		starts[next[g]] = len(arena)
		next[g]++
		arena = append(arena, member[4:]...)
	}
	vals, err := d.enc.DecodeKeys(len(starts), len(arena), func(row int) []byte { return arena[starts[row]:] })
	if err != nil {
		return nil, err
	}
	return []arrow.Array{arrow.NewList(d.enc.Types()[0], offsets, vals[0], nil)}, nil
}

func (d *distinctAcc) Evaluate() (arrow.Array, error) {
	return arrow.NewInt64(slices.Clone(d.counts)), nil
}

// firstLastAcc keeps the first or last non-null value per group in arrival
// order.
type firstLastAcc struct {
	argType *arrow.DataType
	last    bool
	vals    []arrow.Scalar
	seen    []bool
}

func (f *firstLastAcc) ensure(n int) {
	old := len(f.seen)
	f.seen = growTo(f.seen, n)
	f.vals = growTo(f.vals, n)
	for i := old; i < len(f.vals); i++ {
		f.vals[i] = arrow.NullScalar(f.argType)
	}
}

func (f *firstLastAcc) Update(args []arrow.Array, groupIdx []uint32, numGroups int) error {
	f.ensure(numGroups)
	a := args[0]
	for i, g := range groupIdx {
		if a.IsNull(i) {
			continue
		}
		if f.last || !f.seen[g] {
			f.vals[g] = a.GetScalar(i)
			f.seen[g] = true
		}
	}
	return nil
}

func (f *firstLastAcc) MergeStates(states []arrow.Array, groupIdx []uint32, numGroups int) error {
	f.ensure(numGroups)
	vals := states[0]
	seen := states[1].(*arrow.BoolArray)
	for i, g := range groupIdx {
		if !seen.Value(i) {
			continue
		}
		if f.last || !f.seen[g] {
			f.vals[g] = vals.GetScalar(i)
			f.seen[g] = true
		}
	}
	return nil
}

func (f *firstLastAcc) State() ([]arrow.Array, error) {
	vb := arrow.NewBuilder(f.argType)
	sb := arrow.NewBoolBuilder()
	for g, ok := range f.seen {
		vb.AppendScalar(f.vals[g])
		sb.Append(ok)
	}
	return []arrow.Array{vb.Finish(), sb.Finish()}, nil
}

func (f *firstLastAcc) Evaluate() (arrow.Array, error) {
	b := arrow.NewBuilder(f.argType)
	for g, ok := range f.seen {
		if !ok {
			b.AppendNull()
		} else {
			b.AppendScalar(f.vals[g])
		}
	}
	return b.Finish(), nil
}
