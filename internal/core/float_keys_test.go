package core

import (
	"fmt"
	"math"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
)

// TestFloatKeyIdentity checks that GROUP BY, DISTINCT, count(DISTINCT),
// hash-join keys and ORDER BY give floats one identity at one and four
// partitions: two non-NaN values are one key exactly when the `=` kernel
// calls them equal (so -0.0 is +0.0), and every NaN is one key — the
// answer constant-folded `=` gives, where the kernel's IEEE comparison
// says NaN <> NaN. NaNs sort after every other value, ascending.
func TestFloatKeyIdentity(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0xFFF8000000000000) // what 0.0/0.0 yields on amd64
	nanB := math.NaN()
	vals := []float64{0, negZero, nanA, nanB, 1, -1, math.Inf(1), 0, nanA, negZero, math.Inf(-1), 1}

	// class[i] is the first value index the identity makes vals[i] equal to.
	class := make([]int, len(vals))
	for i, v := range vals {
		class[i] = i
		for j := 0; j < i; j++ {
			same := math.IsNaN(v) && math.IsNaN(vals[j])
			if !math.IsNaN(v) && !math.IsNaN(vals[j]) {
				k, err := compute.Compare(compute.Eq, arrow.NewFloat64([]float64{v}), arrow.NewFloat64([]float64{vals[j]}), nil)
				if err != nil {
					t.Fatal(err)
				}
				same = k.Value(0)
			}
			if same {
				class[i] = class[j]
				break
			}
		}
	}
	size := map[int]int64{}
	for _, c := range class {
		size[c]++
	}
	var joinRows int64
	for _, n := range size {
		joinRows += n * n
	}

	for _, parts := range []int{1, 4} {
		t.Run(fmt.Sprintf("p%d", parts), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TargetPartitions = parts
			s := NewSession(cfg)
			schema := arrow.NewSchema(arrow.NewField("x", arrow.Float64, false))
			var batches []*arrow.RecordBatch
			for off := 0; off < len(vals); off += 3 {
				batches = append(batches, arrow.NewRecordBatch(schema, []arrow.Array{arrow.NewFloat64(vals[off : off+3])}))
			}
			if err := s.RegisterBatches("f", schema, batches); err != nil {
				t.Fatal(err)
			}

			b := collect(t, s, "SELECT x, count(*) AS n FROM f GROUP BY x")
			if b.NumRows() != len(size) {
				t.Fatalf("GROUP BY x: %d groups, want %d", b.NumRows(), len(size))
			}
			xs, ns := b.Column(0).(*arrow.Float64Array), b.Column(1).(*arrow.Int64Array)
			for g := 0; g < b.NumRows(); g++ {
				x := xs.Value(g)
				if x == 0 && math.Signbit(x) {
					t.Fatalf("GROUP BY x emitted -0 for the zero group")
				}
				for i, v := range vals {
					if v == x || math.IsNaN(v) && math.IsNaN(x) {
						if want := size[class[i]]; ns.Value(g) != want {
							t.Fatalf("group %v counts %d rows, want %d", x, ns.Value(g), want)
						}
						break
					}
				}
			}
			if n := collect(t, s, "SELECT DISTINCT x FROM f").NumRows(); n != len(size) {
				t.Fatalf("SELECT DISTINCT x: %d rows, want %d", n, len(size))
			}
			cd := collect(t, s, "SELECT count(DISTINCT x) FROM f").Column(0).(*arrow.Int64Array).Value(0)
			if cd != int64(len(size)) {
				t.Fatalf("count(DISTINCT x) = %d, want %d", cd, len(size))
			}
			j := collect(t, s, "SELECT count(*) FROM f a JOIN f b ON a.x = b.x").Column(0).(*arrow.Int64Array).Value(0)
			if j != joinRows {
				t.Fatalf("self-join on x: %d rows, want %d", j, joinRows)
			}
			sorted := collect(t, s, "SELECT x FROM f ORDER BY x").Column(0).(*arrow.Float64Array).Values()
			for i := 1; i < len(sorted); i++ {
				if math.IsNaN(sorted[i-1]) && !math.IsNaN(sorted[i]) || sorted[i-1] > sorted[i] {
					t.Fatalf("ORDER BY x is not ascending with NaN last: %v", sorted)
				}
			}
		})
	}
}
