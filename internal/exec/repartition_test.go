package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/arrow/compute"
	"gofusion/internal/physical"
)

// scatterBatch builds n rows of (id, k_int, k_str, payload): id is the row
// number, the keys are nullable and drawn from card values, the payload is
// a nullable string so the gather is checked on variable-width data too.
func scatterBatch(rng *rand.Rand, n, card int) *arrow.RecordBatch {
	schema := arrow.NewSchema(
		arrow.NewField("id", arrow.Int64, false),
		arrow.NewField("k_int", arrow.Int64, true),
		arrow.NewField("k_str", arrow.String, true),
		arrow.NewField("payload", arrow.String, true),
	)
	id := arrow.NewNumericBuilder[int64](arrow.Int64)
	ki := arrow.NewNumericBuilder[int64](arrow.Int64)
	ks := arrow.NewStringBuilder(arrow.String)
	pl := arrow.NewStringBuilder(arrow.String)
	for i := 0; i < n; i++ {
		id.Append(int64(i))
		k := rng.Intn(card)
		if rng.Intn(16) == 0 {
			ki.AppendNull()
		} else {
			ki.Append(int64(k)*7919 - 1000)
		}
		if rng.Intn(16) == 0 {
			ks.AppendNull()
		} else {
			ks.Append(fmt.Sprintf("key-%d", k))
		}
		if rng.Intn(5) == 0 {
			pl.AppendNull()
		} else {
			pl.Append(fmt.Sprintf("%0*d", rng.Intn(40), i))
		}
	}
	return arrow.NewRecordBatch(schema, []arrow.Array{id.Finish(), ki.Finish(), ks.Finish(), pl.Finish()})
}

// TestSplitByHashScatter is the hash exchange's contract as a property: for
// random batches and 1..7 outputs (non-powers of two included), every input
// row lands in exactly one output, unchanged and in input order; rows with
// equal keys — null keys included — share an output; and distinct keys
// spread over the outputs to within 10% of an even share.
func TestSplitByHashScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	keySets := map[string][]physical.PhysicalExpr{
		"int":   {physical.NewColumnExpr(1, "k_int", arrow.Int64)},
		"str":   {physical.NewColumnExpr(2, "k_str", arrow.String)},
		"mixed": {physical.NewColumnExpr(2, "k_str", arrow.String), physical.NewColumnExpr(1, "k_int", arrow.Int64)},
	}
	for name, keys := range keySets {
		for parts := 1; parts <= 7; parts++ {
			t.Run(fmt.Sprintf("%s/parts=%d", name, parts), func(t *testing.T) {
				e := &RepartitionExec{Scheme: HashPartitioning, HashExprs: keys, NumParts: parts}
				var sc hashScatter
				home := map[string]int{} // rendered key -> output
				// A sliced batch, a one-row batch and a wide one reuse one scratch.
				for _, b := range []*arrow.RecordBatch{
					scatterBatch(rng, 5000, 300).Slice(1234, 2000),
					scatterBatch(rng, 1, 1),
					scatterBatch(rng, 40_000, 40_000),
				} {
					n := b.NumRows()
					out, err := e.splitByHash(b, &sc)
					if err != nil {
						t.Fatal(err)
					}
					if len(out) != parts {
						t.Fatalf("%d outputs, want %d", len(out), parts)
					}
					if parts == 1 && out[0].batch != b {
						t.Fatal("a batch bound for one output must be forwarded untouched")
					}
					want := rowsAsStrings(b)
					first := b.Column(0).(*arrow.Int64Array).Value(0)
					seen := 0
					for p, v := range out {
						ob := v.batch
						if ob == nil {
							continue
						}
						if ob.NumRows() == 0 {
							t.Fatalf("output %d is an empty batch, want nil", p)
						}
						// The hashes sent along are the ones a consumer with
						// the same keys would compute.
						cols := make([]arrow.Array, len(keys))
						for i, x := range keys {
							cols[i], _ = physical.EvalToArray(x, ob, nil)
						}
						if !slices.Equal(v.hashes, compute.HashBatch(cols, ob.NumRows(), nil)) {
							t.Fatalf("output %d: the hashes sent with the batch are not its rows' hashes", p)
						}
						got := rowsAsStrings(ob)
						ids := ob.Column(0).(*arrow.Int64Array)
						prev := int64(-1)
						for r := 0; r < ob.NumRows(); r++ {
							id := ids.Value(r)
							if id <= prev {
								t.Fatalf("output %d: row id %d after %d: input order lost or row duplicated", p, id, prev)
							}
							prev = id
							if got[r] != want[id-first] {
								t.Fatalf("output %d row %d = %q, want input row %d = %q", p, r, got[r], id, want[id-first])
							}
							key := fmt.Sprint(ob.Column(1).GetScalar(r), "|", ob.Column(2).GetScalar(r))
							if name == "int" {
								key = fmt.Sprint(ob.Column(1).GetScalar(r))
							} else if name == "str" {
								key = fmt.Sprint(ob.Column(2).GetScalar(r))
							}
							if h, ok := home[key]; ok && h != p {
								t.Fatalf("key %s went to outputs %d and %d", key, h, p)
							}
							home[key] = p
						}
						seen += ob.NumRows()
					}
					// Ids strictly increase within an output and every row
					// matched its input row, so equal totals mean a bijection.
					if seen != n {
						t.Fatalf("outputs hold %d rows, input had %d", seen, n)
					}
				}
				perOutput := make([]int, parts)
				for _, p := range home {
					perOutput[p]++
				}
				even := float64(len(home)) / float64(parts)
				for p, c := range perOutput {
					if d := float64(c) - even; d > 0.1*even || d < -0.1*even {
						t.Errorf("output %d got %d of %d distinct keys, want %.0f ± 10%%", p, c, len(home), even)
					}
				}
			})
		}
	}
}

// BenchmarkSplitByHash is the hash exchange's per-batch cost, a development
// tool: 8192-row batches of 2 or 8 columns scattered over 2 or 7 outputs on
// an integer or a string key.
func BenchmarkSplitByHash(b *testing.B) {
	const n = 8192
	for _, key := range []string{"int", "str"} {
		for _, ncols := range []int{2, 8} {
			for _, parts := range []int{2, 7} {
				b.Run(fmt.Sprintf("key=%s/cols=%d/parts=%d", key, ncols, parts), func(b *testing.B) {
					rng := rand.New(rand.NewSource(1))
					var fields []arrow.Field
					var cols []arrow.Array
					for c := 0; c < ncols; c++ {
						// Even columns are int64, odd ones strings; the key
						// is column 0 or 1.
						if c%2 == 0 {
							vals := make([]int64, n)
							for i := range vals {
								vals[i] = rng.Int63()
							}
							fields = append(fields, arrow.NewField(fmt.Sprintf("c%d", c), arrow.Int64, false))
							cols = append(cols, arrow.NewInt64(vals))
						} else {
							sb := arrow.NewStringBuilder(arrow.String)
							for i := 0; i < n; i++ {
								sb.Append(fmt.Sprintf("id%010d", rng.Intn(1_000_000)))
							}
							fields = append(fields, arrow.NewField(fmt.Sprintf("c%d", c), arrow.String, false))
							cols = append(cols, sb.Finish())
						}
					}
					batch := arrow.NewRecordBatch(arrow.NewSchema(fields...), cols)
					keyCol := 0
					if key == "str" {
						keyCol = 1
					}
					e := &RepartitionExec{Scheme: HashPartitioning, NumParts: parts,
						HashExprs: []physical.PhysicalExpr{physical.NewColumnExpr(keyCol, fields[keyCol].Name, fields[keyCol].Type)}}
					var sc hashScatter
					b.ReportAllocs()
					b.SetBytes(batchBytes(batch))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := e.splitByHash(batch, &sc); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
