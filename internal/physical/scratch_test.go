package physical

import (
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/logical"
)

// scratchBatch is n rows of every column the scratch expressions read;
// with nulls, every seventh row of each column is NULL.
func scratchBatch(schema *arrow.Schema, n int, nulls bool) *arrow.RecordBatch {
	cols := make([]arrow.Array, schema.NumFields())
	for c, f := range schema.Fields() {
		b := arrow.NewBuilder(f.Type)
		for i := 0; i < n; i++ {
			if nulls && (i+c)%7 == 0 {
				b.AppendNull()
				continue
			}
			v := int64(i*31+c*17)%200 - 100
			switch f.Type.ID {
			case arrow.INT16:
				b.AppendScalar(arrow.NewScalar(f.Type, int16(v)))
			case arrow.INT32:
				b.AppendScalar(arrow.NewScalar(f.Type, int32(v)))
			case arrow.FLOAT64:
				b.AppendScalar(arrow.NewScalar(f.Type, float64(v)/4))
			default: // Int64 and decimals
				b.AppendScalar(arrow.NewScalar(f.Type, v))
			}
		}
		cols[c] = b.Finish()
	}
	return arrow.NewRecordBatchWithRows(schema, cols, n)
}

// computeNodes counts the nodes of e that compute an array into scratch.
func computeNodes(e PhysicalExpr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		return 1 + computeNodes(x.L) + computeNodes(x.R)
	case *NotExpr:
		return 1 + computeNodes(x.E)
	case *NegativeExpr:
		return 1 + computeNodes(x.E)
	case *CastExpr:
		return 1 + computeNodes(x.E)
	}
	return 0
}

// backing identifies an array's value buffer.
func backing(a arrow.Array) any {
	switch x := a.(type) {
	case *arrow.Int64Array:
		return &x.Values()[0]
	case *arrow.Float64Array:
		return &x.Values()[0]
	case *arrow.BoolArray:
		return &x.ValuesBitmap()[0]
	}
	return nil
}

// TestScratchEvaluation: evaluating with a Scratch gives exactly the
// nil-Scratch result, reuses the node's buffers across batches, and on a
// warm Scratch allocates at most one array header per computing node.
func TestScratchEvaluation(t *testing.T) {
	schema := arrow.NewSchema(
		arrow.NewField("i16", arrow.Int16, true),
		arrow.NewField("i32", arrow.Int32, true),
		arrow.NewField("a", arrow.Int64, true),
		arrow.NewField("b", arrow.Int64, true),
		arrow.NewField("da", arrow.Decimal(15, 2), true),
		arrow.NewField("db", arrow.Decimal(15, 2), true),
		arrow.NewField("x", arrow.Float64, true),
	)
	bin := func(op logical.BinOp, l, r logical.Expr) logical.Expr { return &logical.BinaryExpr{Op: op, L: l, R: r} }
	exprs := []logical.Expr{
		bin(logical.OpAdd, logical.Col("i16"), logical.Lit(1)),
		bin(logical.OpMul, logical.Col("da"), bin(logical.OpSub, logical.Lit(1), logical.Col("db"))),
		logical.And(bin(logical.OpGt, logical.Col("a"), logical.Lit(5)), bin(logical.OpLt, logical.Col("b"), logical.Lit(3))),
		bin(logical.OpSub, &logical.Cast{E: logical.Col("i32"), To: arrow.Int64}, logical.Lit(2)),
		&logical.Negative{E: logical.Col("x")},
	}
	comp := NewCompiler(logical.FromArrow("t", schema), reg)
	for _, nulls := range []bool{false, true} {
		batches := []*arrow.RecordBatch{
			scratchBatch(schema, 8192, nulls), scratchBatch(schema, 100, nulls),
			scratchBatch(schema, 8192, nulls), scratchBatch(schema, 0, nulls),
		}
		for _, le := range exprs {
			pe, err := comp.Compile(le)
			if err != nil {
				t.Fatal(err)
			}
			var s Scratch
			var first any
			for k, b := range batches {
				got, err := EvalToArray(pe, b, &s)
				if err != nil {
					t.Fatalf("%s: %v", pe, err)
				}
				want, err := EvalToArray(pe, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !got.DataType().Equal(want.DataType()) || got.Len() != want.Len() {
					t.Fatalf("%s batch %d: %s[%d], nil scratch gives %s[%d]", pe, k, got.DataType(), got.Len(), want.DataType(), want.Len())
				}
				for i := 0; i < got.Len(); i++ {
					if g, w := got.GetScalar(i).String(), want.GetScalar(i).String(); g != w {
						t.Fatalf("%s batch %d row %d: %s, nil scratch gives %s", pe, k, i, g, w)
					}
				}
				switch k {
				case 0:
					first = backing(got)
				case 2:
					if first == nil || backing(got) != first {
						t.Fatalf("%s: the third batch did not reuse the first batch's buffer", pe)
					}
				}
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := EvalToArray(pe, batches[0], &s); err != nil {
					t.Fatal(err)
				}
			})
			if max := float64(computeNodes(pe)); allocs > max {
				t.Fatalf("%s (nulls=%v): %.0f allocations per warm evaluation, want at most %.0f", pe, nulls, allocs, max)
			}
		}
	}
}
