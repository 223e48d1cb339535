package parquet_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/parquet"
	"gofusion/internal/workload/clickbench"
	"gofusion/internal/workload/tpch"
)

// pinnedSums are the sha256 sums of the GPQ files TestWriterBytesPinned
// writes. The writer is deterministic: the same batches and options give
// the same bytes at any GOMAXPROCS. A change here changes the file format
// in practice and must be deliberate.
var pinnedSums = map[string]string{
	"customer": "c1f7a379daf50a81879a9705a3f55f0e2254d958bc9028ba4c4fac7f1313c4b3",
	"hits":     "ef8ef0daa3578528cd9f2eebceae3f9ac572c0f2ff8330ec769d2d390ab7253b",
	"lineitem": "c69aeb7a72a168438d605c1b831beb5542d21a8f14bbecb11acf66b2e28b2898",
	"nation":   "d3090a742a20c776a628e753dc7014a75c249df58ba996d767532bd209278618",
	"orders":   "d484db3cba3a0f22ce6575b808877e79641a79c550361ea107b3ebd99faa144e",
	"part":     "9af4ce1568d28f7f8ff4ff429d43712d911c74dc944740ff4c77d229529c2d5a",
	"partsupp": "4918888d6bb632657726cad7c365ff68562ffc4eac5a3f1fac877cb67248b09f",
	"region":   "216d1c12b8859d05a8f1eefb6dfbd04db81869b2c1c7145a610878996bd0405f",
	"supplier": "032010b38726d6c380222095394d24cefd8d205705fa19f460a96b18c70cbfc9",
}

func pinnedOptions() parquet.WriterOptions {
	opts := parquet.DefaultWriterOptions()
	opts.RowGroupRows = 2048
	opts.PageRows = 512
	return opts
}

func sumOf(t *testing.T, schema *arrow.Schema, batches []*arrow.RecordBatch) string {
	t.Helper()
	var buf bytes.Buffer
	fw, err := parquet.NewFileWriter(&buf, schema, pinnedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := fw.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	h := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(h[:])
}

func TestWriterBytesPinned(t *testing.T) {
	got := map[string]string{}
	g := tpch.NewGenerator(0.001)
	for _, name := range tpch.TableNames {
		schema, batches, err := g.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		got[name] = sumOf(t, schema, batches)
	}
	schema, batches := clickbench.NewGenerator(5000).Generate()
	got["hits"] = sumOf(t, schema, batches)
	for name, sum := range got {
		if want := pinnedSums[name]; sum != want {
			t.Errorf("%s: sha256 %s, want %s", name, sum, want)
		}
	}
}
