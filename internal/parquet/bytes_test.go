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
	"customer": "ac253d1c9ef56c9838b64fd1704cf34172f8c67875f7032400ecc64d1a00dc56",
	"hits":     "e7955ae81c2fc78bc34220093fc41368dff1d438144411b199572da0d33a1441",
	"lineitem": "93c084dc31dd3dccb20da437d035e2fe14bf71a42188b2d1688eaee83ba7ec69",
	"nation":   "ad950d44ed727833c0d3f3e13febcf0e29ae7db3ef1e0776b5b3db7b044494ff",
	"orders":   "2ac77e69ef04d3b94716453a41d63dc4b1db3b5912324926c8f58e41d4aea966",
	"part":     "43c26cdaa1b1e018f45d9097daf284ebf77ac140cde3dad89f92fc6948d40f68",
	"partsupp": "3b9bc08fb4772a0b70a5d75a6ebfb6da27e4573d5d4406dc1e58909c5f33ba56",
	"region":   "7787f2ac76e0882a1aa701df763868c7ac21b9c8851a9e4b24fa3e878e12dde6",
	"supplier": "045f3e9a10042f481fcd4174389715909da380fa25a3047b94b0a9b466705020",
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
