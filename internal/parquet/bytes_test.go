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
	"customer": "3294ee0dba2bdb553676cee2d5e6193ba8451d67ada20ee0c079348bff15c60d",
	"hits":     "d3a0f19862c527f94ab599e3725b678dacac8d8f7840dc71c17df5897247bf2c",
	"lineitem": "4cc8689ec8a990350137602061bfc2bdd183be7b3236ce3f406b4783eddda5e5",
	"nation":   "3758282b1e233cf5dbbecd2faa43c012e556a82fe1a3601e5d282f0b68800d79",
	"orders":   "919d1daeec0f39edf1c5dedc2b2e462a2324aa3821faebaf912261717c3e9648",
	"part":     "4c4915daa2719ac4f189512552ade58a5612f886bca0dcdebd2b4e6841a3d34d",
	"partsupp": "291927fa4151e38ae20b9d32bf81ba047af94e2a8ee9a8a63eee520c7952f7cf",
	"region":   "2108674a32dfabd937106711a519c263571f6269bbb58675d92d82b261dd2101",
	"supplier": "c093d5d2a0542edccd2d4f0ba9715ecc85f0a622673a48732c8d6054fd5b6f12",
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
