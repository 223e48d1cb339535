package tpch_test

import (
	"testing"

	"gofusion/internal/arrow"
	"gofusion/internal/baseline"
	"gofusion/internal/core"
	"gofusion/internal/workload/tpch"
)

// TestInListMixedLiterals: an IN list over an integer column that mixes
// integer and non-integral literals plans (it used to panic at plan
// time) and returns the rows of its `=`/`OR` form, in memory, over GPQ
// (where the list is pushed into the scan) and in TightDB.
func TestInListMixedLiterals(t *testing.T) {
	const sf = 0.01
	dir := t.TempDir()
	if err := tpch.WriteGPQ(dir, sf, 2048); err != nil {
		t.Fatal(err)
	}
	mem := core.NewSession(core.SessionConfig{TargetPartitions: 2})
	if err := tpch.RegisterInMemory(mem, sf); err != nil {
		t.Fatal(err)
	}
	gpq := core.NewSession(core.SessionConfig{TargetPartitions: 2})
	if err := tpch.RegisterGPQ(gpq, dir); err != nil {
		t.Fatal(err)
	}
	be := baseline.New(2)
	if err := be.RegisterGPQ("lineitem", dir+"/lineitem.gpq"); err != nil {
		t.Fatal(err)
	}
	count := func(name, where string) int64 {
		t.Helper()
		q := "SELECT count(*) FROM lineitem WHERE " + where
		var b *arrow.RecordBatch
		var err error
		if name == "tightdb" {
			b, err = be.Query(q)
		} else {
			s := mem
			if name == "gpq" {
				s = gpq
			}
			df, perr := s.SQL(q)
			if perr != nil {
				t.Fatalf("%s: %s: %v", name, q, perr)
			}
			b, err = df.CollectBatch()
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", name, q, err)
		}
		return b.Column(0).(*arrow.Int64Array).Value(0)
	}
	cases := []struct {
		in, or string
		want   int64 // -1: only the two forms must agree
	}{
		{"l_linenumber IN (1, 2.5)", "l_linenumber = 1 OR l_linenumber = 2.5", 15000},
		{"l_linenumber NOT IN (1, 2.5)", "NOT (l_linenumber = 1 OR l_linenumber = 2.5)", -1},
		{"l_linenumber IN (2.5, 7.0, 300)", "l_linenumber = 2.5 OR l_linenumber = 7.0 OR l_linenumber = 300", -1},
		{"l_linenumber NOT IN (1, 2.5, NULL)", "NOT (l_linenumber = 1 OR l_linenumber = 2.5 OR l_linenumber = NULL)", 0},
		{"l_linenumber + 0 IN (1, 2.5, l_linenumber - 1)", "l_linenumber + 0 = 1 OR l_linenumber + 0 = 2.5 OR l_linenumber + 0 = l_linenumber - 1", 15000},
	}
	for _, c := range cases {
		want := count("memory", c.or)
		if c.want >= 0 && want != c.want {
			t.Fatalf("%s: %d rows, want %d", c.or, want, c.want)
		}
		for _, name := range []string{"memory", "gpq", "tightdb"} {
			if got := count(name, c.in); got != want {
				t.Fatalf("%s: %s returns %d rows, its OR form %d", name, c.in, got, want)
			}
		}
	}
}
