package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"gofusion/internal/arrow"
	"gofusion/internal/catalog"
	"gofusion/internal/memory"
	"gofusion/internal/physical"
	"gofusion/internal/testutil"
)

// TestAggregateSpillCancel cancels a spilling aggregation — Single at one
// partition, Final over two partial partitions — once while it still
// absorbs input after spilling and once after its first output batch. The
// next read fails with the cancellation, not EOF, and after Close no spill
// file, reservation or goroutine is left.
func TestAggregateSpillCancel(t *testing.T) {
	res, err := bigTableBatches(t, 5000, 250).Scan(catalog.ScanRequest{Partitions: 1, Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := CollectPlan(physical.NewExecContext(), NewTableScanExec("big", res))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2} {
		for _, absorbing := range []bool{true, false} {
			name := fmt.Sprintf("p%d/emitting", parts)
			if absorbing {
				name = fmt.Sprintf("p%d/absorbing", parts)
			}
			t.Run(name, func(t *testing.T) {
				defer testutil.CheckNoGoroutineLeak(t)()
				spillDir := t.TempDir()
				dm := memory.NewDiskManager(spillDir)
				defer dm.Close()
				cctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ctx := physical.NewExecContext()
				ctx.Ctx = cctx
				ctx.Pool = memory.NewGreedyPool(512) // below any group table: a spill per batch
				ctx.Disk = dm
				ctx.BatchRows = 10

				src := &hookedSource{schema: batches[0].Schema(), parts: make([][]*arrow.RecordBatch, parts)}
				for i, b := range batches {
					src.parts[i%parts] = append(src.parts[i%parts], b)
				}
				var agg *HashAggregateExec
				var plan physical.ExecutionPlan
				if parts == 1 {
					agg = sumCountByK(t, src, SingleAgg, 0)
					plan = agg
				} else {
					agg, _ = twoPhaseOver(t, src, 2)
					plan = &CoalescePartitionsExec{Input: agg}
				}
				spilledFiles := -1
				if absorbing {
					src.onBatch = func(p, i int) {
						if p != 0 || i != len(src.parts[0])/2 {
							return
						}
						// The final side spills on other goroutines at p2.
						for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
							if files, _ := os.ReadDir(spillDir); len(files) >= 2 {
								break
							}
						}
						files, _ := os.ReadDir(spillDir)
						spilledFiles = len(files)
						cancel()
					}
				}

				s, err := plan.Execute(ctx, 0)
				if err != nil {
					t.Fatal(err)
				}
				if !absorbing {
					switch _, err := s.Next(); {
					case err == io.EOF:
						t.Fatalf("p%d: the aggregate ended before its first batch", parts)
					case err != nil:
						t.Fatalf("p%d: first batch: %v", parts, err)
					}
					if n := agg.Metrics().SpillCount(); n < 2 {
						t.Fatalf("p%d: %d spills before the first output batch, want at least 2", parts, n)
					}
					cancel()
				}
				// A cancelled aggregation must not end like a complete one.
				if _, err := s.Next(); err == io.EOF || !errors.Is(err, context.Canceled) {
					t.Errorf("p%d: read after cancel: %v, want context.Canceled", parts, err)
				}
				if absorbing && spilledFiles < 2 {
					t.Errorf("p%d: %d spill files when cancelled, want at least 2", parts, spilledFiles)
				}
				s.Close()
				// At p2 the Final aggregates run on exchange producers, and
				// Close does not wait for them: they close their pushers once
				// they see the cancellation, which a loaded machine may delay.
				left := 0
				for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
					files, _ := os.ReadDir(spillDir)
					left = len(files)
					if left == 0 && ctx.Pool.Reserved() == 0 || time.Now().After(deadline) {
						break
					}
				}
				if left != 0 {
					t.Errorf("p%d: %d spill files left after Close", parts, left)
				}
				if got := ctx.Pool.Reserved(); got != 0 {
					t.Errorf("p%d: %d bytes still reserved", parts, got)
				}
			})
		}
	}
}
