package testutil

import (
	"runtime"
	"testing"
	"time"
)

// SettledGoroutines samples runtime.NumGoroutine after letting transient
// goroutines (exchange producers draining on close) wind down.
func SettledGoroutines() int {
	prev := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		cur := runtime.NumGoroutine()
		if cur >= prev {
			return cur
		}
		prev = cur
	}
	return prev
}

// CheckNoGoroutineLeak snapshots the settled goroutine count and returns
// the check to defer. It fails the test when the count grew, which in
// this engine means an exchange producer or spill-merge goroutine
// outlived its stream's Close. Producers stopped by a Close exit on their
// own schedule, which a loaded machine can stretch past any settling
// window, so the check waits up to leakTimeout for the count to come back.
//
//	defer testutil.CheckNoGoroutineLeak(t)()
func CheckNoGoroutineLeak(t testing.TB) func() {
	t.Helper()
	baseline := SettledGoroutines()
	return func() {
		t.Helper()
		after := SettledGoroutines()
		for deadline := time.Now().Add(leakTimeout); after > baseline && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > baseline {
			t.Errorf("goroutine leak: %d settled before, %d after", baseline, after)
		}
	}
}

const leakTimeout = 5 * time.Second
