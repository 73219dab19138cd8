package allocs

import (
	"math"
	"runtime"
	"testing"
)

var sink [1024][]byte

// TestAgreesWithMemStats pins the meaning of the counters engine Stats
// report: over the same window, the runtime/metrics deltas match the
// runtime.MemStats deltas (TotalAlloc, Mallocs) they replaced within 1%.
// metrics lag by the objects still sitting in per-P cached spans (MemStats
// flushes them while the world is stopped), so the workload allocates
// enough objects, across size classes, for that lag to stay far below 1%.
func TestAgreesWithMemStats(t *testing.T) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := Read()
	for i := 0; i < 300000; i++ {
		sink[i%len(sink)] = make([]byte, 16+(i*37)%1000)
	}
	bytes, objects := Since(s0)
	runtime.ReadMemStats(&m1)
	clear(sink[:])

	wantBytes := float64(m1.TotalAlloc - m0.TotalAlloc)
	wantObjects := float64(m1.Mallocs - m0.Mallocs)
	if wantBytes < 1e7 {
		t.Fatalf("workload allocated only %.0f bytes; too small to compare", wantBytes)
	}
	t.Logf("metrics %d B / %d objects, MemStats %.0f B / %.0f objects", bytes, objects, wantBytes, wantObjects)
	if d := math.Abs(float64(bytes)-wantBytes) / wantBytes; d > 0.01 {
		t.Errorf("bytes: metrics %d, MemStats %.0f (%.2f%% apart)", bytes, wantBytes, 100*d)
	}
	if d := math.Abs(float64(objects)-wantObjects) / wantObjects; d > 0.01 {
		t.Errorf("objects: metrics %d, MemStats %.0f (%.2f%% apart)", objects, wantObjects, 100*d)
	}
	if h := Read().Heap; h == 0 {
		t.Error("live heap reads 0")
	}
}
