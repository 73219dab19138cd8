// Package allocs reads the process's cumulative heap allocation counters
// through runtime/metrics. Unlike runtime.ReadMemStats it does not stop the
// world, so a serving process can sample it around every run: the engines
// and the dist workers bracket each run with two reads to report
// Stats.AllocBytes/AllocObjects.
package allocs

import "runtime/metrics"

const (
	bytesMetric   = "/gc/heap/allocs:bytes"
	objectsMetric = "/gc/heap/allocs:objects"
	tinyMetric    = "/gc/heap/tiny/allocs:objects"
	heapMetric    = "/memory/classes/heap/objects:bytes"
)

// Sample is one reading of the cumulative counters.
type Sample struct {
	// Bytes is the cumulative bytes allocated on the heap
	// (MemStats.TotalAlloc).
	Bytes uint64
	// Objects is the cumulative heap objects allocated (MemStats.Mallocs).
	Objects uint64
	// Heap is the bytes of live and not-yet-swept heap objects
	// (MemStats.HeapAlloc).
	Heap uint64
}

// The runtime builds its metrics table on first use; doing that at start-up
// keeps it out of the first measured window.
func init() { Read() }

// Read samples the counters.
func Read() Sample {
	s := [4]metrics.Sample{{Name: bytesMetric}, {Name: objectsMetric}, {Name: tinyMetric}, {Name: heapMetric}}
	metrics.Read(s[:])
	// MemStats.Mallocs counts the tiny allocator's objects individually;
	// allocs:objects counts only the blocks they are packed into.
	return Sample{Bytes: value(s[0]), Objects: value(s[1]) + value(s[2]), Heap: value(s[3])}
}

func value(s metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0 // unsupported by this runtime
	}
	return s.Value.Uint64()
}

// Since returns the bytes and objects allocated since s0.
func Since(s0 Sample) (bytes, objects int64) {
	s1 := Read()
	return int64(s1.Bytes - s0.Bytes), int64(s1.Objects - s0.Objects)
}
