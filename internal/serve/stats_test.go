package serve

import (
	"math"
	"testing"
	"time"
)

// fill records n requests at rate req/s starting at t0, bypassing the
// wall clock.
func (s *serverStats) fill(t0 time.Time, n int, rate float64) {
	for i := 0; i < n; i++ {
		s.ring[s.ringN%latencyRingSize] = sample{at: t0.Add(time.Duration(float64(i) / rate * float64(time.Second))), ms: 1}
		s.ringN++
	}
}

// TestStatszQPSCoveredSpan pins /statsz qps to the time its samples
// actually cover: the server's age while it is younger than the window,
// the window once it is older, and the ring's own span when it wrapped
// inside the window.
func TestStatszQPSCoveredSpan(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.01*want }

	// A 10 s old server that has taken 200 req/s: the ring has not wrapped
	// (2000 < latencyRingSize), and the rate is over 10 s, not 60.
	young := serverStats{start: t0}
	young.fill(t0, 2000, 200)
	if got := young.snapshotAt(t0.Add(10 * time.Second)).QPS; !near(got, 200) {
		t.Errorf("young server: qps %.1f, want 200", got)
	}

	// Older than the window, with traffic only in its last 10 s: the rate
	// is averaged over the whole window.
	old := serverStats{start: t0}
	old.fill(t0.Add(110*time.Second), 2000, 200)
	if got, want := old.snapshotAt(t0.Add(120*time.Second)).QPS, 2000/qpsWindow.Seconds(); !near(got, want) {
		t.Errorf("old server: qps %.1f, want %.1f", got, want)
	}

	// Wrapped ring inside the window: the rate comes from the span the
	// ring still holds.
	busy := serverStats{start: t0}
	busy.fill(t0, 3*latencyRingSize, 1000)
	end := t0.Add(time.Duration(3*latencyRingSize) * time.Millisecond)
	if got := busy.snapshotAt(end).QPS; !near(got, 1000) {
		t.Errorf("wrapped ring: qps %.1f, want 1000", got)
	}
}
