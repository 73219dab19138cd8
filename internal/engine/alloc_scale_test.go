package engine

import (
	"runtime"
	"testing"

	"snaple/internal/core"
	"snaple/internal/gen"
	"snaple/internal/graph"
)

// Scoped queries must cost their closure, not the graph. These tests run
// the same source count on two random graphs of equal mean degree, ten
// times apart in vertex count, and bound what the larger graph may cost
// beyond the 24 B per vertex of the dense Predictions return (the public
// API's shape). The frontier bitmaps and their rank tables add under 1 B
// per vertex; anything per-vertex beyond that — an O(V) degree table, arena
// offsets, routing or partition tables — breaks the bound. Allocation is
// read from runtime.MemStats, which flushes the per-P caches and so counts
// small objects exactly even over one short query.

const (
	scaleSmallV    = 20000
	scaleLargeV    = 200000
	scaleMeanDeg   = 4
	scaleSources   = 16
	denseReturnB   = 24 // bytes per vertex of core.Predictions
	perVertexSlack = 1  // frontier bitmaps and rank tables
)

// allocated returns the heap bytes fn allocates, process-wide.
func allocated(fn func()) int64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return int64(m1.TotalAlloc - m0.TotalAlloc)
}

// minAllocated returns the least heap bytes any of three calls of fn
// allocates (fn must not fail).
func minAllocated(fn func()) int64 {
	best := allocated(fn)
	for i := 0; i < 2; i++ {
		best = min(best, allocated(fn))
	}
	return best
}

func scaleGraph(t *testing.T, n int) *graph.Digraph {
	t.Helper()
	g, err := gen.ErdosRenyi(n, scaleMeanDeg*n, 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func scaleConfig(t *testing.T) core.Config {
	cfg := core.Config{Score: mustScore(t, "linearSum"), K: 5, KLocal: 4, ThrGamma: 10, Seed: 3}
	for i := 0; i < scaleSources; i++ {
		cfg.Sources = append(cfg.Sources, graph.VertexID(1+i*997))
	}
	return cfg
}

// checkScaleBound fails when the larger graph's per-query allocation,
// beyond the dense return and the per-vertex slack, exceeds twice the
// smaller graph's whole per-query allocation.
func checkScaleBound(t *testing.T, what string, small, large int64) {
	t.Helper()
	excess := large - int64(denseReturnB+perVertexSlack)*scaleLargeV
	t.Logf("%s: %d B per query at V=%d, %d B at V=%d (%.1f B/V)", what, small, scaleSmallV, large, scaleLargeV, float64(large)/scaleLargeV)
	if excess > 2*small {
		t.Errorf("%s: V=%d query allocates %d B, beyond %d B/V + 2x the V=%d query's %d B",
			what, scaleLargeV, large, denseReturnB+perVertexSlack, scaleSmallV, small)
	}
}

// TestLocalScopedAllocScalesWithClosure pins engine.Local's per-query
// allocation to O(closure) plus the dense return.
func TestLocalScopedAllocScalesWithClosure(t *testing.T) {
	cfg := scaleConfig(t)
	perQuery := func(n int) int64 {
		g := scaleGraph(t, n)
		l := Local{Workers: 2}
		if _, _, err := l.Predict(g, cfg); err != nil {
			t.Fatal(err)
		}
		return minAllocated(func() { _, _, _ = l.Predict(g, cfg) })
	}
	checkScaleBound(t, "local", perQuery(scaleSmallV), perQuery(scaleLargeV))
}

// TestFleetScopedAllocScalesWithClosure pins the in-process fleet's
// per-query allocation — coordinator and workers together, since they
// share the process — to O(closure) plus the dense return once the
// connections' job state is warm: no per-attach partition rebuild, no
// O(V) routing table.
func TestFleetScopedAllocScalesWithClosure(t *testing.T) {
	cfg := scaleConfig(t)
	perQuery := func(n int) int64 {
		g := scaleGraph(t, n)
		f, err := OpenFleet(g, FleetOptions{InProc: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for i := 0; i < 2; i++ { // warm-up: job state and buffers
			if _, _, err := f.Predict(g, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return minAllocated(func() { _, _, _ = f.Predict(g, cfg) })
	}
	checkScaleBound(t, "fleet", perQuery(scaleSmallV), perQuery(scaleLargeV))
}
