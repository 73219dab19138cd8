package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snaple/internal/allocs"
	"snaple/internal/core"
	"snaple/internal/graph"
)

// Local runs Algorithm 2 directly over the shared-memory CSR with goroutine
// sharding over vertex ranges: no partitioning, no replication, no cost
// accounting — just the three scoring steps at memory speed.
//
// Each step materialises its per-vertex output in a flat core.Arena — one
// offsets table plus one shared backing array, the same layout as the CSR
// itself — built with a count pass, a serial prefix sum, and a fill pass
// (arena.go documents the protocol). Together with per-worker scratch
// buffers (core.Scratch) this makes the steady-state loop allocation-free
// per vertex: a full prediction run costs two allocations per step instead
// of one per vertex, which on billion-edge graphs is the difference between
// a GC tracking dozens of objects and hundreds of millions.
//
// Workers claim vertex chunks off a shared atomic counter. Chunk boundaries
// are degree-aware: each chunk covers at most chunkVerts vertices and
// roughly chunkEdges out-edges, so one hub vertex cannot serialize a worker
// behind a fixed-width range on power-law graphs.
//
// Results are bit-identical to core.ReferenceSnaple for every worker count:
// all draws are hash-keyed and all folds order-independent (see steps.go in
// internal/core), and every vertex's output is written by exactly one
// worker.
type Local struct {
	// Workers bounds the goroutines per step; 0 means GOMAXPROCS.
	Workers int
}

// Name implements Backend.
func (Local) Name() string { return "local" }

const (
	// chunkVerts caps the vertices per claimed chunk — small enough to
	// balance sparse regions, large enough to amortise the atomic.
	chunkVerts = 256
	// chunkEdges caps (approximately) the adjacency mass per chunk, so a
	// chunk holding a hub is cut short and its neighbours spread over other
	// workers.
	chunkEdges = 4096
)

// Predict implements Backend.
func (l Local) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	a0 := allocs.Read()
	start := time.Now()
	workers := l.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := Stats{Engine: "local", Workers: workers}

	r, err := core.NewStepRunner(g, cfg)
	if err != nil {
		return nil, st, err
	}
	n := g.NumVertices()

	// Each pass iterates one step's vertex scope: all n vertices on a full
	// run (verts nil, one shared set of chunk bounds), or the step's
	// frontier member list on a query-scoped run — the vertex loop itself
	// is restricted, not just the per-vertex work.
	f := r.Frontier()
	var full pass
	if f == nil {
		full = pass{bounds: degreeChunks(g, nil)}
	} else {
		st.FrontierVertices = f.Size()
	}
	passFor := func(set *core.VertexSet) pass {
		if f == nil {
			return full
		}
		return pass{verts: set.Members(), bounds: degreeChunks(g, set.Members())}
	}

	// Step 1: truncated neighbourhoods Γ̂ (count pass, prefix sum, fill pass).
	truncSet := f.StepSet(core.DistTruncate)
	truncPass := passFor(truncSet)
	trunc := newArena[graph.VertexID](n, truncSet)
	forEachVertex(r, workers, truncPass, func(w *worker, u graph.VertexID) {
		trunc.SetCount(u, r.TruncateCount(u, w.s))
	})
	trunc.FinishCounts()
	forEachVertex(r, workers, truncPass, func(w *worker, u graph.VertexID) {
		r.TruncateFill(u, trunc.Row(u), w.s)
	})

	// Step 2: raw similarities and k_local relay selection.
	simsSet := f.StepSet(core.DistRelays)
	simsPass := passFor(simsSet)
	sims := newArena[core.VertexSim](n, simsSet)
	forEachVertex(r, workers, simsPass, func(w *worker, u graph.VertexID) {
		sims.SetCount(u, r.RelayCount(u))
	})
	sims.FinishCounts()
	forEachVertex(r, workers, simsPass, func(w *worker, u graph.VertexID) {
		r.RelaysFill(u, trunc, sims.Row(u), w.s)
	})

	// Step 3: path combination and top-k aggregation. Final predictions are
	// the run's retained output: each worker appends them to its own buffer
	// and pred[u] aliases the region, so the per-vertex cost is amortised
	// append growth instead of one allocation per vertex.
	pred := make(core.Predictions, n)
	st.ScoredVertices = n
	if f != nil {
		st.ScoredVertices = f.Pred.Len()
	}
	if r.Config().Paths == 3 {
		twoSet := f.StepSet(core.DistTwoHop)
		twoPass := passFor(twoSet)
		twoHop := newArena[core.PathCand](n, twoSet)
		forEachVertex(r, workers, twoPass, func(w *worker, v graph.VertexID) {
			twoHop.SetCount(v, r.TwoHopCount(v, sims))
		})
		twoHop.FinishCounts()
		forEachVertex(r, workers, twoPass, func(w *worker, v graph.VertexID) {
			r.TwoHopFill(v, sims, twoHop.Row(v))
		})
		forEachVertex(r, workers, passFor(f.StepSet(core.DistCombine3)), func(w *worker, u graph.VertexID) {
			begin := len(w.preds)
			w.preds = r.Combine3Append(u, trunc, sims, twoHop, w.s, w.preds)
			if len(w.preds) > begin {
				pred[u] = w.preds[begin:len(w.preds):len(w.preds)]
			}
		})
	} else {
		forEachVertex(r, workers, passFor(f.StepSet(core.DistCombine)), func(w *worker, u graph.VertexID) {
			begin := len(w.preds)
			w.preds = r.CombineAppend(u, trunc, sims, w.s, w.preds)
			if len(w.preds) > begin {
				pred[u] = w.preds[begin:len(w.preds):len(w.preds)]
			}
		})
	}

	st.WallSeconds = time.Since(start).Seconds()
	if st.WallSeconds > 0 {
		st.EdgesPerSec = float64(g.NumEdges()) / st.WallSeconds
	}
	st.AllocBytes, st.AllocObjects = allocs.Since(a0)
	return pred, st, nil
}

// newArena returns one step's output arena: a row per vertex of [0, n) on a
// full run (set nil), a row per member of the step's frontier set on a
// scoped one — so a query's step state costs O(closure), not O(V).
func newArena[T any](n int, set *core.VertexSet) *core.Arena[T] {
	if set == nil {
		return core.NewArena[T](n)
	}
	return core.NewArenaOver[T](set)
}

// worker is the per-goroutine state of a pass: the reusable step scratch
// plus the retained prediction buffer of step 3.
type worker struct {
	s     *core.Scratch
	preds []core.Prediction
}

// pass is one parallel sweep's vertex sequence: the explicit member list of
// a frontier set (query-scoped run), or — when verts is nil — the identity
// sequence 0..n-1 (full run). bounds index positions of the sequence.
type pass struct {
	verts  []graph.VertexID
	bounds []int
}

// vertex maps a sequence position to its vertex.
func (p pass) vertex(i int) graph.VertexID {
	if p.verts == nil {
		return graph.VertexID(i)
	}
	return p.verts[i]
}

// degreeChunks splits a vertex sequence (verts, or [0, n) when verts is
// nil) into contiguous chunks of at most chunkVerts vertices and roughly
// chunkEdges out-edges each. The boundaries are computed once per sequence
// and shared by every pass over it.
func degreeChunks(g graph.View, verts []graph.VertexID) []int {
	n := g.NumVertices()
	if verts != nil {
		n = len(verts)
	}
	bounds := make([]int, 1, n/chunkVerts+2)
	vcount, edges := 0, 0
	for i := 0; i < n; i++ {
		u := graph.VertexID(i)
		if verts != nil {
			u = verts[i]
		}
		vcount++
		edges += g.OutDegree(u)
		if vcount >= chunkVerts || edges >= chunkEdges {
			bounds = append(bounds, i+1)
			vcount, edges = 0, 0
		}
	}
	if bounds[len(bounds)-1] != n {
		bounds = append(bounds, n)
	}
	return bounds
}

// forEachVertex executes fn for every vertex of the pass's sequence,
// sharding degree-aware chunks over up to workers goroutines with work
// stealing. Each goroutine gets its own worker state; fn must write only to
// its vertex's slot (or arena row).
func forEachVertex(r *core.StepRunner, workers int, p pass, fn func(*worker, graph.VertexID)) {
	n := p.bounds[len(p.bounds)-1]
	chunks := len(p.bounds) - 1
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		w := &worker{s: r.NewScratch()}
		for i := 0; i < n; i++ {
			fn(w, p.vertex(i))
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := &worker{s: r.NewScratch()}
			for {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				for i := p.bounds[c]; i < p.bounds[c+1]; i++ {
					fn(w, p.vertex(i))
				}
			}
		}()
	}
	wg.Wait()
}
