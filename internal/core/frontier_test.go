package core

import (
	"testing"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// frontierTestGraph builds a deterministic sparse digraph with hubs, plus
// two trailing isolated vertices (300, 301).
func frontierTestGraph(t *testing.T) *graph.Digraph {
	t.Helper()
	const n = 300
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			p := 6.0 / float64(n)
			if u%60 == 0 {
				p = 0.2
			}
			if randx.Float64(11, uint64(u), uint64(v)) < p {
				edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
			}
		}
	}
	g, err := graph.FromEdges(n+2, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func frontierCfg(t *testing.T, paths int, sources ...graph.VertexID) Config {
	t.Helper()
	spec, err := ScoreByName("linearSum", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Score: spec, K: 5, KLocal: 4, ThrGamma: 10, Paths: paths, Seed: 42, Sources: sources}
}

// TestNewFrontierClosure verifies the closure sets against a brute-force
// recomputation of the dependency rules documented in frontier.go.
func TestNewFrontierClosure(t *testing.T) {
	g := frontierTestGraph(t)
	for _, paths := range []int{2, 3} {
		for _, sources := range [][]graph.VertexID{
			{0},
			{7, 7, 7}, // duplicates collapse
			{0, 60, 120, 33, 299},
			{300}, // isolated: closure is just the source
		} {
			f, err := NewFrontier(g, frontierCfg(t, paths, sources...))
			if err != nil {
				t.Fatal(err)
			}

			want := func(name string, set *VertexSet, in map[graph.VertexID]bool) {
				if set.Len() != len(in) {
					t.Fatalf("paths=%d sources=%v: %s has %d members, want %d", paths, sources, name, set.Len(), len(in))
				}
				prev := graph.VertexID(0)
				for i, v := range set.Members() {
					if !in[v] {
						t.Fatalf("paths=%d sources=%v: %s contains %d unexpectedly", paths, sources, name, v)
					}
					if !set.Contains(v) {
						t.Fatalf("%s member %d not Contains()", name, v)
					}
					if i > 0 && v <= prev {
						t.Fatalf("%s members not strictly ascending at %d", name, v)
					}
					prev = v
				}
			}
			addOut := func(from, into map[graph.VertexID]bool) {
				for v := range from {
					for _, w := range g.OutNeighbors(v) {
						into[w] = true
					}
				}
			}
			clone := func(m map[graph.VertexID]bool) map[graph.VertexID]bool {
				c := make(map[graph.VertexID]bool, len(m))
				for k := range m {
					c[k] = true
				}
				return c
			}

			pred := map[graph.VertexID]bool{}
			for _, s := range sources {
				pred[s] = true
			}
			want("Pred", f.Pred, pred)

			sims := clone(pred)
			addOut(pred, sims)
			if paths == 3 {
				two := map[graph.VertexID]bool{}
				addOut(pred, two)
				want("TwoHop", f.TwoHop, two)
				addOut(two, sims)
			} else if f.TwoHop != nil {
				t.Fatalf("paths=2 run has a TwoHop set")
			}
			want("Sims", f.Sims, sims)

			trunc := clone(sims)
			addOut(sims, trunc)
			want("Trunc", f.Trunc, trunc)

			if f.Size() != f.Trunc.Len() {
				t.Fatalf("Size() = %d, want %d", f.Size(), f.Trunc.Len())
			}
		}
	}
}

func TestNewFrontierEdgeCases(t *testing.T) {
	g := frontierTestGraph(t)
	if f, err := NewFrontier(g, frontierCfg(t, 2)); err != nil || f != nil {
		t.Fatalf("empty sources: got (%v, %v), want (nil, nil)", f, err)
	}
	if _, err := NewFrontier(g, frontierCfg(t, 2, graph.VertexID(g.NumVertices()))); err == nil {
		t.Fatal("out-of-range source accepted")
	}

	// Nil-receiver helpers treat everything as in scope.
	var f *Frontier
	if !f.InPred(1) || !f.InSims(1) || !f.InTrunc(1) || !f.InTwoHop(1) {
		t.Fatal("nil frontier rejected a vertex")
	}
	if f.Size() != 0 {
		t.Fatalf("nil frontier Size() = %d", f.Size())
	}
	if f.ScopeMask(3) != ScopeTrunc|ScopeSims|ScopeTwoHop|ScopePred {
		t.Fatalf("nil frontier mask = %x", f.ScopeMask(3))
	}
	if f.StepSet(DistCombine) != nil {
		t.Fatal("nil frontier StepSet non-nil")
	}
	deg := []int32{0}
	if !f.StepHasWork(DistCombine, deg) {
		t.Fatal("nil frontier has no work")
	}
}

// TestFrontierScopeMaskMatchesSets pins ScopeMask to the individual sets
// and the step bits to their sets.
func TestFrontierScopeMaskMatchesSets(t *testing.T) {
	g := frontierTestGraph(t)
	f, err := NewFrontier(g, frontierCfg(t, 3, 0, 61))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		v := graph.VertexID(u)
		m := f.ScopeMask(v)
		checks := []struct {
			bit  uint8
			in   bool
			step DistStep
		}{
			{ScopeTrunc, f.InTrunc(v), DistTruncate},
			{ScopeSims, f.InSims(v), DistRelays},
			{ScopeTwoHop, f.InTwoHop(v), DistTwoHop},
			{ScopePred, f.InPred(v), DistCombine},
		}
		for _, c := range checks {
			if got := m&c.bit != 0; got != c.in {
				t.Fatalf("vertex %d: mask bit %x = %v, set membership %v", v, c.bit, got, c.in)
			}
			if c.step.ScopeBit() != c.bit {
				t.Fatalf("step %v scope bit %x, want %x", c.step, c.step.ScopeBit(), c.bit)
			}
		}
		if DistCombine3.ScopeBit() != ScopePred {
			t.Fatal("combine3 not gated on Pred")
		}
	}
}

// TestFrontierStepHasWork exercises the superstep-skip predicate on
// isolated sources.
func TestFrontierStepHasWork(t *testing.T) {
	g := frontierTestGraph(t)
	deg := make([]int32, g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		deg[u] = int32(g.OutDegree(graph.VertexID(u)))
	}

	f, err := NewFrontier(g, frontierCfg(t, 2, 300, 301)) // both isolated
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []DistStep{DistTruncate, DistRelays, DistCombine} {
		if f.StepHasWork(step, deg) {
			t.Fatalf("isolated sources: step %v claims work", step)
		}
	}

	f, err = NewFrontier(g, frontierCfg(t, 2, 0))
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []DistStep{DistTruncate, DistRelays, DistCombine} {
		if !f.StepHasWork(step, deg) {
			t.Fatalf("hub source: step %v claims no work", step)
		}
	}
}

// TestVertexSetRank is a property test of Rank/Index against Members: on
// random sets of varied density (word boundaries, empty and full words
// included), every member's rank is its position in Members, and every
// vertex's rank counts the members below it.
func TestVertexSetRank(t *testing.T) {
	for trial, density := range []float64{0, 0.01, 0.2, 0.5, 0.97, 1} {
		n := 64*7 + trial*13 // not always a whole number of words
		bits := newBits(n)
		size := 0
		for v := 0; v < n; v++ {
			if randx.Float64(uint64(trial), uint64(v), 5) < density && bitsAdd(bits, graph.VertexID(v)) {
				size++
			}
		}
		s := finishSet(bits, size)
		for i, v := range s.Members() {
			if r := s.Rank(v); r != i {
				t.Fatalf("density %v: Rank(%d) = %d, want %d", density, v, r, i)
			}
		}
		below := 0
		for v := 0; v < n; v++ {
			vid := graph.VertexID(v)
			if r := s.Rank(vid); r != below {
				t.Fatalf("density %v: Rank(%d) = %d, want %d members below", density, v, r, below)
			}
			r, ok := s.Index(vid)
			if ok != s.Contains(vid) || (ok && r != below) {
				t.Fatalf("density %v: Index(%d) = %d, %v", density, v, r, ok)
			}
			if s.Contains(vid) {
				below++
			}
		}
		if below != s.Len() {
			t.Fatalf("density %v: counted %d members, Len %d", density, below, s.Len())
		}
		// Outside the universe Index reports absence instead of panicking.
		if _, ok := s.Index(graph.VertexID(len(bits) * 64)); ok {
			t.Fatalf("density %v: Index past the universe reported a member", density)
		}
	}
}
