package core

import (
	"reflect"
	"testing"

	"snaple/internal/graph"
	"snaple/internal/randx"
)

// wholeGraphTopology places every vertex and edge of g on one partition, in
// CSR edge order or — shuffled — with source runs scattered.
func wholeGraphTopology(t *testing.T, g *graph.Digraph, shuffled bool) *DistTopology {
	t.Helper()
	n := g.NumVertices()
	locals := make([]graph.VertexID, n)
	deg := make([]int32, n)
	for v := range locals {
		locals[v] = graph.VertexID(v)
		deg[v] = int32(g.OutDegree(graph.VertexID(v)))
	}
	var src, dst []int32
	g.ForEachEdge(func(u, v graph.VertexID) {
		src = append(src, int32(u))
		dst = append(dst, int32(v))
	})
	if shuffled {
		for i := len(src) - 1; i > 0; i-- {
			j := int(randx.Uint64n(uint64(i+1), 3, uint64(i), 0))
			src[i], src[j] = src[j], src[i]
			dst[i], dst[j] = dst[j], dst[i]
		}
	}
	topo, err := NewDistTopology(n, locals, deg, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// runWholeGraph drives a one-partition job: every vertex is a master with
// no remote replica, so each streamed partial is its vertex's whole sum and
// applies at once, and vertices without one apply an empty sum.
func runWholeGraph(t *testing.T, p *DistPartition) Predictions {
	t.Helper()
	n := len(p.Topology().Locals())
	for _, step := range DistSteps(p.Config().Paths) {
		got := make([]bool, n)
		err := p.GatherStream(step, func(li int32, dp *DistPartial) error {
			got[li] = true
			return p.Apply(step, li, []DistPartial{*dp})
		})
		if err != nil {
			t.Fatal(err)
		}
		for li := range got {
			if !got[li] {
				if err := p.Apply(step, int32(li), nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	pred := make(Predictions, n)
	for li := range pred {
		if d := p.State(int32(li)); len(d.Pred) > 0 {
			pred[li] = d.Pred
		}
	}
	return pred
}

// TestDistPartitionMatchesReference runs Algorithm 2 through one reused
// DistPartition — full jobs and scoped ones, on source-sorted and on
// scattered edge orders — and holds every job to the serial reference.
// Reusing the partition across jobs pins Reset: a job must see none of the
// previous job's state or scope.
func TestDistPartitionMatchesReference(t *testing.T) {
	g := frontierTestGraph(t)
	for _, shuffled := range []bool{false, true} {
		topo := wholeGraphTopology(t, g, shuffled)
		if topo.CanGatherVertex() == shuffled {
			t.Fatalf("shuffled=%v: CanGatherVertex = %v", shuffled, topo.CanGatherVertex())
		}
		p := topo.NewPartition()
		for _, paths := range []int{2, 3} {
			for _, sources := range [][]graph.VertexID{nil, {0, 60, 33}, nil, {299, 7}} {
				cfg := frontierCfg(t, paths, sources...)
				full := cfg
				full.Sources = nil
				want, err := ReferenceSnaple(g, full)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Reset(cfg, len(sources) > 0); err != nil {
					t.Fatal(err)
				}
				if len(sources) > 0 {
					f, err := NewFrontier(g, cfg)
					if err != nil {
						t.Fatal(err)
					}
					// Entries in descending order: SetScope must not rely
					// on the coordinator's ascending order.
					members := f.Trunc.Members()
					for i := len(members) - 1; i >= 0; i-- {
						v := members[i]
						if err := p.SetScope(int32(v), f.ScopeMask(v)); err != nil {
							t.Fatal(err)
						}
					}
					scoped := make(Predictions, len(want))
					for _, s := range sources {
						scoped[s] = want[s]
					}
					want = scoped
				}
				if got := runWholeGraph(t, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("shuffled=%v paths=%d sources=%v: predictions differ from the reference", shuffled, paths, sources)
				}
			}
		}
	}
}

// TestDistTopologyRejectsBadColumns pins the typed errors of the shard
// validation a worker runs once per pinned or shipped shard.
func TestDistTopologyRejectsBadColumns(t *testing.T) {
	for name, tc := range map[string]struct {
		n        int
		locals   []graph.VertexID
		deg      []int32
		src, dst []int32
	}{
		"degree count":  {10, []graph.VertexID{1, 2}, []int32{1}, nil, nil},
		"edge columns":  {10, []graph.VertexID{1, 2}, []int32{1, 0}, []int32{0}, nil},
		"out of range":  {10, []graph.VertexID{1, 12}, []int32{1, 0}, nil, nil},
		"not ascending": {10, []graph.VertexID{2, 1}, []int32{1, 0}, nil, nil},
		"edge index":    {10, []graph.VertexID{1, 2}, []int32{1, 0}, []int32{0}, []int32{2}},
	} {
		if _, err := NewDistTopology(tc.n, tc.locals, tc.deg, tc.src, tc.dst); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	topo, err := NewDistTopology(10, []graph.VertexID{1, 2}, []int32{1, 0}, []int32{0}, []int32{1})
	if err != nil {
		t.Fatal(err)
	}
	p := topo.NewPartition()
	if err := p.Reset(Config{Score: mustScore(t, "linearSum")}, false); err != nil {
		t.Fatal(err)
	}
	if err := p.SetScope(0, ScopeTrunc); err == nil {
		t.Error("SetScope accepted on an unscoped job")
	}
	if _, ok := topo.LocalIndex(3); ok {
		t.Error("LocalIndex found a vertex that is not local")
	}
	if li, ok := topo.LocalIndex(2); !ok || li != 1 {
		t.Errorf("LocalIndex(2) = %d, %v", li, ok)
	}
}
