package main

import (
	"math/rand/v2"
	"time"

	"snaple"
	"snaple/internal/core"
	"snaple/internal/gen"
	"snaple/internal/graph"
)

// Every input a workload feeds the program is derived from the run's seed
// through its own PCG stream, so one seed always yields the same graph,
// request stream and mutation stream, and the program sees only those.
const (
	streamGraph uint64 = iota + 1
	streamRequests
	streamMutations
	streamQueries
	streamSample
)

func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// Prediction configuration shared by every workload: the paper's linearSum
// score with a 200-neighbour truncation and 20 relays per vertex. predOpts
// (facade) and coreConfig (server, engine, core) describe the same run.
const (
	topK     = 5
	kLocal   = 20
	thrGamma = 200
	workers  = 2 // engine and fleet workers; GOMAXPROCS is nproc
	cfgSeed  = 1 // the configuration's truncation seed; inputs vary, it does not
)

func predOpts(seed uint64, engineName string) snaple.Options {
	return snaple.Options{Score: "linearSum", K: topK, KLocal: kLocal, ThrGamma: thrGamma,
		Seed: seed, Engine: engineName, Workers: workers}
}

func coreConfig(seed uint64) (core.Config, error) {
	score, err := core.ScoreByName("linearSum", 0.9)
	if err != nil {
		return core.Config{}, err
	}
	pol, err := core.PolicyByName("max")
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{Score: score, K: topK, KLocal: kLocal, ThrGamma: thrGamma, Policy: pol, Seed: seed}, nil
}

// powerLaw returns the workload graph's edge stream: draws raw edges over n
// vertices (self-loops and duplicates are dropped at build).
func powerLaw(n int, draws int64, seed uint64) (*gen.PowerLawStream, error) {
	return gen.NewPowerLawStream(n, draws, 2, rng(seed, streamGraph).Uint64())
}

// buildGraph streams the workload graph into a CSR, recording the ingest
// as a graph-layer span.
func buildGraph(tr *tracer, s *gen.PowerLawStream) (*graph.Digraph, time.Duration, error) {
	sp := tr.start("graph", "graph.ingest", 0, 0)
	t := time.Now()
	g, err := graph.BuildStream(s.N, workers, s.ForEachShard)
	d := time.Since(t)
	sp.done()
	return g, d, err
}

// Phases of an open-loop schedule.
const (
	phasePrewarm = iota
	phaseWarm
	phaseNominal
	phaseHigh
	numPhases
)

// request is one scheduled operation of an open loop: a predict for IDs, or
// (when Add or Remove is set) one /v1/edges mutation batch.
type request struct {
	Due    time.Duration `json:"due"`
	Phase  int           `json:"phase"`
	IDs    []uint32      `json:"ids,omitempty"`
	Add    [][]uint32    `json:"add,omitempty"`
	Remove [][]uint32    `json:"remove,omitempty"`
}

func (r request) mutation() bool { return r.Add != nil || r.Remove != nil }

// phasePlan is one constant-rate stretch of an open loop.
type phasePlan struct {
	phase int
	rate  float64 // operations per second
	secs  float64
}

// schedule builds an open-loop request stream: Poisson arrivals at each
// phase's rate, idsPer ids per predict drawn uniformly over base's vertices,
// and one mutation batch after every mutateEvery predicts, its edges drawn against
// base (adds are absent from base, removes present in it, so the graph the
// batches leave behind does not depend on the order they land in).
func schedule(seed uint64, plan []phasePlan, idsPer, mutateEvery, edgesPer int, base graph.View) []request {
	r := rng(seed, streamRequests)
	mr := rng(seed, streamMutations)
	n := base.NumVertices()
	var out []request
	var at float64
	predicts := 0
	for _, p := range plan {
		end := at + p.secs
		for {
			at += r.ExpFloat64() / p.rate
			if at >= end {
				at = end
				break
			}
			req := request{Due: time.Duration(at * float64(time.Second)), Phase: p.phase}
			if predicts == mutateEvery {
				predicts = 0
				req.Add, req.Remove = mutationBatch(mr, base, edgesPer)
			} else {
				predicts++
				req.IDs = make([]uint32, idsPer)
				for i := range req.IDs {
					req.IDs[i] = uint32(r.IntN(n))
				}
			}
			out = append(out, req)
		}
	}
	return out
}

// mutationBatch draws edges edges: three quarters added (absent from base),
// the rest removed (present in base).
func mutationBatch(r *rand.Rand, base graph.View, edges int) (add, remove [][]uint32) {
	n := base.NumVertices()
	nRemove := edges / 4
	for len(add) < edges-nRemove {
		u, v := graph.VertexID(r.IntN(n)), graph.VertexID(r.IntN(n))
		if u != v && !base.HasEdge(u, v) {
			add = append(add, []uint32{uint32(u), uint32(v)})
		}
	}
	for len(remove) < nRemove {
		u := graph.VertexID(r.IntN(n))
		if row := base.OutNeighbors(u); len(row) > 0 {
			remove = append(remove, []uint32{uint32(u), uint32(row[r.IntN(len(row))])})
		}
	}
	return add, remove
}

// querySources returns the i-th closed-loop query: size sources drawn
// uniformly over [0, n) from a stream keyed by (seed, i), so any prefix of
// the query sequence is the same whatever the run length.
func querySources(seed uint64, i, n, size int) []snaple.VertexID {
	r := rng(seed, streamQueries<<32|uint64(i))
	out := make([]snaple.VertexID, size)
	for j := range out {
		out[j] = snaple.VertexID(r.IntN(n))
	}
	return out
}

func toEdges(pairs [][]uint32) []graph.Edge {
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{Src: graph.VertexID(p[0]), Dst: graph.VertexID(p[1])}
	}
	return out
}
