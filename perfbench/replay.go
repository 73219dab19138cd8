package main

import (
	"fmt"
	"reflect"
	"time"

	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
)

// coreTimes is one replayed scoped run, split by Algorithm 2 step.
type coreTimes struct {
	runner, closure, arena, truncate, relays, combine time.Duration
	frontier                                          int
}

// replayCore re-runs engine.Local's step order for one scoped query through
// the public core API — NewStepRunner, the frontier's step sets, NewArena /
// FinishCounts and the per-vertex step methods — on one goroutine, timing
// each step, and checks the result is bit-identical to engine.Local on the
// same view and config. The closure is also built once on its own
// (core.NewFrontier), to split it out of the runner's set-up cost.
func replayCore(tr *tracer, op int64, g graph.View, cfg core.Config) (coreTimes, error) {
	var ct coreTimes
	if cfg.Paths == 3 {
		return ct, fmt.Errorf("core replay covers the 2-path step order only")
	}
	root := tr.start("core", "core.replay", op, 0)
	defer root.done()
	timed := func(name string, d *time.Duration, fn func()) {
		sp := tr.start("core", name, op, root.id())
		t := time.Now()
		fn()
		*d += time.Since(t)
		sp.done()
	}
	var err error
	timed("core.closure", &ct.closure, func() { _, err = core.NewFrontier(g, cfg) })
	if err != nil {
		return ct, err
	}
	var r *core.StepRunner
	timed("core.runner", &ct.runner, func() { r, err = core.NewStepRunner(g, cfg) })
	if err != nil {
		return ct, err
	}
	f := r.Frontier()
	if f == nil {
		return ct, fmt.Errorf("core replay needs a scoped query")
	}
	ct.frontier = f.Size()
	n := g.NumVertices()
	s := r.NewScratch()

	var trunc *core.Arena[graph.VertexID]
	truncSet := f.StepSet(core.DistTruncate).Members()
	timed("core.arena", &ct.arena, func() { trunc = core.NewArena[graph.VertexID](n) })
	timed("core.truncate", &ct.truncate, func() {
		for _, u := range truncSet {
			trunc.SetCount(u, r.TruncateCount(u, s))
		}
	})
	timed("core.arena", &ct.arena, trunc.FinishCounts)
	timed("core.truncate", &ct.truncate, func() {
		for _, u := range truncSet {
			r.TruncateFill(u, trunc.Row(u), s)
		}
	})

	var sims *core.Arena[core.VertexSim]
	simsSet := f.StepSet(core.DistRelays).Members()
	timed("core.arena", &ct.arena, func() { sims = core.NewArena[core.VertexSim](n) })
	timed("core.relays", &ct.relays, func() {
		for _, u := range simsSet {
			sims.SetCount(u, r.RelayCount(u))
		}
	})
	timed("core.arena", &ct.arena, sims.FinishCounts)
	timed("core.relays", &ct.relays, func() {
		for _, u := range simsSet {
			r.RelaysFill(u, trunc, sims.Row(u), s)
		}
	})

	pred := make(core.Predictions, n)
	timed("core.combine", &ct.combine, func() {
		var buf []core.Prediction
		for _, u := range f.StepSet(core.DistCombine).Members() {
			begin := len(buf)
			buf = r.CombineAppend(u, trunc, sims, s, buf)
			if len(buf) > begin {
				pred[u] = buf[begin:len(buf):len(buf)]
			}
		}
	})

	want, _, err := engine.Local{Workers: workers}.Predict(g, cfg)
	if err != nil {
		return ct, err
	}
	if !reflect.DeepEqual(pred, want) {
		return ct, fmt.Errorf("core replay differs from engine.Local on a %d-source query", len(cfg.Sources))
	}
	return ct, nil
}
