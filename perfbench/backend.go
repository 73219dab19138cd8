package main

import (
	"sync"
	"time"

	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
)

// observedBackend is the engine.Backend the benchmark hands the server: it
// forwards every run to the real backend and records, from outside, when
// the run happened, how many sources it carried and the Stats it returned.
type observedBackend struct {
	inner engine.Backend
	tr    *tracer
	t0    time.Time // window origin for busy-time accounting

	mu     sync.Mutex
	runs   []runRecord
	sample []scopedRun // every sampleEvery-th run, the last sampleKeep of them
}

const (
	sampleEvery = 16
	sampleKeep  = 24
)

// runRecord is one observed engine run.
type runRecord struct {
	Start, End time.Duration // relative to t0
	IDs        int
	Stats      engine.Stats
	Err        error
}

// scopedRun is a run's input, kept so the core replay can re-run the very
// same scoped query on the very same view.
type scopedRun struct {
	View graph.View
	Cfg  core.Config
}

func (b *observedBackend) Name() string { return b.inner.Name() }

func (b *observedBackend) Predict(g graph.View, cfg core.Config) (core.Predictions, engine.Stats, error) {
	sp := b.tr.start("engine", "engine.run", 0, 0)
	start := time.Since(b.t0)
	preds, st, err := b.inner.Predict(g, cfg)
	end := time.Since(b.t0)
	sp.done()
	b.mu.Lock()
	b.runs = append(b.runs, runRecord{Start: start, End: end, IDs: len(cfg.Sources), Stats: st, Err: err})
	if len(b.runs)%sampleEvery == 0 {
		if len(b.sample) == sampleKeep {
			b.sample = b.sample[1:]
		}
		b.sample = append(b.sample, scopedRun{View: g, Cfg: cfg})
	}
	b.mu.Unlock()
	return preds, st, err
}

// window returns the runs that started in [from, to).
func (b *observedBackend) window(from, to time.Duration) []runRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []runRecord
	for _, r := range b.runs {
		if r.Start >= from && r.Start < to {
			out = append(out, r)
		}
	}
	return out
}

// busyFrac is the share of [from, to) during which a run was in flight.
func busyFrac(runs []runRecord, from, to time.Duration) float64 {
	iv := make([]interval, 0, len(runs))
	for _, r := range runs {
		lo, hi := max(r.Start, from), min(r.End, to)
		if lo < hi {
			iv = append(iv, interval{int64(lo), int64(hi)})
		}
	}
	return float64(measure(union(iv))) / float64(to-from)
}
