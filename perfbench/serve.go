package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"snaple"
	"snaple/internal/core"
	"snaple/internal/engine"
	"snaple/internal/graph"
	"snaple/internal/serve"
)

// serveSpec sizes the open-loop serving workload.
type serveSpec struct {
	vertices      int
	draws         int64
	nominal, high float64 // predict+mutation operations per second
	compactAt     int
	limit         time.Duration // goodput latency limit
}

const (
	idsPerRequest = 4
	mutateEvery   = 10 // one mutation batch per this many predicts
	edgesPerBatch = 8
	warmShare     = 0.1  // of -seconds for each of the two warm-up stretches, unmeasured
	nominalShare  = 0.75 // of -seconds
	highShare     = 0.25 // of -seconds
	drainTimeout  = 30 * time.Second
	churnCheckIDs = 64
)

// serveChurn's high rate sits well below the ~1400 op/s at which a 2-core
// host stops draining batches, so that a slower host does not tip the
// phase into collapse.
var serveChurn = serveSpec{vertices: 200_000, draws: 2_000_000,
	nominal: 20, high: 400, compactAt: 1000, limit: 250 * time.Millisecond}

func openServeChurn(rc *runCtx, rep *report, setups int) (instance, error) {
	return openServe(rc, rep, setups, serveChurn)
}

type serveInst struct {
	spec serveSpec
	rc   *runCtx
	g    *graph.Digraph
	cfg  core.Config
	reqs []request
}

func (s *serveInst) close() {}

// openServe builds the graph and opens a server over it, setups times.
func openServe(rc *runCtx, rep *report, setups int, spec serveSpec) (instance, error) {
	spec.vertices = max(int(float64(spec.vertices)*rc.scale), 100)
	spec.draws = max(int64(float64(spec.draws)*rc.scale), 1000)
	cfg, err := coreConfig(cfgSeed)
	if err != nil {
		return nil, err
	}
	stream, err := powerLaw(spec.vertices, spec.draws, rc.seed)
	if err != nil {
		return nil, err
	}
	var ingest []float64
	inst, err := setupLoop(rep, setups, func() (instance, time.Duration, error) {
		t := time.Now()
		g, d, err := buildGraph(rc.tr, stream)
		if err != nil {
			return nil, 0, err
		}
		ingest = append(ingest, float64(spec.draws)/d.Seconds())
		srv, err := newServer(g, spec, cfg, engine.Local{Workers: workers})
		if err != nil {
			return nil, 0, err
		}
		d = time.Since(t)
		srv.Close()
		return &serveInst{spec: spec, rc: rc, g: g, cfg: cfg}, d, nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("graph.ingest_edges_per_s", median(ingest), "1/s", len(ingest), "raw draws streamed into the CSR per second")
	s := inst.(*serveInst)
	// Two unmeasured warm-up stretches: the pre-warm runs at the high rate
	// against a throwaway server, bringing the process's heap to its loaded
	// size without filling the measured server's cache; the warm-up lets
	// the measured server's cache and batcher settle at the nominal rate.
	s.reqs = schedule(rc.seed, []phasePlan{
		{phasePrewarm, spec.high, warmShare * rc.seconds},
		{phaseWarm, spec.nominal, warmShare * rc.seconds},
		{phaseNominal, spec.nominal, nominalShare * rc.seconds},
		{phaseHigh, spec.high, highShare * rc.seconds},
	}, idsPerRequest, mutateEvery, edgesPerBatch, s.g)
	return s, nil
}

func newServer(g *graph.Digraph, spec serveSpec, cfg core.Config, be engine.Backend) (*serve.Server, error) {
	return serve.New(serve.Options{Graph: g, Mutable: true, CompactAt: spec.compactAt,
		Backend: be, Config: cfg})
}

// outcome is what one scheduled operation got back.
type outcome struct {
	lat    float64 // ms from its due time to the response
	status int
	hits   int
}

// statsz reads the server's /statsz through its handler.
func statsz(h http.Handler) (serve.Snapshot, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	var snap serve.Snapshot
	if rec.Code != http.StatusOK {
		return snap, fmt.Errorf("/statsz: status %d", rec.Code)
	}
	return snap, json.Unmarshal(rec.Body.Bytes(), &snap)
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (s *serveInst) measure(tr *tracer, rep *report) (float64, error) {
	be := &observedBackend{inner: engine.Local{Workers: workers}, tr: tr}
	srv, err := newServer(s.g, s.spec, s.cfg, be)
	if err != nil {
		return 0, err
	}
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	h := srv.Handler()
	pre, err := newServer(s.g, s.spec, s.cfg, engine.Local{Workers: workers})
	if err != nil {
		return 0, err
	}
	closePre := sync.OnceFunc(pre.Close)
	defer closePre()
	handlers := [numPhases]http.Handler{phasePrewarm: pre.Handler(), phaseWarm: h, phaseNominal: h, phaseHigh: h}

	bodies := make([][]byte, len(s.reqs))
	for i, r := range s.reqs {
		var v any = serve.PredictRequest{IDs: r.IDs, K: topK}
		if r.mutation() {
			v = serve.EdgesRequest{Add: r.Add, Remove: r.Remove}
		}
		if bodies[i], err = json.Marshal(v); err != nil {
			return 0, err
		}
	}
	out := make([]outcome, len(s.reqs))
	do := func(i int, due time.Time) {
		r := s.reqs[i]
		path := "/v1/predict"
		if r.mutation() {
			path = "/v1/edges"
		}
		sp := tr.start("serve", "serve"+path, int64(i), 0)
		rec := httptest.NewRecorder()
		handlers[r.Phase].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i])))
		o := outcome{lat: ms(time.Since(due)), status: rec.Code}
		sp.done()
		if o.status == http.StatusOK && !r.mutation() {
			var pr serve.PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
				o.status = -1
			}
			o.hits = pr.CacheHits
		}
		out[i] = o
	}

	// Phase boundaries: read the allocator and /statsz between phases.
	var phases [numPhases][]int
	for i, r := range s.reqs {
		phases[r.Phase] = append(phases[r.Phase], i)
	}
	var wg sync.WaitGroup
	var lags []float64
	runtime.GC()
	start := time.Now()
	be.t0 = start
	var bound [4]time.Duration // start of pre-warm, nominal, high, end
	var alloc [2]uint64
	var st0 serve.Snapshot
	for p := phasePrewarm; p <= phaseHigh; p++ {
		switch p {
		case phaseNominal:
			bound[1] = time.Since(start)
			alloc[0] = totalAlloc()
			if st0, err = statsz(h); err != nil {
				return 0, err
			}
		case phaseHigh:
			bound[2] = time.Since(start)
			alloc[1] = totalAlloc()
		}
		sub := make([]request, len(phases[p]))
		for j, i := range phases[p] {
			sub[j] = s.reqs[i]
		}
		idx := phases[p]
		l := openLoop(start, sub, &wg, func(j int, due time.Time) { do(idx[j], due) })
		switch p {
		case phasePrewarm:
			// Only pre-warm requests are in flight; they must finish
			// before the measured server sees load, and the throwaway
			// server's cache and graph copies must not stay on the heap
			// the collector marks during the measured phases.
			waitTimeout(&wg, drainTimeout)
			closePre() // fails what is still queued
			wg.Wait()
			handlers[phasePrewarm] = nil
			runtime.GC()
		case phaseNominal, phaseHigh:
			lags = append(lags, l...)
		}
	}
	bound[3] = time.Since(start)
	if !waitTimeout(&wg, drainTimeout) {
		srv.Close() // fails what is still queued
		closed = true
		wg.Wait()
	}
	var st1 serve.Snapshot
	if !closed {
		if st1, err = statsz(h); err != nil {
			return 0, err
		}
	}

	// End-to-end metrics: latency at the nominal rate, goodput at the high.
	var nomLat, missLat, mutLat []float64
	var hits, ids, nomPredicts, good, failed int
	for i, r := range s.reqs {
		o := out[i]
		if o.status != http.StatusOK {
			failed++
		}
		switch {
		case r.Phase >= phaseNominal && r.mutation():
			mutLat = append(mutLat, o.lat)
		case r.Phase == phaseNominal:
			nomPredicts++
			nomLat = append(nomLat, o.lat)
			hits += o.hits
			ids += len(r.IDs)
			if o.hits < len(r.IDs) {
				missLat = append(missLat, o.lat)
			}
		case r.Phase == phaseHigh && !r.mutation():
			if o.status == http.StatusOK && o.lat <= ms(s.spec.limit) {
				good++
			}
		}
	}
	rep.ops(len(s.reqs), failed)
	if err := rep.setPct("latency_p50_ms", nomLat, 0.5, "ms"); err != nil {
		return 0, err
	}
	if err := rep.setPct("latency_tail_ms", nomLat, 0.9, "ms"); err != nil {
		return 0, err
	}
	highSecs := (bound[3] - bound[2]).Seconds()
	rep.set("goodput_qps", float64(good)/highSecs, "1/s", good,
		fmt.Sprintf("high phase at %.0f op/s, limit %v", s.spec.high, s.spec.limit))
	rep.set("query_alloc_mb", float64(alloc[1]-alloc[0])/1e6/float64(nomPredicts), "MB", nomPredicts,
		"process heap allocated per nominal-phase predict")

	if err := setPeakRSS(rep); err != nil {
		return 0, err
	}
	if err := s.check(tr, h, out, rep); err != nil {
		return 0, err
	}
	if tr != nil {
		if err := s.layerMetrics(tr, rep, be, bound, st0, st1, lags, hits, ids, missLat, mutLat); err != nil {
			return 0, err
		}
	}
	p50, _ := quantile(nomLat, 0.5)
	return p50, nil
}

// check verifies served rows after quiescing: fresh requests for
// previously requested and mutated vertices must equal snaple.PredictFor on
// the benchmark's own replay of the mutations the server accepted, which
// catches stale cached rows.
func (s *serveInst) check(tr *tracer, h http.Handler, out []outcome, rep *report) error {
	final, err := s.replayMutations(tr, out, rep)
	if err != nil {
		return err
	}
	pr, err := s.quiescedRequest(h, out)
	if err != nil {
		rep.fail("%v", err)
		return nil
	}
	var sources []snaple.VertexID
	for _, vr := range pr.Results {
		sources = append(sources, snaple.VertexID(vr.ID))
	}
	want, err := snaple.PredictFor(final, sources, predOpts(cfgSeed, "local"))
	if err != nil {
		return err
	}
	bad := 0
	for _, vr := range pr.Results {
		if !sameRow(vr.Predictions, want[vr.ID]) {
			bad++
		}
	}
	if bad > 0 {
		rep.fail("%d of %d checked served rows differ from snaple.PredictFor", bad, len(sources))
	}
	return nil
}

func sameRow(got []serve.PredictionJSON, want []snaple.Prediction) bool {
	if len(got) != len(want) {
		return false
	}
	for i, p := range got {
		if p.ID != uint32(want[i].Vertex) || p.Score != want[i].Score {
			return false
		}
	}
	return true
}

// quiescedRequest asks the idle server for churnCheckIDs vertices: half
// from earlier requests (likely cached), half sources of accepted
// mutations (the rows invalidation must have dropped).
func (s *serveInst) quiescedRequest(h http.Handler, out []outcome) (*serve.PredictResponse, error) {
	r := rng(s.rc.seed, streamSample)
	var asked, mutated []uint32
	for i, req := range s.reqs {
		if req.Phase == phasePrewarm || out[i].status != http.StatusOK {
			continue
		}
		if req.mutation() {
			for _, e := range append(req.Add, req.Remove...) {
				mutated = append(mutated, e[0])
			}
		} else {
			asked = append(asked, req.IDs...)
		}
	}
	var ids []uint32
	for _, pool := range [][]uint32{asked, mutated} {
		for k := 0; k < churnCheckIDs/2 && len(pool) > 0; k++ {
			ids = append(ids, pool[r.IntN(len(pool))])
		}
	}
	body, err := json.Marshal(serve.PredictRequest{IDs: ids, K: topK})
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("quiesced check request: status %d", rec.Code)
	}
	var pr serve.PredictResponse
	return &pr, json.Unmarshal(rec.Body.Bytes(), &pr)
}

// replayMutations applies the mutation batches the measured server
// accepted (the pre-warm's went to a throwaway server), in
// schedule order, to the benchmark's own graph.Live over the same base,
// timing Live.Apply, the invalidation walk (core.DirtySources) and the
// final Materialize. With tr set the timings become per-layer metrics.
func (s *serveInst) replayMutations(tr *tracer, out []outcome, rep *report) (*graph.Digraph, error) {
	live := graph.NewLive(s.g)
	var apply, dirty []float64
	for i, req := range s.reqs {
		if !req.mutation() || req.Phase == phasePrewarm || out[i].status != http.StatusOK {
			continue
		}
		add, remove := toEdges(req.Add), toEdges(req.Remove)
		sp := tr.start("graph", "graph.apply", int64(i), 0)
		t := time.Now()
		nd, err := live.Apply(add, remove)
		apply = append(apply, ms(time.Since(t)))
		sp.done()
		if err != nil {
			return nil, fmt.Errorf("replaying mutation %d: %w", i, err)
		}
		sp = tr.start("core", "core.dirty_sources", int64(i), 0)
		t = time.Now()
		core.DirtySources(nd, add, remove, s.cfg.Paths)
		dirty = append(dirty, ms(time.Since(t)))
		sp.done()
	}
	sp := tr.start("graph", "graph.materialize", 0, 0)
	t := time.Now()
	final := live.View().Materialize()
	mat := ms(time.Since(t))
	sp.done()
	if tr != nil {
		if len(apply) > 0 {
			if err := rep.setPct("graph.apply_ms_p50", apply, 0.5, "ms"); err != nil {
				rep.set("graph.apply_ms_p50", median(apply), "ms", len(apply), "median; too few batches for the rule")
			}
			rep.set("core.dirty_sources_ms", mean(dirty), "ms", len(dirty), "mean per batch")
		}
		rep.set("graph.materialize_ms", mat, "ms", 1, "")
	}
	return final, nil
}

// layerMetrics derives the serving run's per-layer metrics.
func (s *serveInst) layerMetrics(tr *tracer, rep *report, be *observedBackend, bound [4]time.Duration,
	st0, st1 serve.Snapshot, lags []float64, hits, ids int, missLat, mutLat []float64) error {
	rep.set("serve.cache_hit_ratio", float64(hits)/float64(max(ids, 1)), "ratio", ids, "nominal phase")
	optPct(rep, "serve.miss_latency_p90_ms", missLat, 0.9, "ms")
	optPct(rep, "serve.mutation_p90_ms", mutLat, 0.9, "ms")
	optPct(rep, "bench.generator_lag_ms_p99", lags, 0.99, "ms")

	runs := be.window(bound[1], bound[3])
	var runMs, frontier []float64
	var sumIDs, sumFrontier int
	var sumMs, sumAlloc float64
	for _, r := range runs {
		d := ms(r.End - r.Start)
		runMs = append(runMs, d)
		sumIDs += r.IDs
		sumFrontier += r.Stats.FrontierVertices
		frontier = append(frontier, float64(r.Stats.FrontierVertices))
		sumMs += d
		sumAlloc += float64(r.Stats.AllocBytes)
	}
	n := len(runs)
	if n > 0 {
		rep.set("serve.ids_per_run", float64(sumIDs)/float64(n), "count", n, "measured phases")
		rep.set("serve.run_busy_frac", busyFrac(runs, bound[1], bound[3]), "ratio", n, "measured phases")
		optPct(rep, "engine.run_ms_p50", runMs, 0.5, "ms")
		optPct(rep, "engine.run_ms_p90", runMs, 0.9, "ms")
		rep.set("engine.frontier_vertices_mean", mean(frontier), "count", n, "")
		rep.set("engine.us_per_frontier_vertex", sumMs*1000/float64(max(sumFrontier, 1)), "us", n, "")
		rep.set("engine.alloc_mb_per_run", sumAlloc/1e6/float64(n), "MB", n, "")
	}
	muts := st1.Mutations - st0.Mutations
	rep.set("serve.invalidated_per_mutation", float64(st1.Invalidated-st0.Invalidated)/float64(max(muts, 1)), "count", int(muts), "/statsz delta")
	rep.set("serve.compactions", float64(st1.Compactions-st0.Compactions), "count", 1, "/statsz delta over the measured phases")
	be.mu.Lock()
	sample := append([]scopedRun(nil), be.sample...)
	be.mu.Unlock()
	return replayCoreMetrics(tr, rep, sample)
}

// optPct records a per-layer percentile when the samples support it.
func optPct(rep *report, name string, samples []float64, p float64, unit string) {
	if err := rep.setPct(name, samples, p, unit); err != nil {
		rep.set(name, 0, unit, len(samples), "too few samples for p"+pctName(p))
	}
}

// replayCoreMetrics replays each run through the core step API and records
// mean per-step times; any difference from engine.Local fails the run.
func replayCoreMetrics(tr *tracer, rep *report, runs []scopedRun) error {
	if len(runs) == 0 {
		return nil
	}
	var sum coreTimes
	for i, r := range runs {
		ct, err := replayCore(tr, int64(i), r.View, r.Cfg)
		if err != nil {
			rep.fail("%v", err)
			return nil
		}
		sum.runner += ct.runner
		sum.closure += ct.closure
		sum.arena += ct.arena
		sum.truncate += ct.truncate
		sum.relays += ct.relays
		sum.combine += ct.combine
	}
	n := float64(len(runs))
	for _, m := range []struct {
		name string
		d    time.Duration
	}{
		{"core.runner_ms", sum.runner}, {"core.closure_ms", sum.closure}, {"core.arena_ms", sum.arena},
		{"core.truncate_ms", sum.truncate}, {"core.relays_ms", sum.relays}, {"core.combine_ms", sum.combine},
	} {
		rep.set(m.name, ms(m.d)/n, "ms", len(runs), "mean per replayed scoped run")
	}
	return nil
}
