package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"snaple"
	"snaple/internal/engine"
	"snaple/internal/graph"
)

const (
	fleetVertices   = 100_000
	fleetDraws      = 1_000_000
	fleetSources    = 64 // sources per scoped fleet query
	fleetMinQueries = 100
	fleetLimit      = time.Second
	fleetCheckEvery = 8 // every fleetCheckEvery-th scoped query is checked
	shipProbes      = 8
)

// fleetInst is the set-up fleet-batch workload: the graph and a resident
// in-process fleet serving it.
type fleetInst struct {
	rc      *runCtx
	g       *graph.Digraph
	cluster *snaple.Cluster
}

func (f *fleetInst) close() { f.cluster.Close() }

func openFleet(rc *runCtx, rep *report, setups int) (instance, error) {
	n := max(int(fleetVertices*rc.scale), 100)
	draws := max(int64(fleetDraws*rc.scale), 1000)
	stream, err := powerLaw(n, draws, rc.seed)
	if err != nil {
		return nil, err
	}
	var ingest, open []float64
	inst, err := setupLoop(rep, setups, func() (instance, time.Duration, error) {
		t := time.Now()
		g, d, err := buildGraph(rc.tr, stream)
		if err != nil {
			return nil, 0, err
		}
		ingest = append(ingest, float64(draws)/d.Seconds())
		sp := rc.tr.start("engine", "engine.fleet_open", 0, 0)
		ot := time.Now()
		c, err := snaple.OpenCluster(snaple.ClusterOptions{Graph: g, Options: predOpts(cfgSeed, "dist"), Workers: workers})
		open = append(open, time.Since(ot).Seconds())
		sp.done()
		if err != nil {
			return nil, 0, err
		}
		return &fleetInst{rc: rc, g: g, cluster: c}, time.Since(t), nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("graph.ingest_edges_per_s", median(ingest), "1/s", len(ingest), "raw draws streamed into the CSR per second")
	rep.set("engine.fleet_open_s", median(open), "s", len(open), "snaple.OpenCluster, 2 in-process workers")
	return inst, nil
}

func (f *fleetInst) measure(tr *tracer, rep *report) (float64, error) {
	edges := float64(f.g.NumEdges())
	full := func(name string, run func() (snaple.Predictions, *snaple.Result, error)) (snaple.Predictions, *snaple.Result, error) {
		runtime.GC()
		sp := tr.start("engine", "engine.full."+name, 0, 0)
		t := time.Now()
		p, res, err := run()
		d := time.Since(t)
		sp.done()
		rep.ops(1, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s full pass: %w", name, err)
		}
		rep.set("engine.edges_per_s."+name, edges/d.Seconds(), "1/s", 1, "graph edges over the call's wall time")
		return p, res, nil
	}
	local, _, err := full("local", func() (snaple.Predictions, *snaple.Result, error) {
		p, _, err := snaple.PredictStats(f.g, predOpts(cfgSeed, "local"))
		return p, nil, err
	})
	if err != nil {
		return 0, err
	}
	_, _, err = full("oneshot", func() (snaple.Predictions, *snaple.Result, error) {
		res, err := snaple.PredictDistributed(f.g, predOpts(cfgSeed, "dist"), snaple.ClusterOptions{Workers: workers})
		if err == nil && !reflect.DeepEqual(res.Predictions, local) {
			rep.fail("PredictDistributed full pass differs from engine Local")
		}
		return nil, res, err
	})
	if err != nil {
		return 0, err
	}
	_, fleetFull, err := full("fleet", func() (snaple.Predictions, *snaple.Result, error) {
		res, err := f.cluster.Predict()
		if err == nil && !reflect.DeepEqual(res.Predictions, local) {
			rep.fail("resident fleet full pass differs from engine Local")
		}
		return nil, res, err
	})
	if err != nil {
		return 0, err
	}

	var crossBytes, crossMsgs int64
	var stats []snaple.EngineStats
	bad := 0
	runtime.GC()
	t := time.Now()
	a0 := totalAlloc()
	lats, errs := closedLoop(time.Duration(f.rc.seconds*float64(time.Second)), fleetMinQueries, func(i int) error {
		src := querySources(f.rc.seed, i, f.g.NumVertices(), fleetSources)
		sp := tr.start("engine", "engine.fleet_query", int64(i), 0)
		res, err := f.cluster.PredictFor(src)
		sp.done()
		if err != nil {
			return err
		}
		crossBytes += res.CrossBytes
		crossMsgs += res.CrossMsgs
		stats = append(stats, snaple.EngineStats{WallSeconds: res.WallSeconds, FrontierVertices: res.FrontierVertices})
		if i%fleetCheckEvery == 0 {
			for _, v := range src {
				if !reflect.DeepEqual(res.Predictions[v], local[v]) {
					bad++
				}
			}
		}
		return nil
	})
	alloc := totalAlloc() - a0
	secs := time.Since(t).Seconds()
	rep.ops(len(lats)+errs, errs)
	if bad > 0 {
		rep.fail("%d checked fleet query rows differ from the engine Local full pass", bad)
	}
	if err := rep.setPct("latency_p50_ms", lats, 0.5, "ms"); err != nil {
		return 0, err
	}
	if err := rep.setPct("latency_tail_ms", lats, 0.9, "ms"); err != nil {
		return 0, err
	}
	good := 0
	for _, l := range lats {
		if l <= ms(fleetLimit) {
			good++
		}
	}
	rep.set("goodput_qps", float64(good)/secs, "1/s", len(lats), fmt.Sprintf("closed loop, one client, limit %v", fleetLimit))
	rep.set("query_alloc_mb", float64(alloc)/1e6/float64(len(lats)), "MB", len(lats),
		"TotalAlloc delta per scoped query, in-process workers included")
	if err := setPeakRSS(rep); err != nil {
		return 0, err
	}

	if tr != nil {
		engineMetrics(rep, stats)
		q := float64(max(len(lats), 1))
		rep.set("wire.cross_mb_per_full", float64(fleetFull.CrossBytes)/1e6, "MB", 1, "resident fleet full pass")
		rep.set("wire.cross_msgs_per_full", float64(fleetFull.CrossMsgs), "count", 1, "resident fleet full pass")
		rep.set("wire.cross_mb_per_query", float64(crossBytes)/1e6/q, "MB", len(lats), "")
		rep.set("wire.cross_msgs_per_query", float64(crossMsgs)/q, "count", len(lats), "")
		if err := f.shipMetric(tr, rep); err != nil {
			return 0, err
		}
		cfg, err := coreConfig(cfgSeed)
		if err != nil {
			return 0, err
		}
		var runs []scopedRun
		for i := 0; i < bigReplayQueries; i++ {
			c := cfg
			c.Sources = querySources(f.rc.seed, i, f.g.NumVertices(), fleetSources)
			runs = append(runs, scopedRun{View: f.g, Cfg: c})
		}
		if err := replayCoreMetrics(tr, rep, runs); err != nil {
			return 0, err
		}
	}
	p50, _ := quantile(lats, 0.5)
	return p50, nil
}

// shipMetric measures the per-query attach handshake. snaple.Result does
// not carry it, so the same scoped queries run on an engine.Fleet opened
// with the cluster's settings, whose Stats report ShipBytes.
func (f *fleetInst) shipMetric(tr *tracer, rep *report) error {
	cfg, err := coreConfig(cfgSeed)
	if err != nil {
		return err
	}
	fl, err := engine.OpenFleet(f.g, engine.FleetOptions{InProc: workers})
	if err != nil {
		return err
	}
	defer fl.Close()
	var ship int64
	for i := 0; i < shipProbes; i++ {
		c := cfg
		c.Sources = querySources(f.rc.seed, i, f.g.NumVertices(), fleetSources)
		sp := tr.start("engine", "engine.fleet_probe", int64(i), 0)
		_, st, err := fl.Predict(f.g, c)
		sp.done()
		if err != nil {
			return err
		}
		ship += st.ShipBytes
	}
	rep.set("wire.ship_kb_per_query", float64(ship)/1e3/shipProbes, "KB", shipProbes, "engine.Fleet Stats.ShipBytes")
	return nil
}
