package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"snaple"
	"snaple/internal/core"
	"snaple/internal/graph"
)

const (
	bigVertices      = 1_000_000
	bigDraws         = 10_000_000
	bigSources       = 200 // sources per scoped query
	bigMmapShare     = 0.7 // of -seconds; the Packed leg gets the rest
	bigMinQueries    = 100 // so the p90 has 10 queries beyond it
	bigLimit         = 500 * time.Millisecond
	bigCheckQueries  = 3
	bigReplayQueries = 8
	rowSampleMax     = 20_000
)

// bigInst is the set-up bigraph-query workload: the heap CSR it was
// streamed into and the mmap'd plain and Packed .sgr v2 views of it.
type bigInst struct {
	rc         *runCtx
	n          int
	heap       *graph.Digraph
	mmap, pack graph.View
}

func (b *bigInst) close() {}

// snapshotKinds are the two .sgr v2 adjacency layouts, named as in file
// names and metric suffixes.
var snapshotKinds = []struct {
	name   string
	packed bool
}{{"plain", false}, {"packed", true}}

func openBigraph(rc *runCtx, rep *report, setups int) (instance, error) {
	n := max(int(bigVertices*rc.scale), 100)
	draws := max(int64(bigDraws*rc.scale), 1000)
	stream, err := powerLaw(n, draws, rc.seed)
	if err != nil {
		return nil, err
	}
	var ingest []float64
	packMBs := map[string][]float64{}
	bytesPerEdge := map[string]float64{}
	loadMs := map[string][]float64{}
	round := 0
	inst, err := setupLoop(rep, setups, func() (instance, time.Duration, error) {
		round++
		t := time.Now()
		g, d, err := buildGraph(rc.tr, stream)
		if err != nil {
			return nil, 0, err
		}
		ingest = append(ingest, float64(draws)/d.Seconds())
		b := &bigInst{rc: rc, n: n, heap: g}
		for _, k := range snapshotKinds {
			path := filepath.Join(rc.dir, fmt.Sprintf("big-%d.%s.sgr", round, k.name))
			size, d, err := writeSnapshot(rc.tr, path, g, k.packed)
			if err != nil {
				return nil, 0, err
			}
			packMBs[k.name] = append(packMBs[k.name], float64(size)/1e6/d.Seconds())
			bytesPerEdge[k.name] = float64(size) / float64(g.NumEdges())
			sp := rc.tr.start("graph", "graph.open."+k.name, 0, 0)
			lt := time.Now()
			v, info, err := graph.OpenGraphFile(path, graph.ReadOptions{})
			loadMs[k.name] = append(loadMs[k.name], ms(time.Since(lt)))
			sp.done()
			if err != nil {
				return nil, 0, err
			}
			if !info.Mapped || info.Packed != k.packed {
				return nil, 0, fmt.Errorf("%s: opened mapped=%v packed=%v", path, info.Mapped, info.Packed)
			}
			if k.packed {
				b.pack = v
			} else {
				b.mmap = v
			}
			// The mapping stays valid after unlinking; only its disk
			// space is held until the process exits.
			if err := os.Remove(path); err != nil {
				return nil, 0, err
			}
		}
		return b, time.Since(t), nil
	})
	if err != nil {
		return nil, err
	}
	rep.set("graph.ingest_edges_per_s", median(ingest), "1/s", len(ingest), "raw draws streamed into the CSR per second")
	for _, k := range snapshotKinds {
		rep.set("graph.pack_mb_per_s."+k.name, median(packMBs[k.name]), "MB/s", len(packMBs[k.name]), "WriteSnapshotOpts to a file")
		rep.set("graph.bytes_per_edge."+k.name, bytesPerEdge[k.name], "B", 1, ".sgr v2 file bytes per edge")
	}
	rep.set("graph.load_ms.mmap", median(loadMs["plain"]), "ms", len(loadMs["plain"]), "OpenGraphFile, mapped")
	rep.set("graph.load_ms.packed", median(loadMs["packed"]), "ms", len(loadMs["packed"]), "OpenGraphFile, mapped Packed")
	return inst, nil
}

// writeSnapshot packs g into a .sgr v2 file and returns its size and the
// time the write took.
func writeSnapshot(tr *tracer, path string, g *graph.Digraph, packed bool) (int64, time.Duration, error) {
	sp := tr.start("graph", "graph.pack", 0, 0)
	defer sp.done()
	t := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	if err := graph.WriteSnapshotOpts(f, g, graph.SnapshotOptions{Packed: packed}); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	d := time.Since(t)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, err
	}
	return fi.Size(), d, nil
}

func (b *bigInst) query(i int) []snaple.VertexID { return querySources(b.rc.seed, i, b.n, bigSources) }

// leg runs closed-loop scoped queries on view for budget (at least minN).
func (b *bigInst) leg(tr *tracer, view graph.View, budget time.Duration, minN int) ([]float64, []snaple.EngineStats, int, uint64) {
	var stats []snaple.EngineStats
	runtime.GC()
	a0 := totalAlloc()
	lats, errs := closedLoop(budget, minN, func(i int) error {
		opts := predOpts(cfgSeed, "local")
		opts.Sources = b.query(i)
		sp := tr.start("engine", "engine.query", int64(i), 0)
		_, st, err := snaple.PredictStats(view, opts)
		sp.done()
		stats = append(stats, st)
		return err
	})
	return lats, stats, errs, totalAlloc() - a0
}

func (b *bigInst) measure(tr *tracer, rep *report) (float64, error) {
	mmapBudget := time.Duration(bigMmapShare * b.rc.seconds * float64(time.Second))
	packBudget := time.Duration((1 - bigMmapShare) * b.rc.seconds * float64(time.Second))
	t := time.Now()
	lats, stats, errs, alloc := b.leg(tr, b.mmap, mmapBudget, bigMinQueries)
	secs := time.Since(t).Seconds()
	plats, _, perrs, _ := b.leg(tr, b.pack, packBudget, 2*minBeyond)
	rep.ops(len(lats)+len(plats), errs+perrs)

	if err := rep.setPct("latency_p50_ms", lats, 0.5, "ms"); err != nil {
		return 0, err
	}
	if err := rep.setPct("latency_tail_ms", lats, 0.9, "ms"); err != nil {
		return 0, err
	}
	good := 0
	for _, l := range lats {
		if l <= ms(bigLimit) {
			good++
		}
	}
	rep.set("goodput_qps", float64(good)/secs, "1/s", len(lats), fmt.Sprintf("closed loop, one client, limit %v", bigLimit))
	rep.set("query_alloc_mb", float64(alloc)/1e6/float64(len(lats)), "MB", len(lats), "TotalAlloc delta per mmap query")

	if err := setPeakRSS(rep); err != nil {
		return 0, err
	}
	if err := b.check(rep); err != nil {
		return 0, err
	}
	if tr != nil {
		optPct(rep, "graph.packed_query_p50_ms", plats, 0.5, "ms")
		engineMetrics(rep, stats)
		if err := b.rowMetrics(tr, rep); err != nil {
			return 0, err
		}
		var runs []scopedRun
		cfg, err := coreConfig(cfgSeed)
		if err != nil {
			return 0, err
		}
		for i := 0; i < bigReplayQueries; i++ {
			c := cfg
			c.Sources = b.query(i)
			runs = append(runs, scopedRun{View: b.mmap, Cfg: c})
		}
		if err := replayCoreMetrics(tr, rep, runs); err != nil {
			return 0, err
		}
	}
	p50, _ := quantile(lats, 0.5)
	return p50, nil
}

// check verifies that the heap, mmap and Packed views predict identically.
func (b *bigInst) check(rep *report) error {
	for i := 0; i < bigCheckQueries; i++ {
		var rows []snaple.Predictions
		for _, v := range []graph.View{b.heap, b.mmap, b.pack} {
			p, err := snaple.PredictFor(v, b.query(i), predOpts(cfgSeed, "local"))
			if err != nil {
				return err
			}
			rows = append(rows, p)
		}
		if !reflect.DeepEqual(rows[0], rows[1]) || !reflect.DeepEqual(rows[0], rows[2]) {
			rep.fail("query %d: heap, mmap and Packed views predict differently", i)
		}
	}
	return nil
}

// engineMetrics derives engine-layer metrics from per-run Stats.
func engineMetrics(rep *report, stats []snaple.EngineStats) {
	var runMs, frontier []float64
	var sumMs, sumFrontier, sumAlloc float64
	for _, st := range stats {
		d := st.WallSeconds * 1000
		runMs = append(runMs, d)
		frontier = append(frontier, float64(st.FrontierVertices))
		sumMs += d
		sumFrontier += float64(st.FrontierVertices)
		sumAlloc += float64(st.AllocBytes)
	}
	n := len(stats)
	if n == 0 {
		return
	}
	optPct(rep, "engine.run_ms_p50", runMs, 0.5, "ms")
	optPct(rep, "engine.run_ms_p90", runMs, 0.9, "ms")
	rep.set("engine.frontier_vertices_mean", mean(frontier), "count", n, "")
	rep.set("engine.us_per_frontier_vertex", sumMs*1000/max(sumFrontier, 1), "us", n, "")
	if sumAlloc > 0 { // snaple.Result carries no allocation figure
		rep.set("engine.alloc_mb_per_run", sumAlloc/1e6/float64(n), "MB", n, "engine Stats.AllocBytes")
	}
}

// rowMetrics times AppendOutRow over a sample of the first query's closure
// on the mmap and Packed views.
func (b *bigInst) rowMetrics(tr *tracer, rep *report) error {
	cfg, err := coreConfig(cfgSeed)
	if err != nil {
		return err
	}
	cfg.Sources = b.query(0)
	f, err := core.NewFrontier(b.mmap, cfg)
	if err != nil {
		return err
	}
	verts := f.Trunc.Members()
	if len(verts) == 0 {
		return nil
	}
	if len(verts) > rowSampleMax {
		verts = verts[:rowSampleMax]
	}
	for _, v := range []struct {
		name string
		view graph.View
	}{{"mmap", b.mmap}, {"packed", b.pack}} {
		var buf []graph.VertexID
		sp := tr.start("graph", "graph.rows."+v.name, 0, 0)
		t := time.Now()
		rows := 0
		for rows < 10*len(verts) || time.Since(t) < 50*time.Millisecond {
			for _, u := range verts {
				buf = v.view.AppendOutRow(buf[:0], u)
			}
			rows += len(verts)
		}
		d := time.Since(t)
		sp.done()
		rep.set("graph.row_ns."+v.name, float64(d.Nanoseconds())/float64(rows), "ns", rows, "AppendOutRow over closure vertices")
	}
	return nil
}
