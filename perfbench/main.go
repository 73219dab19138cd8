// Command perfbench is SNAPLE's benchmark: it runs one named workload from a
// seed, checks the program's outputs, and prints every end-to-end metric
// (or, with -trace 1, every per-layer metric) by name, unit and sample
// count, ending with one JSON result line. See README.md.
//
//	perfbench -workload serve-churn -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of SNAPLE sees; every workload reports
// each of them (BENCHMARK.json lists the same names, units and bounds).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"goodput_qps", "1/s"},
	{"query_alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A workload that does not exercise
// a layer reports 0 for it.
var perLayer = []metricSpec{
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.miss_latency_p90_ms", "ms"},
	{"serve.ids_per_run", "count"},
	{"serve.run_busy_frac", "ratio"},
	{"serve.mutation_p90_ms", "ms"},
	{"serve.invalidated_per_mutation", "count"},
	{"serve.compactions", "count"},
	{"serve.self_s", "s"},
	{"engine.run_ms_p50", "ms"},
	{"engine.run_ms_p90", "ms"},
	{"engine.frontier_vertices_mean", "count"},
	{"engine.us_per_frontier_vertex", "us"},
	{"engine.alloc_mb_per_run", "MB"},
	{"engine.edges_per_s.local", "1/s"},
	{"engine.edges_per_s.oneshot", "1/s"},
	{"engine.edges_per_s.fleet", "1/s"},
	{"engine.fleet_open_s", "s"},
	{"engine.self_s", "s"},
	{"core.runner_ms", "ms"},
	{"core.closure_ms", "ms"},
	{"core.arena_ms", "ms"},
	{"core.truncate_ms", "ms"},
	{"core.relays_ms", "ms"},
	{"core.combine_ms", "ms"},
	{"core.dirty_sources_ms", "ms"},
	{"core.self_s", "s"},
	{"graph.ingest_edges_per_s", "1/s"},
	{"graph.pack_mb_per_s.plain", "MB/s"},
	{"graph.pack_mb_per_s.packed", "MB/s"},
	{"graph.bytes_per_edge.plain", "B"},
	{"graph.bytes_per_edge.packed", "B"},
	{"graph.load_ms.mmap", "ms"},
	{"graph.load_ms.packed", "ms"},
	{"graph.row_ns.mmap", "ns"},
	{"graph.row_ns.packed", "ns"},
	{"graph.packed_query_p50_ms", "ms"},
	{"graph.apply_ms_p50", "ms"},
	{"graph.materialize_ms", "ms"},
	{"graph.self_s", "s"},
	{"wire.cross_mb_per_full", "MB"},
	{"wire.cross_msgs_per_full", "count"},
	{"wire.cross_mb_per_query", "MB"},
	{"wire.cross_msgs_per_query", "count"},
	{"wire.ship_kb_per_query", "KB"},
	{"bench.generator_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.failed_frac", "ratio"},
}

// runCtx is what a workload is run with.
type runCtx struct {
	seed    uint64
	seconds float64 // measured time of one pass
	scale   float64 // graph-size multiplier: 1 in real runs, small in tests
	dir     string  // scratch directory inside the checkout
	tr      *tracer // set-up spans; nil unless traced
}

// instance is a set-up workload.
type instance interface {
	// measure runs the measured phases once with tracer tr (nil = off),
	// checks the outputs and records metrics in rep. It returns the
	// workload's primary per-operation p50 latency in ms, which the traced
	// run compares against an untraced pass.
	measure(tr *tracer, rep *report) (float64, error)
	close()
}

// workload describes one named workload. open sets it up setups times,
// records setup_s (and any set-up layer metrics) in rep, and returns the
// last set-up instance.
type workload struct {
	name   string
	setups int
	open   func(rc *runCtx, rep *report, setups int) (instance, error)
}

// Set-ups of a second or less repeat five times, so that their median is
// steady; bigraph-query's take seconds each and repeat three times.
var workloads = []workload{
	{"serve-churn", 5, openServeChurn},
	{"bigraph-query", 3, openBigraph},
	{"fleet-batch", 5, openFleet},
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-churn|bigraph-query|fleet-batch")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measured seconds of the run")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceFlag == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed uint64, seconds float64, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds %g must be positive", seconds)
	}
	base := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{seed: seed, seconds: seconds, scale: 1, dir: dir}
	rep, err := run(w, rc, traced)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join(base, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
		if err := rc.tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return emit(os.Stdout, rep, traced)
}

// run sets the workload up and measures it. A traced run measures twice on
// the same set-up: once untraced, then with spans on, and reports the
// second pass's primary p50 over the first's as the tracing overhead.
func run(w *workload, rc *runCtx, traced bool) (*report, error) {
	rep := newReport()
	if traced {
		rc.tr = newTracer()
	}
	inst, err := w.open(rc, rep, w.setups)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()
	if !traced {
		if _, err := inst.measure(nil, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	} else {
		plain := newReport()
		p50, err := inst.measure(nil, plain)
		if err != nil {
			return nil, fmt.Errorf("%s untraced pass: %w", w.name, err)
		}
		rep.merge(plain)
		tp50, err := inst.measure(rc.tr, rep)
		if err != nil {
			return nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		rep.set("bench.trace_overhead_frac", tp50/p50-1, "ratio", 2, "traced p50 over untraced p50, minus 1")
		for layer, s := range rc.tr.selfTimes() {
			rep.set(layer+".self_s", s, "s", 1, "wall time with this layer, and none below it, in flight")
		}
	}
	rep.set("bench.failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", int(rep.attempted), "")
	return rep, nil
}

// emit prints the human report and then the result line.
func emit(out io.Writer, rep *report, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	metrics := map[string]metric{}
	var missing []string
	for _, s := range specs {
		m, ok := rep.metrics[s.name]
		switch {
		case ok && m.Unit != s.unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", s.name, m.Unit, s.unit)
		case !ok && !traced:
			missing = append(missing, s.name)
			continue
		case !ok:
			m = metric{Unit: s.unit, note: "not exercised by this workload"}
		}
		metrics[s.name] = m
		fmt.Fprintf(out, "%-32s %14.6g %-6s n=%-7d %s\n", s.name, m.Value, m.Unit, m.n, m.note)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload did not measure %v", missing)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(out, "check failed:", p)
	}
	fmt.Fprintf(out, "attempted %d, failed %d, correct %v\n", rep.attempted, rep.failed, rep.correct)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}

// setupLoop runs one set-up n times, closing every instance but the last,
// and records the median time as setup_s.
func setupLoop(rep *report, n int, once func() (instance, time.Duration, error)) (instance, error) {
	var times []float64
	var inst instance
	for i := 0; i < n; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Every set-up starts from the same heap: the previous instance's
		// garbage is collected and returned to the OS, so it neither paces
		// this set-up nor decides where the process's peak RSS falls.
		debug.FreeOSMemory()
		var d time.Duration
		var err error
		inst, d, err = once()
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	rep.set("setup_s", median(times), "s", len(times), "median of set-ups")
	debug.FreeOSMemory()
	return inst, nil
}
