package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"snaple/internal/graph"
)

// TestWorkloadsEndToEnd runs every workload, traced (which includes an
// untraced pass), on tiny graphs.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			// The serve nominal phase needs 100 predicts for its p90 (7.3 s
			// at 20 op/s); the closed loops need 100 queries and give up at
			// 3×seconds, which the race detector's slowdown can reach on
			// shorter runs.
			rc := &runCtx{seed: 7, seconds: 8, scale: 0.01, dir: t.TempDir()}
			rep, err := run(&w, rc, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 || rep.attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d problems=%v", rep.correct, rep.failed, rep.attempted, rep.problems)
			}
			for _, m := range endToEnd {
				if v, ok := rep.metrics[m.name]; !ok || v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %+v, want > 0", m.name, v)
				}
			}
			if _, ok := rep.metrics["core.runner_ms"]; !ok {
				t.Error("traced run has no core replay")
			}
			var buf bytes.Buffer
			if err := emit(&buf, rep, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	inputs := func(seed uint64) []byte {
		s, err := powerLaw(2000, 20000, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := buildGraph(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := graph.WriteSnapshot(&buf, g); err != nil {
			t.Fatal(err)
		}
		plan := []phasePlan{{phaseWarm, 200, 0.5}, {phaseNominal, 300, 0.5}}
		churn := schedule(seed, plan, idsPerRequest, mutateEvery, edgesPerBatch, g)
		b, err := json.Marshal([]any{churn, querySources(seed, 3, 2000, 64)})
		if err != nil {
			t.Fatal(err)
		}
		return append(buf.Bytes(), b...)
	}
	a, b := inputs(1), inputs(1)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 gave two different input sets")
	}
	if bytes.Equal(a, inputs(2)) {
		t.Fatal("seeds 1 and 2 gave the same inputs")
	}
}

func TestQuantileRefusesThinTails(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	if _, err := quantile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	if v, err := quantile(xs(1000), 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := quantile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples accepted")
	}
	if v, err := quantile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// TestGeneratorLagAccounted starts an open loop whose schedule is already
// overdue: the lag is reported, and latency timed from the due time
// includes it.
func TestGeneratorLagAccounted(t *testing.T) {
	reqs := []request{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}}
	start := time.Now().Add(-50 * time.Millisecond)
	var wg sync.WaitGroup
	var mu sync.Mutex
	lat := make([]float64, len(reqs))
	lags := openLoop(start, reqs, &wg, func(i int, due time.Time) {
		mu.Lock()
		lat[i] = ms(time.Since(due))
		mu.Unlock()
	})
	wg.Wait()
	for i, want := range []float64{50, 40, 30} {
		if lags[i] < want {
			t.Errorf("request %d: lag %.1fms, want ≥ %.0fms", i, lags[i], want)
		}
		if lat[i] < lags[i] {
			t.Errorf("request %d: latency %.1fms excludes the %.1fms lag", i, lat[i], lags[i])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Layer: "serve", Start: 0, End: 100},
		{Layer: "serve", Start: 50, End: 150},
		{Layer: "engine", Start: 20, End: 60},
		{Layer: "core", Start: 30, End: 40},
		{Layer: "graph", Start: 200, End: 210},
	}
	got := tr.selfTimes()
	want := map[string]float64{"serve": 110e-9, "engine": 30e-9, "core": 10e-9, "graph": 10e-9}
	for l, w := range want {
		if d := got[l] - w; d > 1e-15 || d < -1e-15 {
			t.Errorf("%s self time %g, want %g", l, got[l], w)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		prog []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []metricSpec
		for _, m := range c.json {
			got = append(got, metricSpec{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(got, c.prog) {
			t.Errorf("BENCHMARK.json metrics %v, program %v", got, c.prog)
		}
	}
}
