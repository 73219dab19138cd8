package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: p50 needs 20 samples, p90 100, p99 1000.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of xs (sorted or not; xs is
// sorted in place). It refuses when fewer than minBeyond samples lie beyond
// p, so a tail figure always rests on a stated number of observations.
func quantile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("quantile %g outside (0,1)", p)
	}
	if beyond := float64(len(xs)) * (1 - p); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%s of %d samples has %.1f beyond it, want ≥ %d", pctName(p), len(xs), beyond, minBeyond)
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)], nil
}

// pctName renders 0.99 as "99" and 0.999 as "99.9".
func pctName(p float64) string { return strconv.FormatFloat(p*100, 'f', -1, 64) }

// median is the 0.5 quantile without the sample-count rule, for figures
// that are repeated measurements of one quantity (set-up times).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metric is one reported figure: the value and unit that go into the
// result line, plus the sample count and a note for the human report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// report collects a run's outcome.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	problems  []string
}

func newReport() *report { return &report{correct: true, metrics: map[string]metric{}} }

// set records a metric. n is the number of samples behind it.
func (r *report) set(name string, value float64, unit string, n int, note string) {
	r.metrics[name] = metric{Value: value, Unit: unit, n: n, note: note}
}

// setPct records the p-quantile of samples, or a problem when the sample
// count cannot support it.
func (r *report) setPct(name string, samples []float64, p float64, unit string) error {
	v, err := quantile(append([]float64(nil), samples...), p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	r.set(name, v, unit, len(samples), "p"+pctName(p))
	return nil
}

// fail marks the run's outputs as incorrect.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// ops accounts operations: attempted and failed.
func (r *report) ops(attempted, failed int) {
	r.attempted += int64(attempted)
	r.failed += int64(failed)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// setPeakRSS records the process's peak RSS so far as peak_rss_mb. A
// workload calls it when its measured phases end, before its output checks,
// so that the checks' own allocations do not decide the figure.
func setPeakRSS(rep *report) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss, "MB", 1, "VmHWM at the end of the measured phases")
	return nil
}

func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// merge folds another pass's outcome (not its metrics) into r.
func (r *report) merge(o *report) {
	r.correct = r.correct && o.correct
	r.attempted += o.attempted
	r.failed += o.failed
	r.problems = append(r.problems, o.problems...)
}
