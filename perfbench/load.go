package main

import (
	"sync"
	"time"
)

// openLoop dispatches one goroutine per scheduled operation at its due time
// (start + reqs[i].Due), whatever the state of earlier operations, and
// returns how late each dispatch ran (ms). do must time its operation from
// the due time it is handed, so a stall is charged to every operation it
// delays. openLoop returns once every operation has been dispatched; wait
// on wg for them to finish.
func openLoop(start time.Time, reqs []request, wg *sync.WaitGroup, do func(i int, due time.Time)) []float64 {
	lags := make([]float64, len(reqs))
	for i, r := range reqs {
		due := start.Add(r.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = ms(time.Since(due))
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, due)
		}()
	}
	return lags
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// closedLoop runs op(i) back to back from one client until budget has
// elapsed and at least minN operations completed, or until 3×budget in any
// case. It returns the latency in ms of each operation that succeeded and
// the number that failed.
func closedLoop(budget time.Duration, minN int, op func(i int) error) (lats []float64, errs int) {
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= budget && len(lats) >= minN) || el >= 3*budget {
			return lats, errs
		}
		t := time.Now()
		if err := op(i); err != nil {
			errs++
			continue
		}
		lats = append(lats, ms(time.Since(t)))
	}
}
