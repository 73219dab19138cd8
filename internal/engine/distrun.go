package engine

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/wire"
)

// ErrPartitionLost is returned (wrapped) by the dist backend when every
// replica of some partition has died: the run cannot produce that
// partition's masters, so it fails within the phase deadline instead of
// hanging. errors.Is(err, ErrPartitionLost) detects it through the wrapping.
var ErrPartitionLost = errors.New("partition lost: all replicas dead")

// distRun is the live state of one distributed prediction: the connections,
// which of them are still believed alive, and which replica currently
// serves each partition. It is the coordinator's failure domain — a
// connection error or a missed phase deadline marks that worker dead here,
// and the run continues on the survivors.
//
// Replication model: with replica factor R, partition p is served by the R
// connections groups[p]. Every replica receives identical traffic — the
// step-begin broadcast, the foreign partials routed to the partition's
// masters, the mirror refreshes — and therefore computes identically (all
// folds canonicalise, so per-chunk arrival order is irrelevant). That makes
// every replica equally authoritative at every superstep barrier: promotion
// is just the coordinator choosing a different connection to read from, and
// the results stay bit-identical to the healthy run.
//
// Failover protocol: workers know nothing about replication or failover.
// When a death is detected mid-superstep the coordinator finishes the
// attempt's full exchange with the survivors (they return to their session
// loop cleanly), then re-issues the same KindStepBegin — a complete re-run
// of the superstep on the survivors. Re-running is safe because each step's
// apply overwrites only its own output field, which its gather never reads;
// the aborted attempt's partial garbage is overwritten wholesale. Each
// restart consumes at least one death, so the retry count is bounded by the
// worker count.
type distRun struct {
	dep     *deployment
	conns   []*wire.Conn // nil entries: workers that never connected
	partOf  []int        // conn index -> partition it serves
	groups  [][]int      // partition -> conn indices (its replicas)
	timeout time.Duration
	rt      *router

	mu         sync.Mutex
	alive      []bool
	deadErr    []error
	primary    []bool // conn currently serving its partition
	primaryOf  []int  // partition -> serving conn index, -1 when lost
	nDead      int
	nFailovers int
	newDead    bool // a death since the last beginAttempt
}

// newDistRun wires the run state for len(conns)/replicas partitions, where
// conns[p*replicas : (p+1)*replicas] are partition p's replicas. Nil
// connections (workers that never dialed) are recorded dead by the caller
// via markDead.
func newDistRun(dep *deployment, conns []*wire.Conn, replicas int, timeout time.Duration) *distRun {
	r := &distRun{
		dep:       dep,
		conns:     conns,
		partOf:    make([]int, len(conns)),
		groups:    make([][]int, len(conns)/replicas),
		timeout:   timeout,
		alive:     make([]bool, len(conns)),
		deadErr:   make([]error, len(conns)),
		primary:   make([]bool, len(conns)),
		primaryOf: make([]int, len(conns)/replicas),
	}
	for i := range conns {
		p := i / replicas
		r.partOf[i] = p
		r.groups[p] = append(r.groups[p], i)
		r.alive[i] = true
	}
	for p := range r.primaryOf {
		r.primaryOf[p] = -1
	}
	r.rt = newRouter(r)
	return r
}

// markDead records worker i's death and closes its connection, which
// unblocks any goroutine still reading or writing it. Idempotent: only the
// first verdict (and its error) counts.
func (r *distRun) markDead(i int, err error) {
	r.mu.Lock()
	if !r.alive[i] {
		r.mu.Unlock()
		return
	}
	r.alive[i] = false
	r.deadErr[i] = err
	r.nDead++
	r.newDead = true
	r.mu.Unlock()
	if c := r.conns[i]; c != nil {
		_ = c.Close()
	}
}

func (r *distRun) isAlive(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.alive[i]
}

func (r *distRun) isPrimary(i int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary[i]
}

// sawDeath reports whether any worker died since the last beginAttempt.
func (r *distRun) sawDeath() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newDead
}

func (r *distRun) deadCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nDead
}

func (r *distRun) failoverCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nFailovers
}

// beginAttempt opens one attempt at a phase: it clears the death flag and
// re-elects each partition's serving replica as the first survivor of its
// group — the master-election-over-survivors step of a failover. A change
// of serving replica for a partition that had one is counted as a failover.
func (r *distRun) beginAttempt() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.newDead = false
	for p, group := range r.groups {
		np := -1
		for _, i := range group {
			if r.alive[i] {
				np = i
				break
			}
		}
		if prev := r.primaryOf[p]; prev >= 0 && np >= 0 && np != prev {
			r.nFailovers++
		}
		r.primaryOf[p] = np
	}
	for i := range r.primary {
		r.primary[i] = false
	}
	for _, i := range r.primaryOf {
		if i >= 0 {
			r.primary[i] = true
		}
	}
}

// armDeadline bounds every exchange of the upcoming phase on the live
// connections; the next phase re-arms, so a healthy long run never trips
// it, while a wedged or blackholed worker turns into a liveness verdict
// instead of a hang.
func (r *distRun) armDeadline() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, c := range r.conns {
		if c == nil || !r.alive[i] {
			continue
		}
		if r.timeout > 0 {
			_ = c.SetDeadline(time.Now().Add(r.timeout))
		} else {
			_ = c.SetDeadline(time.Time{})
		}
	}
}

// eachAlive runs fn once per live connection on its own goroutine; an error
// is a liveness verdict on that worker, not on the run. Each connection is
// touched by exactly one goroutine per direction (the router's sends to
// destinations are serialised separately, by routeDest.mu).
func (r *distRun) eachAlive(fn func(i int, c *wire.Conn) error) {
	r.mu.Lock()
	idx := make([]int, 0, len(r.conns))
	for i := range r.conns {
		if r.alive[i] {
			idx = append(idx, i)
		}
	}
	r.mu.Unlock()
	var wg sync.WaitGroup
	for _, i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(i, r.conns[i]); err != nil {
				r.markDead(i, err)
			}
		}()
	}
	wg.Wait()
}

// lostErr reports the first partition with no surviving replica, wrapped
// around ErrPartitionLost with the last per-replica error for diagnosis.
// Nil while every partition still has a live replica.
func (r *distRun) lostErr(phase string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for p, group := range r.groups {
		var last error
		lost := true
		for _, i := range group {
			if r.alive[i] {
				lost = false
				break
			}
			if r.deadErr[i] != nil {
				last = r.deadErr[i]
			}
		}
		if lost {
			return fmt.Errorf("engine: dist %s: %w: partition %d (%d replicas; last error: %v)",
				phase, ErrPartitionLost, p, len(group), last)
		}
	}
	return nil
}

// closeAll force-closes every connection — the cancellation path. It does
// not mark anyone dead; the in-flight exchanges fail on their own and the
// verdicts land through the normal liveness machinery.
func (r *distRun) closeAll() {
	for _, c := range r.conns {
		if c != nil {
			_ = c.Close()
		}
	}
}

// killWorker is the chaos suite's coordinator-side fault hook: it cuts
// worker i's connection without telling the liveness tracker, so the death
// is discovered the way a real one is — by the next exchange failing.
func (r *distRun) killWorker(i int) {
	if c := r.conns[i]; c != nil {
		_ = c.Close()
	}
}

// runStep drives one attempt of one superstep across the live workers. It
// never returns an error: every failure inside is a liveness verdict on one
// connection, and the caller decides between restart and ErrPartitionLost
// from sawDeath/lostErr.
//
// Every live replica takes part in every phase — the step-begin broadcast,
// the partial drain, the final foreign chunks, the refresh round — so each
// attempt leaves every survivor back in its session loop regardless of who
// died mid-attempt; that is what makes the restart a clean re-issue of
// KindStepBegin. Only the serving replica's upstream records are routed;
// the standbys' identical streams are drained and discarded to keep their
// sessions in step.
func (r *distRun) runStep(step core.DistStep, final bool) {
	rt := r.rt
	rt.reset(step)
	// Each exchange phase re-arms the deadline on the survivors: a stalled
	// worker consumes its own phase's window, not the windows of the phases
	// that finish the attempt after its death.
	r.armDeadline()
	r.eachAlive(func(i int, c *wire.Conn) error {
		return c.Send(&wire.Msg{Kind: wire.KindStepBegin, Step: step, Final: final})
	})
	// Drain every live worker's partial stream, routing the serving
	// replicas' records to the master partitions' replica groups as they
	// arrive. Order across sources is irrelevant: all folds canonicalise.
	r.eachAlive(func(i int, c *wire.Conn) error {
		return r.drain(c, wire.KindPartials, step, r.isPrimary(i), rt.routePartial)
	})
	// Every destination gets a final-flagged chunk — possibly empty, the
	// stream terminator its apply phase waits for.
	r.flushAll(wire.KindForeign, step)
	if final {
		return
	}
	// Refresh round: serving replicas push fresh master state up, the
	// coordinator fans each vertex's state out to every replica of every
	// partition holding one of its mirrors.
	rt.reset(step)
	r.armDeadline()
	r.eachAlive(func(i int, c *wire.Conn) error {
		return r.drain(c, wire.KindRefresh, step, r.isPrimary(i), rt.routeState)
	})
	r.flushAll(wire.KindMirrors, step)
}

// drain reads one worker's chunked upstream for step until its final chunk,
// handing every record to fn when the worker is its partition's serving
// replica; a standby's identical stream is read and discarded.
func (r *distRun) drain(c *wire.Conn, kind wire.Kind, step core.DistStep, route bool, fn func(graph.VertexID, []byte) error) error {
	each := wire.ForEachPartialRecord
	if kind == wire.KindRefresh {
		each = wire.ForEachStateRecord
	}
	for {
		f, err := c.RecvRaw()
		if err != nil {
			return err
		}
		if f.Kind != kind || f.Step != step {
			return fmt.Errorf("%s for %v during %v %s", f.Kind, f.Step, step, kind)
		}
		if route {
			if err := each(f.Payload, fn); err != nil {
				return err
			}
		}
		if f.Final {
			return nil
		}
	}
}

// flushAll ends a routing phase: every live destination gets its pending
// records as a final-flagged chunk.
func (r *distRun) flushAll(kind wire.Kind, step core.DistStep) {
	r.armDeadline()
	r.eachAlive(func(i int, c *wire.Conn) error {
		dst := &r.rt.dests[i]
		dst.mu.Lock()
		defer dst.mu.Unlock()
		return c.SendRaw(kind, step, true, dst.bb.Payload())
	})
}

// collect gathers one result per partition, failing over to standbys: any
// replica holds identical master state, so the first that answers serves.
// Partitions never share a connection, so the per-partition goroutines
// touch disjoint conns.
func (r *distRun) collect() ([]wire.WorkerResult, error) {
	results := make([]wire.WorkerResult, len(r.groups))
	got := make([]bool, len(r.groups))
	var wg sync.WaitGroup
	for p := range r.groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := r.promote(p)
				if i < 0 {
					return
				}
				c := r.conns[i]
				// Re-arm per attempt: a blackholed primary may have eaten
				// the phase's shared deadline window before the standby
				// gets its turn.
				if r.timeout > 0 {
					_ = c.SetDeadline(time.Now().Add(r.timeout))
				}
				if err := c.Send(&wire.Msg{Kind: wire.KindCollect}); err != nil {
					r.markDead(i, err)
					continue
				}
				m, err := c.Expect(wire.KindResult)
				if err != nil {
					r.markDead(i, err)
					continue
				}
				results[p] = m.Result
				got[p] = true
				return
			}
		}()
	}
	wg.Wait()
	for p := range got {
		if !got[p] {
			return nil, r.lostErr("collect")
		}
	}
	return results, nil
}

// promote returns partition p's serving connection, electing the first
// survivor (and counting the failover) when the previous one died.
func (r *distRun) promote(p int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, i := range r.groups[p] {
		if r.alive[i] {
			if prev := r.primaryOf[p]; prev >= 0 && prev != i {
				r.nFailovers++
			}
			r.primaryOf[p] = i
			return i
		}
	}
	r.primaryOf[p] = -1
	return -1
}

// router is the coordinator's streaming exchange state: one destination per
// connection, each holding the outgoing chunk under construction. Records
// are routed raw — appended verbatim to the destination's batch and flushed
// in fixed-size chunks as they arrive, so the coordinator never decodes
// what it only forwards. A record for partition p fans out to every live
// replica in groups[p] — identical inbound traffic is what keeps the
// replicas interchangeable. A send failure to a destination is a liveness
// verdict on that destination and never propagates to the source being
// drained.
type router struct {
	step  core.DistStep
	dests []routeDest
	run   *distRun
}

type routeDest struct {
	mu sync.Mutex
	c  *wire.Conn
	bb wire.BatchBuilder
}

func newRouter(r *distRun) *router {
	rt := &router{dests: make([]routeDest, len(r.conns)), run: r}
	for i := range rt.dests {
		rt.dests[i].c = r.conns[i]
		if r.conns[i] == nil {
			continue
		}
		// Chunks flush at routeChunkBytes, but the record that crosses the
		// threshold still has to fit; the slop covers typical record sizes
		// so steady-state routing never grows the builder.
		rt.dests[i].bb.Reset()
		rt.dests[i].bb.Grow(routeChunkBytes + routeChunkBytes/4)
	}
	return rt
}

// reset readies the router for one routing phase of step, keeping buffers.
func (rt *router) reset(step core.DistStep) {
	rt.step = step
	for i := range rt.dests {
		rt.dests[i].bb.Reset()
	}
}

// appendRaw appends one raw record to destination j's batch, flushing a
// full chunk. A flush failure marks j dead.
func (rt *router) appendRaw(j int, kind wire.Kind, rec []byte) {
	if !rt.run.isAlive(j) {
		return
	}
	d := &rt.dests[j]
	d.mu.Lock()
	d.bb.AppendRaw(rec)
	var err error
	if d.bb.Len() >= routeChunkBytes {
		err = d.c.SendRaw(kind, rt.step, false, d.bb.Payload())
		d.bb.Reset()
	}
	d.mu.Unlock()
	if err != nil {
		rt.run.markDead(j, err)
	}
}

// routePartial routes one encoded partial record to every replica of its
// vertex's master partition.
func (rt *router) routePartial(v graph.VertexID, rec []byte) error {
	i, ok := rt.run.dep.slot(v)
	if !ok || rt.run.dep.masterPart[i] < 0 {
		return fmt.Errorf("partial for vertex %d, which no partition hosts", v)
	}
	mp := rt.run.dep.masterPart[i]
	for _, j := range rt.run.groups[mp] {
		rt.appendRaw(j, wire.KindForeign, rec)
	}
	return nil
}

// routeState fans one encoded state record out to every replica of every
// partition holding one of the vertex's mirrors.
func (rt *router) routeState(v graph.VertexID, rec []byte) error {
	i, ok := rt.run.dep.slot(v)
	if !ok {
		return fmt.Errorf("state for vertex %d, which no partition hosts", v)
	}
	for _, mp := range rt.run.dep.mirrors[i] {
		for _, j := range rt.run.groups[mp] {
			rt.appendRaw(j, wire.KindMirrors, rec)
		}
	}
	return nil
}
