package engine

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"snaple/internal/core"
	"snaple/internal/graph"
	"snaple/internal/partition"
	"snaple/internal/randx"
	"snaple/internal/wire"
)

// Dist runs Algorithm 2 across real worker processes connected over TCP —
// the scale-out half of the paper, with an actual network where the sim
// backend has a cost model. It is a Fleet opened for one call: each Predict
// freezes the view into a CSR, resolves its workers, opens a fleet over
// them (the fleet vertex-cuts the graph and hands each worker its shard),
// runs the query and closes the fleet. Workers gather locally, partials for
// remotely-mastered vertices are routed through the coordinator to the
// master's worker, masters apply, and refreshed state is routed back to the
// mirror copies. Every fold along the way is order-independent, so the
// result is bit-identical to Serial, Local and Sim for any worker count.
//
// Stats.CrossBytes and Stats.CrossMsgs are measured on the wire (all
// coordinator↔worker traffic after the attach; shipping the shards, like
// the sim backend's graph load, is setup the paper's timings exclude), not
// simulated.
//
// Three ways to get workers, in priority order:
//
//   - Addrs: connect to already-running snaple-worker processes (a real
//     cluster, or the CI cluster-smoke script's loopback fleet);
//   - Spawn: fork N snaple-worker processes on loopback and tear them down
//     with the call (requires the binary, see WorkerBin);
//   - otherwise InProc in-process loopback workers (still real TCP and real
//     wire frames through the kernel, just not a separate OS process) — the
//     zero-config default used by engine.New, Predict and the equivalence
//     tests.
type Dist struct {
	// Addrs connects to running workers ("host:port" each). Takes priority
	// over Spawn/InProc.
	Addrs []string
	// Spawn forks this many snaple-worker processes on loopback for the
	// duration of the call.
	Spawn int
	// WorkerBin locates the worker binary for Spawn (default: "snaple-worker"
	// resolved through PATH).
	WorkerBin string
	// InProc serves this many in-process loopback workers when neither Addrs
	// nor Spawn is given (0 = 2).
	InProc int
	// Strategy selects the vertex-cut, one partition per worker group
	// (nil = partition.HashEdge{Seed}).
	Strategy partition.Strategy
	// Seed drives partitioning and master election.
	Seed uint64
	// Replicas serves each partition from this many workers (0 or 1 = no
	// replication). With R > 1 the available workers divide into avail/R
	// groups of R replicas each; every replica receives identical traffic
	// and computes identically, so when a worker dies the run fails over to
	// a surviving replica and completes with bit-identical results. Only
	// when all R replicas of a partition are gone does the run fail, with
	// ErrPartitionLost. Values above the worker count are clamped.
	Replicas int
	// StepTimeout bounds each superstep (and the final collect) per run: a
	// wedged worker or a blackholed connection is then declared dead at the
	// deadline — a failover (or, with no replicas left, ErrPartitionLost)
	// instead of a hang. 0 means the 10-minute default; negative disables
	// the bound (for legitimately enormous supersteps).
	StepTimeout time.Duration
	// DialAttempts bounds connection attempts per worker during setup:
	// transient dial and spawn-handshake failures are retried with
	// exponential backoff and jitter up to this many tries (0 = 3).
	DialAttempts int
	// DialBackoff is the initial retry backoff, doubled after each failed
	// attempt with jitter (0 = 150ms).
	DialBackoff time.Duration
	// Compress requests per-frame flate compression (subject to each worker
	// granting it) — a cross-rack bandwidth trade.
	Compress bool

	// hookStep, when set (chaos tests only), runs before each superstep
	// attempt with the step's index and the live run state — the
	// coordinator-side fault hook that kills worker W at superstep S.
	hookStep func(si int, r *distRun)
}

// routeChunkBytes is the coordinator's flush threshold while routing
// records: the same fixed chunk size workers stream partials up in.
const routeChunkBytes = 64 << 10

// shipTimeout bounds the ship/ready and attach/ready handshakes per worker.
// Generous — a big shard legitimately takes a while to encode and load —
// but finite: a wedged worker must surface as an error, not a hang.
const shipTimeout = 2 * time.Minute

// Name implements Backend.
func (Dist) Name() string { return "dist" }

// workerCount resolves how many workers the call will use, in the
// Addrs > Spawn > InProc priority order.
func (d Dist) workerCount() int {
	switch {
	case len(d.Addrs) > 0:
		return len(d.Addrs)
	case d.Spawn > 0:
		return d.Spawn
	case d.InProc > 0:
		return d.InProc
	default:
		return 2
	}
}

// stepTimeout resolves a per-superstep bound (0 = unbounded).
func stepTimeout(d time.Duration) time.Duration {
	switch {
	case d < 0:
		return 0
	case d == 0:
		return 10 * time.Minute
	default:
		return d
	}
}

// Predict implements Backend.
func (d Dist) Predict(g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	return d.PredictCtx(context.Background(), g, cfg)
}

// PredictCtx implements ContextBackend: Predict under a context. Cancelling
// ctx closes every worker connection, so whatever exchange is in flight
// fails promptly and the call returns ctx.Err() — the workers see their
// session end and stay reusable for the next job.
func (d Dist) PredictCtx(ctx context.Context, g graph.View, cfg core.Config) (core.Predictions, Stats, error) {
	st := Stats{Engine: "dist"}
	// Validate before any worker is contacted: a bad config or an
	// unshippable score fails here, identically for every deployment.
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, st, err
	}
	if _, err := wire.JobFromConfig(cfg); err != nil {
		return nil, st, err
	}
	csr, err := Freeze(g)
	if err != nil {
		return nil, st, err
	}
	avail := d.workerCount()
	reps := min(max(d.Replicas, 1), avail)
	o := FleetOptions{
		Addrs: d.Addrs, InProc: avail / reps, Replicas: reps,
		Strategy: d.Strategy, Seed: d.Seed, StepTimeout: d.StepTimeout,
		DialAttempts: d.DialAttempts, DialBackoff: d.DialBackoff, Compress: d.Compress,
	}
	var spawnRetries int
	if len(d.Addrs) == 0 && d.Spawn > 0 {
		addrs, stop, retries, err := SpawnWorkers(d.WorkerBin, avail/reps*reps, d.DialAttempts, d.DialBackoff)
		if err != nil {
			st.DialRetries = retries
			return nil, st, fmt.Errorf("engine: dist: %w", err)
		}
		defer stop()
		o.Addrs, spawnRetries = addrs, retries
	}
	f, err := OpenFleet(csr, o)
	if err != nil {
		return nil, st, fmt.Errorf("engine: dist: %w", err)
	}
	defer f.Close()
	f.hookStep = d.hookStep
	pred, st, err := f.PredictCtx(ctx, csr, cfg)
	st.Engine = "dist"
	st.DialRetries = spawnRetries + f.Stats().DialRetries
	return pred, st, err
}

// Freeze returns the frozen CSR behind a view: the CSR itself, a delta
// overlay folded with Materialize, or packed adjacency decoded once. A fleet
// cuts its shards from a CSR, so every per-call distributed run starts here.
func Freeze(g graph.View) (*graph.Digraph, error) {
	if csr, ok := graph.AsCSR(g); ok {
		return csr, nil
	}
	switch v := g.(type) {
	case *graph.Delta:
		return v.Materialize(), nil
	case *graph.Packed:
		return v.Decode()
	}
	return nil, fmt.Errorf("engine: cannot freeze a %T view into a CSR", g)
}

// deployment is the coordinator's routing state: per global vertex, the
// partition mastering it and the partitions holding its mirror copies —
// plus, as deploy computes them, the partition payloads. On a query-scoped
// run (Fleet.route) partitions are numbered densely over the shards the
// frontier closure touches, and parts stays nil.
type deployment struct {
	parts      []wire.Partition
	masterPart []int32   // per slot; -1 when the vertex has no master
	mirrors    [][]int32 // per slot: replica partitions excluding the master
	// scope, when set, makes the routing tables closure-local: slot i
	// belongs to the scope's member of rank i (a scoped query's Trunc), so
	// they cost O(closure) rather than O(V). Nil means slot = vertex ID.
	scope    *core.VertexSet
	replicas int // total replica count
	present  int // vertices with at least one replica
}

// slot returns v's index into masterPart/mirrors, false when the tables
// hold no entry for v (outside the graph, or outside a scoped closure).
func (d *deployment) slot(v graph.VertexID) (int, bool) {
	if d.scope == nil {
		return int(v), int(v) < len(d.masterPart)
	}
	return d.scope.Index(v)
}

func (d *deployment) replicationFactor() float64 {
	if d.present == 0 {
		return 0
	}
	return float64(d.replicas) / float64(d.present)
}

// deploy vertex-cuts g into nw partitions and elects masters the same
// deterministic way gas.Distribute does.
func deploy(g graph.View, strat partition.Strategy, seed uint64, nw int) (*deployment, error) {
	assign, err := strat.Partition(g, nw)
	if err != nil {
		return nil, err
	}

	type rawEdge struct{ u, v graph.VertexID }
	rawEdges := make([][]rawEdge, nw)
	{
		i := 0
		g.ForEachEdge(func(u, v graph.VertexID) {
			p := assign.EdgeTo[i]
			rawEdges[p] = append(rawEdges[p], rawEdge{u, v})
			i++
		})
	}

	dep := &deployment{
		parts:      make([]wire.Partition, nw),
		masterPart: make([]int32, g.NumVertices()),
		mirrors:    make([][]int32, g.NumVertices()),
	}
	for v := range dep.masterPart {
		dep.masterPart[v] = -1
	}
	index := make([]map[graph.VertexID]int32, nw)
	for p := 0; p < nw; p++ {
		seen := make(map[graph.VertexID]struct{}, len(rawEdges[p]))
		for _, e := range rawEdges[p] {
			seen[e.u] = struct{}{}
			seen[e.v] = struct{}{}
		}
		locals := make([]graph.VertexID, 0, len(seen))
		for v := range seen {
			locals = append(locals, v)
		}
		sort.Slice(locals, func(i, j int) bool { return locals[i] < locals[j] })
		idx := make(map[graph.VertexID]int32, len(locals))
		deg := make([]int32, len(locals))
		for i, v := range locals {
			idx[v] = int32(i)
			deg[i] = int32(g.OutDegree(v))
		}
		edgeSrc := make([]int32, len(rawEdges[p]))
		edgeDst := make([]int32, len(rawEdges[p]))
		for i, e := range rawEdges[p] {
			edgeSrc[i] = idx[e.u]
			edgeDst[i] = idx[e.v]
		}
		index[p] = idx
		dep.parts[p] = wire.Partition{
			Part: p, NumVertices: g.NumVertices(),
			Locals: locals, Deg: deg,
			EdgeSrc: edgeSrc, EdgeDst: edgeDst,
			IsMaster:  make([]bool, len(locals)),
			HasRemote: make([]bool, len(locals)),
		}
	}

	// Master election among each vertex's replicas, in ascending partition
	// order — the same deterministic draw gas.Distribute uses. (Placement
	// never changes results, only where each apply runs.)
	type vp struct {
		v graph.VertexID
		p int32
	}
	var pairs []vp
	for p := 0; p < nw; p++ {
		for _, v := range dep.parts[p].Locals {
			pairs = append(pairs, vp{v, int32(p)})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].v != pairs[j].v {
			return pairs[i].v < pairs[j].v
		}
		return pairs[i].p < pairs[j].p
	})
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].v == pairs[i].v {
			j++
		}
		v := pairs[i].v
		replicas := pairs[i:j]
		mp := replicas[randx.Uint64n(uint64(len(replicas)), seed, uint64(v), 0xA5)].p
		dep.masterPart[v] = mp
		mi := index[mp][v]
		dep.parts[mp].IsMaster[mi] = true
		dep.parts[mp].HasRemote[mi] = len(replicas) > 1
		if len(replicas) > 1 {
			mirrors := make([]int32, 0, len(replicas)-1)
			for _, r := range replicas {
				if r.p != mp {
					mirrors = append(mirrors, r.p)
				}
			}
			dep.mirrors[v] = mirrors
		}
		dep.replicas += len(replicas)
		dep.present++
		i = j
	}
	return dep, nil
}

// retryableDial reports whether a connect failure is worth another attempt:
// network-layer trouble (timeouts, refusals, resets) and torn connections
// are transient; a peer's deliberate rejection — a typed error frame — is
// deterministic and never is.
func retryableDial(err error) bool {
	if wire.IsRemoteError(err) {
		return false
	}
	var ne net.Error
	return errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// withRetry runs attempt up to attempts times (0 = 3) with exponential
// backoff from backoff (0 = 150ms) and jitter between tries (the jitter
// keeps a fleet-wide reconnect from stampeding one worker). always retries
// every failure — for spawn, where each attempt forks a fresh process and
// any failure is worth a retry; otherwise only retryableDial failures are
// retried. Returns how many retries ran and the final error.
func withRetry(attempts int, backoff time.Duration, always bool, attempt func() error) (retries int, err error) {
	if attempts <= 0 {
		attempts = 3
	}
	if backoff <= 0 {
		backoff = 150 * time.Millisecond
	}
	for i := 0; ; i++ {
		err = attempt()
		if err == nil || i+1 >= attempts || (!always && !retryableDial(err)) {
			return retries, err
		}
		retries++
		sleep := backoff
		if j := backoff / 2; j > 0 {
			sleep += rand.N(j)
		}
		time.Sleep(sleep)
		backoff *= 2
	}
}

// SpawnWorkers forks n snaple-worker processes on ephemeral loopback ports
// and returns their addresses, plus a stop that kills them all. Each start
// is retried with backoff as a fresh process (attempts/backoff as on
// Dist.DialAttempts/DialBackoff); a failed attempt reaps its process
// before the retry, so a flaky start never leaks an orphan. bin defaults to
// "snaple-worker" resolved through PATH. stop is non-nil even on error.
func SpawnWorkers(bin string, n, attempts int, backoff time.Duration) (addrs []string, stop func(), retries int, err error) {
	var stops []func()
	stop = func() {
		for _, s := range stops {
			s()
		}
	}
	if bin == "" {
		bin = "snaple-worker"
	}
	path, err := exec.LookPath(bin)
	if err != nil {
		return nil, stop, 0, fmt.Errorf("worker binary %q not found (build cmd/snaple-worker or set WorkerBin): %w", bin, err)
	}
	for i := 0; i < n; i++ {
		r, err := withRetry(attempts, backoff, true, func() error {
			addr, s, err := spawnWorker(path)
			if err != nil {
				return err
			}
			addrs = append(addrs, addr)
			stops = append(stops, s)
			return nil
		})
		retries += r
		if err != nil {
			stop()
			return nil, func() {}, retries, err
		}
	}
	return addrs, stop, retries, nil
}

// spawnWorker forks one snaple-worker on an ephemeral loopback port and
// parses the address it announces on stdout ("listening <addr>"). The
// worker's stderr passes through, so a crashed worker leaves its diagnostics
// next to the coordinator's EOF error.
func spawnWorker(bin string) (addr string, stop func(), err error) {
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", nil, err
	}
	if err := cmd.Start(); err != nil {
		return "", nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	stop = func() {
		// Kill first so the stdout scanner (below) hits EOF, then cmd.Wait —
		// not Process.Wait — to release the StdoutPipe.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	select {
	case line, ok := <-lines:
		fields := strings.Fields(line)
		if !ok || len(fields) != 2 || fields[0] != "listening" {
			stop()
			return "", nil, fmt.Errorf("spawn %s: unexpected announcement %q", bin, line)
		}
		return fields[1], stop, nil
	case <-time.After(10 * time.Second):
		stop()
		return "", nil, fmt.Errorf("spawn %s: worker never announced its address", bin)
	}
}
