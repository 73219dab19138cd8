package core

import (
	"fmt"
	"slices"

	"snaple/internal/graph"
)

// This file exposes Algorithm 2's GAS step programs (snaple.go, khop.go) in
// a monomorphic, wire-friendly form, so that a remote worker process holding
// only one partition of a vertex-cut can execute the gather and sum+apply
// phases of every superstep. The simulated cluster runs the same programs
// through the generic gas engine; a dist worker runs them through
// DistPartition, with the mirror/master exchange carried over TCP by
// internal/wire instead of the in-memory gref tables of gas.Distribute.
//
// Determinism across substrates holds for the same reason it does between
// the serial, local and sim backends: every random draw is hash-keyed by
// (seed, vertex IDs) and every fold canonicalises its input before reducing
// (step 1 and 2 applies sort, Aggregator.FoldPaths sorts path values), so
// partials may arrive from the network in any order without changing a bit
// of the output.

// DistStep identifies one superstep of Algorithm 2's distributed pipeline.
type DistStep int

const (
	// DistTruncate is step 1: sample the truncated neighbourhoods Γ̂.
	DistTruncate DistStep = iota + 1
	// DistRelays is step 2: raw similarities plus the k_local relay selection.
	DistRelays
	// DistCombine is step 3: combine and aggregate 2-hop paths (the final
	// superstep of the paper's 2-hop configuration).
	DistCombine
	// DistTwoHop is step 3a of the 3-hop extension: materialise per-vertex
	// 2-hop path lists.
	DistTwoHop
	// DistCombine3 is step 3b of the 3-hop extension: aggregate 2- and 3-hop
	// paths into final predictions.
	DistCombine3
)

// String implements fmt.Stringer.
func (s DistStep) String() string {
	switch s {
	case DistTruncate:
		return "truncate"
	case DistRelays:
		return "relays"
	case DistCombine:
		return "combine"
	case DistTwoHop:
		return "twohop"
	case DistCombine3:
		return "combine3"
	default:
		return fmt.Sprintf("DistStep(%d)", int(s))
	}
}

// DistSteps returns the superstep pipeline for the given maximum path
// length: steps 1, 2, 3 for the paper's 2-hop setting, steps 1, 2, 3a, 3b
// for the footnote-2 extension.
func DistSteps(paths int) []DistStep {
	if paths == 3 {
		return []DistStep{DistTruncate, DistRelays, DistTwoHop, DistCombine3}
	}
	return []DistStep{DistTruncate, DistRelays, DistCombine}
}

// DistPartial is one partition's gather partial sum for one vertex in one
// superstep. Exactly one payload slice is non-nil, matching the superstep's
// gather type; a vertex with no contribution produces no DistPartial at all.
// It is what dist workers ship to the vertex's master when the gathering
// partition does not hold the master copy.
type DistPartial struct {
	V     graph.VertexID
	Nbrs  []graph.VertexID // DistTruncate
	Sims  []VertexSim      // DistRelays
	Cands []PathCand       // DistCombine, DistTwoHop, DistCombine3
}

// DistTopology is the read-only half of one partition of a vertex-cut: the
// sorted local vertex table, each local vertex's full out-degree, the
// partition's edges as local indices, and the source-grouping facts the
// streaming gather relies on. It is built and validated once per shard —
// a worker's pinned shard, or the one a connection's ship installed — and
// shared by every job and connection on it; nothing in it is written after
// construction. Per-job state lives in DistPartition.
type DistTopology struct {
	locals  []graph.VertexID // sorted global IDs of local vertices
	deg     []int32          // full out-degree per local vertex
	edgeSrc []int32          // local source index per local edge
	edgeDst []int32          // local target index per local edge
	// srcContig records whether edgeSrc is grouped into one contiguous run
	// per source — the precondition for the run-at-a-time streaming gather.
	// srcSorted additionally records whether those runs ascend by source
	// index, the precondition for finding a source's run by binary search
	// (GatherVertex, scoped gathers).
	srcContig, srcSorted bool
}

// NewDistTopology validates and indexes a partition's shipped description:
// the sorted local vertex table, the full out-degree of each local vertex
// (degrees are global topology metadata the truncation draw needs), and the
// partition's edges as indices into locals. numVertices is the global
// vertex count. An empty partition (no locals, no edges) is valid. The
// columns are retained, not copied.
func NewDistTopology(numVertices int, locals []graph.VertexID, deg []int32, edgeSrc, edgeDst []int32) (*DistTopology, error) {
	if len(deg) != len(locals) {
		return nil, fmt.Errorf("core: dist partition: %d degrees for %d local vertices", len(deg), len(locals))
	}
	if len(edgeSrc) != len(edgeDst) {
		return nil, fmt.Errorf("core: dist partition: %d edge sources, %d edge targets", len(edgeSrc), len(edgeDst))
	}
	for i, v := range locals {
		if int(v) >= numVertices {
			return nil, fmt.Errorf("core: dist partition: local vertex %d outside [0,%d)", v, numVertices)
		}
		if i > 0 && locals[i-1] >= v {
			return nil, fmt.Errorf("core: dist partition: local vertex table not strictly ascending at %d", i)
		}
	}
	for i := range edgeSrc {
		if edgeSrc[i] < 0 || int(edgeSrc[i]) >= len(locals) ||
			edgeDst[i] < 0 || int(edgeDst[i]) >= len(locals) {
			return nil, fmt.Errorf("core: dist partition: edge %d references vertex outside the local table", i)
		}
	}
	t := &DistTopology{locals: locals, deg: deg, edgeSrc: edgeSrc, edgeDst: edgeDst}
	t.srcContig, t.srcSorted = sourceRuns(edgeSrc, len(locals))
	return t, nil
}

// sourceRuns reports whether edgeSrc is grouped into one contiguous run per
// source — true for every partition cut from a CSR graph in edge order —
// and whether those runs ascend by source index.
func sourceRuns(edgeSrc []int32, nlocals int) (contig, sorted bool) {
	seen := make([]bool, nlocals)
	sorted = true
	prev := int32(-1)
	for i := 0; i < len(edgeSrc); {
		si := edgeSrc[i]
		if seen[si] {
			return false, false
		}
		if si < prev {
			sorted = false
		}
		seen[si] = true
		prev = si
		for i < len(edgeSrc) && edgeSrc[i] == si {
			i++
		}
	}
	return true, sorted
}

// Locals returns the sorted global IDs of the partition's local vertices.
// The slice is owned by the topology and must not be modified.
func (t *DistTopology) Locals() []graph.VertexID { return t.locals }

// NumEdges returns the number of edges placed on this partition.
func (t *DistTopology) NumEdges() int { return len(t.edgeSrc) }

// LocalIndex returns the local index of v, if v is a local vertex: a binary
// search of the sorted vertex table, so no per-job lookup structure exists.
func (t *DistTopology) LocalIndex(v graph.VertexID) (int32, bool) {
	i, ok := slices.BinarySearch(t.locals, v)
	return int32(i), ok
}

// CanGatherVertex reports whether GatherVertex is available: the
// partition's edges must be grouped per source with runs ascending by local
// index, which holds for every partition deployed from a CSR cut.
func (t *DistTopology) CanGatherVertex() bool { return t.srcContig && t.srcSorted }

// run returns local source li's edge run [i, j), empty when li has no
// out-edge here. Requires CanGatherVertex.
func (t *DistTopology) run(li int32) (i, j int) {
	i, found := slices.BinarySearch(t.edgeSrc, li)
	if !found {
		return i, i
	}
	j = i + 1
	for j < len(t.edgeSrc) && t.edgeSrc[j] == li {
		j++
	}
	return i, j
}

// DistPartition executes Algorithm 2's supersteps over one partition of a
// vertex-cut: the read-only DistTopology plus one job's state — a local
// replica of every endpoint's VData and, on a query-scoped job, the
// per-local frontier scope masks. It is the compute half of a dist worker;
// routing partials to masters and refreshed state to mirrors is the
// caller's job (internal/wire carries both for cmd/snaple-worker).
//
// A partition is reused across jobs (Reset): its columns are allocated once
// and each Reset clears only the locals the previous job wrote or scoped,
// so a scoped job's set-up costs O(entries), not O(locals).
type DistPartition struct {
	t    *DistTopology
	st   *snapleState // cfg only: degrees come from the topology
	data []VData      // replica state, one per local vertex
	// written lists, unordered, the locals whose VData the current job
	// wrote (wrote marks them), so Reset restores exactly those.
	written []int32
	wrote   []bool
	// scoped marks a query-scoped job. scope holds each local vertex's
	// frontier scope mask (Scope* bits, frontier.go); the coordinator
	// computes the global closure and ships only these local bits, and the
	// gathers consult the source's bit for the running step. scopeList holds
	// the locals with a non-zero mask, the only sources a scoped gather
	// visits.
	scoped        bool
	scope         []uint8
	scopeList     []int32
	scopeUnsorted bool
	// Per-source gather scratch, reused across jobs and supersteps.
	gatherIDs   []graph.VertexID
	gatherSims  []VertexSim
	gatherCands []PathCand
}

// NewPartition returns job state over the topology, ready for Reset.
func (t *DistTopology) NewPartition() *DistPartition {
	return &DistPartition{
		t:     t,
		st:    &snapleState{},
		data:  make([]VData, len(t.locals)),
		wrote: make([]bool, len(t.locals)),
	}
}

// Reset readies the partition for a new job under cfg: every local vertex
// the previous job wrote returns to its zero state and the previous scope is
// cleared. A scoped job then names its in-scope locals with SetScope; an
// unscoped one gathers over every local source.
func (p *DistPartition) Reset(cfg Config, scoped bool) error {
	cfg, err := cfg.Normalized()
	if err != nil {
		return err
	}
	for _, li := range p.written {
		p.data[li] = VData{}
		p.wrote[li] = false
	}
	p.written = p.written[:0]
	for _, li := range p.scopeList {
		p.scope[li] = 0
	}
	p.scopeList = p.scopeList[:0]
	p.scopeUnsorted = false
	p.st.cfg = cfg
	p.scoped = scoped
	if scoped && p.scope == nil {
		p.scope = make([]uint8, len(p.t.locals))
	}
	return nil
}

// SetScope installs local vertex li's frontier scope mask for the current
// scoped job (Scope* bits). Locals never named keep a zero mask and gather
// nothing; naming one twice keeps the last mask.
func (p *DistPartition) SetScope(li int32, mask uint8) error {
	if !p.scoped {
		return fmt.Errorf("core: dist partition: scope mask on an unscoped job")
	}
	if li < 0 || int(li) >= len(p.scope) {
		return fmt.Errorf("core: dist partition: scope for local %d outside [0,%d)", li, len(p.scope))
	}
	if p.scope[li] == 0 && mask != 0 {
		if n := len(p.scopeList); n > 0 && p.scopeList[n-1] > li {
			p.scopeUnsorted = true
		}
		p.scopeList = append(p.scopeList, li)
	}
	p.scope[li] = mask
	return nil
}

// Topology returns the partition's read-only half.
func (p *DistPartition) Topology() *DistTopology { return p.t }

// Config returns the current job's configuration with defaults applied.
func (p *DistPartition) Config() Config { return p.st.cfg }

// inScope reports whether local vertex li gathers during step.
func (p *DistPartition) inScope(step DistStep, li int32) bool {
	return !p.scoped || p.scope[li]&step.ScopeBit() != 0
}

// validStep rejects step values outside the pipeline.
func validStep(step DistStep) error {
	switch step {
	case DistTruncate, DistRelays, DistCombine, DistTwoHop, DistCombine3:
		return nil
	default:
		return fmt.Errorf("core: unknown dist step %d", int(step))
	}
}

// GatherStream runs step's gather phase one source vertex at a time, handing
// emit each contributing source's partial as soon as its edge run completes —
// the producer side of the pipelined superstep, which streams partials onto
// the wire while later sources are still gathering. The DistPartial (and its
// slices) is scratch owned by the partition, valid only during the emit call;
// emit must encode or copy, not retain. Partials arrive ascending by local
// index, one per contributing source. An emit error aborts the stream and is
// returned.
//
// A scoped job on a partition with sorted source runs visits only its
// in-scope sources, finding each one's run by binary search, so its cost
// follows the scope rather than the partition's edge count. When the edges
// are not source-contiguous the stream degrades to gathering edge by edge
// into per-source buffers and emits them afterwards.
func (p *DistPartition) GatherStream(step DistStep, emit func(li int32, dp *DistPartial) error) error {
	if err := validStep(step); err != nil {
		return err
	}
	t := p.t
	if !t.srcContig {
		return p.gatherScattered(step, emit)
	}
	var dp DistPartial
	if p.scoped && t.srcSorted {
		if p.scopeUnsorted {
			slices.Sort(p.scopeList)
			p.scopeUnsorted = false
		}
		for _, si := range p.scopeList {
			i, j := t.run(si)
			if i < j && p.gatherRun(step, si, i, j, &dp) {
				if err := emit(si, &dp); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i := 0; i < len(t.edgeSrc); {
		si := t.edgeSrc[i]
		j := i + 1
		for j < len(t.edgeSrc) && t.edgeSrc[j] == si {
			j++
		}
		if p.gatherRun(step, si, i, j, &dp) {
			if err := emit(si, &dp); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// gatherScattered is GatherStream for a partition whose edges are not
// grouped per source: each edge is gathered as a one-edge run and its
// payload appended to its source's buffer, and the buffers are emitted in
// local order. Concatenation stands in for the step programs' Sum: every
// apply canonicalises its input (sorts, or selects under a strict total
// order) before any order could matter.
func (p *DistPartition) gatherScattered(step DistStep, emit func(li int32, dp *DistPartial) error) error {
	t := p.t
	acc := make([]DistPartial, len(t.locals))
	has := make([]bool, len(t.locals))
	var dp DistPartial
	for e, si := range t.edgeSrc {
		if !p.gatherRun(step, si, e, e+1, &dp) {
			continue
		}
		a := &acc[si]
		has[si] = true
		a.V = dp.V
		a.Nbrs = append(a.Nbrs, dp.Nbrs...)
		a.Sims = append(a.Sims, dp.Sims...)
		a.Cands = append(a.Cands, dp.Cands...)
	}
	for li := range acc {
		if has[li] {
			if err := emit(int32(li), &acc[li]); err != nil {
				return err
			}
		}
	}
	return nil
}

// gatherRun gathers one source's edge run [i,j) into dp, reporting whether
// the source contributed. dp's slices alias the partition's gather scratch,
// valid until the next gatherRun call.
//
// The run bodies inline the step programs' gathers (snaple.go, khop.go)
// with three divergences that cannot change a bit of the output: degrees
// come from the topology's local column, the frontier checks are dropped
// (a dist worker's scoping is the shipped scope masks, consulted below), and
// candidate lists are built in edge order without the gas engine's sorted
// merge — Apply canonicalises (sortPathCands + value-sorting folds) before
// any order could matter.
func (p *DistPartition) gatherRun(step DistStep, si int32, i, j int, dp *DistPartial) bool {
	if !p.inScope(step, si) {
		return false
	}
	cfg := &p.st.cfg
	t := p.t
	src := t.locals[si]
	srcD := &p.data[si]
	switch step {
	case DistTruncate:
		ids := p.gatherIDs[:0]
		sd := int(t.deg[si])
		for e := i; e < j; e++ {
			dst := t.locals[t.edgeDst[e]]
			if keepTruncated(cfg.Seed, src, dst, sd, cfg.ThrGamma) {
				ids = append(ids, dst)
			}
		}
		p.gatherIDs = ids
		if len(ids) > 0 {
			*dp = DistPartial{V: src, Nbrs: ids}
			return true
		}
	case DistRelays:
		sims := p.gatherSims[:0]
		for e := i; e < j; e++ {
			di := t.edgeDst[e]
			dst := t.locals[di]
			dstD := &p.data[di]
			sims = append(sims, VertexSim{
				V:   dst,
				Sim: simScore(cfg.Score.Sim, src, dst, srcD.Nbrs, dstD.Nbrs, int(t.deg[si]), int(t.deg[di])),
			})
		}
		p.gatherSims = sims
		// Every edge contributes a similarity, and j > i.
		*dp = DistPartial{V: src, Sims: sims}
		return true
	case DistCombine:
		comb := cfg.Score.Comb.Fn
		cands := p.gatherCands[:0]
		for e := i; e < j; e++ {
			di := t.edgeDst[e]
			dstD := &p.data[di]
			suv, ok := lookupSim(srcD.Sims, t.locals[di])
			if !ok || len(dstD.Sims) == 0 {
				continue
			}
			for _, zs := range dstD.Sims {
				if zs.V == src || containsVertex(srcD.Nbrs, zs.V) {
					continue
				}
				cands = append(cands, PathCand{Z: zs.V, S: comb(suv, zs.Sim)})
			}
		}
		p.gatherCands = cands
		if len(cands) > 0 {
			*dp = DistPartial{V: src, Cands: cands}
			return true
		}
	case DistTwoHop:
		comb := cfg.Score.Comb.Fn
		cands := p.gatherCands[:0]
		for e := i; e < j; e++ {
			di := t.edgeDst[e]
			dstD := &p.data[di]
			svz, ok := lookupSim(srcD.Sims, t.locals[di])
			if !ok || len(dstD.Sims) == 0 {
				continue
			}
			for _, ws := range dstD.Sims {
				if ws.V == src {
					continue
				}
				cands = append(cands, PathCand{Z: ws.V, S: comb(svz, ws.Sim)})
			}
		}
		p.gatherCands = cands
		if len(cands) > 0 {
			*dp = DistPartial{V: src, Cands: cands}
			return true
		}
	case DistCombine3:
		comb := cfg.Score.Comb.Fn
		cands := p.gatherCands[:0]
		for e := i; e < j; e++ {
			di := t.edgeDst[e]
			dstD := &p.data[di]
			suv, ok := lookupSim(srcD.Sims, t.locals[di])
			if !ok {
				continue
			}
			for _, zs := range dstD.Sims {
				if zs.V == src || containsVertex(srcD.Nbrs, zs.V) {
					continue
				}
				cands = append(cands, PathCand{Z: zs.V, S: comb(suv, zs.Sim)})
			}
			for _, pc := range dstD.TwoHop {
				if pc.Z == src || containsVertex(srcD.Nbrs, pc.Z) {
					continue
				}
				cands = append(cands, PathCand{Z: pc.Z, S: comb(suv, pc.S)})
			}
		}
		p.gatherCands = cands
		if len(cands) > 0 {
			*dp = DistPartial{V: src, Cands: cands}
			return true
		}
	}
	return false
}

// GatherVertex re-runs step's gather for the single local vertex li, filling
// dp exactly as GatherStream's emit for that vertex would and reporting
// whether it contributed. dp's slices alias the partition's gather scratch,
// valid until the next gather call.
//
// This is the apply-time twin of the streaming gather: a master that also
// gathers locally can recompute its own partial on demand instead of keeping
// an encoded copy across the superstep's exchange. Re-gathering after other
// vertices have applied is exact: apply writes only the step's output field,
// which the same step's gather never reads — the same property that lets
// GatherStream's inline applies run mid-stream.
//
// Requires CanGatherVertex (source-grouped, ascending edge runs).
func (p *DistPartition) GatherVertex(step DistStep, li int32, dp *DistPartial) (bool, error) {
	if err := validStep(step); err != nil {
		return false, err
	}
	if !p.t.CanGatherVertex() {
		return false, fmt.Errorf("core: GatherVertex on a partition without sorted source runs")
	}
	if li < 0 || int(li) >= len(p.t.locals) {
		return false, fmt.Errorf("core: GatherVertex: local index %d outside [0,%d)", li, len(p.t.locals))
	}
	i, j := p.t.run(li)
	if i == j {
		return false, nil // no out-edges here, so no contribution
	}
	return p.gatherRun(step, li, i, j, dp), nil
}

// Apply runs step's sum+apply phase for local vertex li, mastered on this
// partition: it folds parts — the local partial plus any partials received
// from other partitions, in any order — and updates li's replica, which
// becomes the authoritative copy to broadcast. parts may be empty (no edge
// anywhere contributed); apply still runs, clearing the step's output field
// exactly as the gas engine does for an empty gather.
func (p *DistPartition) Apply(step DistStep, li int32, parts []DistPartial) error {
	if li < 0 || int(li) >= len(p.data) {
		return fmt.Errorf("core: apply for %v: local index %d outside [0,%d)", step, li, len(p.data))
	}
	v := p.t.locals[li]
	d := p.MutableState(li)
	// A single partial (the streaming session's pre-merged case) skips the
	// concatenation alloc and feeds its slices to apply directly; the cand
	// steps still canonicalise, which may reorder the caller's slice in
	// place — harmless, callers hand over scratch or routing copies.
	one := len(parts) == 1
	switch step {
	case DistTruncate:
		var sum []graph.VertexID
		if one {
			sum = parts[0].Nbrs
		} else {
			for _, dp := range parts {
				sum = append(sum, dp.Nbrs...)
			}
		}
		step1{p.st}.Apply(v, d, sum, len(sum) > 0)
	case DistRelays:
		var sum []VertexSim
		if one {
			sum = parts[0].Sims
		} else {
			for _, dp := range parts {
				sum = append(sum, dp.Sims...)
			}
		}
		step2{p.st}.Apply(v, d, sum, len(sum) > 0)
	case DistCombine, DistTwoHop, DistCombine3:
		var sum []PathCand
		if one {
			sum = parts[0].Cands
		} else {
			for _, dp := range parts {
				sum = append(sum, dp.Cands...)
			}
		}
		// The gas engine merges partials Z-sorted; concatenation needs one
		// sort to restore the grouping Apply expects. Equal-Z value order is
		// irrelevant: FoldPaths sorts each group's values before folding.
		sortPathCands(sum)
		switch step {
		case DistCombine:
			step3{p.st}.Apply(v, d, sum, len(sum) > 0)
		case DistTwoHop:
			step3a{p.st}.Apply(v, d, sum, len(sum) > 0)
		default:
			step3b{p.st}.Apply(v, d, sum, len(sum) > 0)
		}
	default:
		return validStep(step)
	}
	return nil
}

// State returns local vertex li's replica, for master→mirror broadcast and
// result collection. The pointer is valid until the next Reset; callers
// must not write through it (MutableState does).
func (p *DistPartition) State(li int32) *VData { return &p.data[li] }

// MutableState returns a pointer to local vertex li's replica so a refresh
// can be decoded in place, and records the write so the next Reset clears
// it. The pointer is valid until the next Reset.
func (p *DistPartition) MutableState(li int32) *VData {
	if !p.wrote[li] {
		p.wrote[li] = true
		p.written = append(p.written, li)
	}
	return &p.data[li]
}
