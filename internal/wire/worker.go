package wire

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"time"

	"snaple/internal/allocs"
	"snaple/internal/core"
	"snaple/internal/graph"
)

// streamChunkBytes is the target payload size of one streamed batch chunk:
// big enough to amortise frame overhead, small enough that routing overlaps
// compute instead of trailing it.
const streamChunkBytes = 64 << 10

// ServeOptions configures a worker's listening side.
type ServeOptions struct {
	// Resident pins a packed shard for the worker's lifetime: every
	// connection attaches against it, and a ship for a different fleet is
	// refused with a manifest mismatch. Without it each connection first
	// receives its shard in a KindShip. Either way each session builds its
	// own compute state over read-only shard columns, so connections are
	// served concurrently and several coordinators — e.g. multiple serve
	// front-ends — can share one standing fleet.
	Resident *ResidentShard
}

// Serve accepts coordinator sessions on l until the listener is closed,
// serving each connection on its own goroutine. Session errors are reported
// to logf (nil discards them) and do not stop the worker.
func Serve(l net.Listener, logf func(format string, args ...any)) error {
	return ServeWith(l, logf, ServeOptions{})
}

// ServeWith is Serve with explicit options. A resident shard's read-only
// indexes are built once here and shared by every connection.
func ServeWith(l net.Listener, logf func(format string, args ...any), o ServeOptions) error {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	pinned := holdShard(o.Resident)
	for {
		c, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		logf("session from %s", c.RemoteAddr())
		go func(c net.Conn) {
			if err := serveConn(c, pinned); err != nil {
				logf("session from %s failed: %v", c.RemoteAddr(), err)
			} else {
				logf("session from %s done", c.RemoteAddr())
			}
		}(c)
	}
}

// ServeConn executes one coordinator session over rwc and closes it when the
// session ends. Protocol violations and compute errors are reported to the
// coordinator (KindError) and returned.
func ServeConn(rwc io.ReadWriteCloser) error {
	return ServeConnWith(rwc, ServeOptions{})
}

// ServeConnWith is ServeConn with explicit options.
//
// A worker serves hostile input: a coordinator may die mid-frame, a chaos
// test may flip bits, a stray client may speak garbage. Every such failure
// must cost exactly one session — the error is reported to the peer as a
// typed KindError frame when the transport still works, the connection is
// closed, and the process stays up for the next coordinator. A panic in the
// session (a decode bug reached by malformed input) is converted to the
// same shape instead of taking the process down.
//
// A resident shard's read-only indexes are built per call; a worker serving
// many connections on one shard should use ServeWith, which builds them once.
func ServeConnWith(rwc io.ReadWriteCloser, o ServeOptions) error {
	return serveConn(rwc, holdShard(o.Resident))
}

// serveConn executes one coordinator session against the pinned shard (nil
// for a worker that is shipped its shard per connection).
func serveConn(rwc io.ReadWriteCloser, pinned *heldShard) (err error) {
	conn, err := accept(rwc)
	if err != nil {
		conn.SendError(err)
		conn.Close()
		return err
	}
	defer conn.Close()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("wire: session panic: %v", r)
			conn.SendError(err)
		}
	}()
	// One connection carries a sequence of jobs against one shard: the
	// pinned one, or the one this connection's ship installed. The session
	// holds the job state and lives as long as the (connection, shard)
	// pair: each KindAttach resets it for the next job, and collect leaves
	// the connection open for another — coordinators re-attach per query on
	// their standing connections. The measured window (a0) opens at the
	// first post-Ready message of each job, not at Ready: the coordinator
	// barriers on every worker's Ready before the first KindStepBegin, so by
	// then all sessions (in-process ones included) have finished attaching
	// and the window holds only superstep and collect work — the same
	// boundary the coordinator's own wall-clock and traffic counters use.
	shard := pinned
	var s *session
	var a0 allocs.Sample
	a0set := false
	for {
		m, err := conn.Recv()
		if err != nil {
			if err == io.EOF {
				return nil // coordinator done with us
			}
			// A corrupt or malformed frame (CRC failure, truncated header,
			// bad payload) ends this session, not the process. Tell the peer
			// why if the transport still works; echoing a KindError the peer
			// itself sent would be noise.
			if !IsRemoteError(err) {
				conn.SendError(err)
			}
			return err
		}
		var reply Msg // sent when its Kind is set
		switch m.Kind {
		case KindShip:
			shard, err = installShard(&m.Shard, pinned)
			s, reply.Kind = nil, KindReady
		case KindAttach:
			if shard == nil {
				err = errors.New("wire: attach before ship on a non-resident worker")
				break
			}
			if s == nil {
				s, err = newSession(conn, shard)
				if err != nil {
					break
				}
			}
			err = s.attach(m)
			a0set, reply.Kind = false, KindReady
		case KindStepBegin, KindCollect:
			if s == nil || !s.attached {
				err = fmt.Errorf("wire: %s before attach", m.Kind)
				break
			}
			if !a0set {
				a0 = allocs.Read()
				a0set = true
			}
			if m.Kind == KindStepBegin {
				err = s.runStep(m.Step, m.Final)
			} else {
				reply = Msg{Kind: KindResult, Result: s.collect(a0)}
			}
		default:
			err = fmt.Errorf("wire: unexpected %s mid-session", m.Kind)
		}
		if err != nil {
			conn.SendError(err)
			return err
		}
		if reply.Kind != 0 {
			if err := conn.Send(&reply); err != nil {
				return err
			}
		}
	}
}

// recRef locates one buffered partial record: a local vertex index plus the
// record's extent inside a foreign chunk (or, with chunk == selfChunk, the
// session's own-partials buffer).
type recRef struct {
	li       int32
	chunk    int32
	off, end int32
}

const selfChunk = int32(-1)

// heldShard is a shard as a worker serves it: the shipped or pinned columns
// plus the read-only indexes built from them once — the compute topology
// (degrees by local index, the sorted-table lookup, the source-run flags)
// and the baked full-run master list. Every connection on the shard shares
// it; nothing in it is written after holdShard.
type heldShard struct {
	*ResidentShard
	topo    *core.DistTopology
	err     error   // the columns failed validation; every attach reports it
	masters []int32 // baked full-run masters, ascending
}

// holdShard indexes a shard for serving; nil stays nil. A validation
// failure is kept and returned by every attach, so a bad shard costs the
// sessions that use it, not the process.
func holdShard(sh *ResidentShard) *heldShard {
	if sh == nil {
		return nil
	}
	p := &sh.Part
	h := &heldShard{ResidentShard: sh}
	h.topo, h.err = core.NewDistTopology(p.NumVertices, p.Locals, p.Deg, p.EdgeSrc, p.EdgeDst)
	if h.err == nil && (len(p.IsMaster) != len(p.Locals) || len(p.HasRemote) != len(p.Locals)) {
		h.err = fmt.Errorf("wire: %d master / %d remote flags for %d locals", len(p.IsMaster), len(p.HasRemote), len(p.Locals))
	}
	if h.err != nil {
		return h
	}
	for li, m := range p.IsMaster {
		if m {
			h.masters = append(h.masters, int32(li))
		}
	}
	return h
}

// session is a connection's job state on one shard: the compute partition,
// the master/mirror roles of the current job and the reusable streaming
// buffers of the pipelined superstep. It lives as long as the (connection,
// shard) pair; each attach resets it for the next job, touching only what
// the previous job touched, so a scoped attach costs O(entries) rather than
// O(locals) and allocates nothing once the buffers are warm.
type session struct {
	conn     *Conn
	shard    *heldShard
	part     *core.DistPartition
	attached bool         // an attach succeeded; steps may run
	busyNS   atomic.Int64 // gather/apply/refresh goroutines all contribute

	// Roles of the current job. A full job reads the shard's baked columns
	// directly (never writing them); a scoped job points them at the
	// session's own columns, set for its entries' locals only (listed) and
	// cleared again by the next attach. masters lists the job's masters,
	// ascending: every per-step loop over masters walks it, not the locals.
	isMaster, hasRemote  []bool
	ownMaster, ownRemote []bool
	listed               []int32
	masters              []int32
	scopedMasters        []int32 // backing store of masters on scoped jobs

	// Per-step state, reused across supersteps and jobs.
	sendBB BatchBuilder // outgoing chunk under construction (sender goroutine)
	// regather marks a partition whose masters can recompute their own
	// partial at apply time (core.DistPartition.GatherVertex) — the normal
	// case for deployed partitions. Without it, replicated masters' own
	// partials are kept across the exchange as records in selfBuf.
	regather  bool
	selfBuf   []byte  // own partials for replicated masters, as records
	selfOff   []int64 // per local: offset into selfBuf, -1 = none
	selfEnd   []int64
	applied   []bool   // per local: master applied inline during gather
	chunkBufs [][]byte // received foreign chunk payloads
	chunkN    int
	frefs     []recRef // refs into chunkBufs, built by the receive loop
	applyOne  [1]core.DistPartial
	applySc   core.DistPartial // merged-partial scratch for apply

	collectPreds []VertexPreds // result storage, reused per collect
}

// installShard checks a shipped shard and returns the one the connection
// serves from now on. A worker pinned to a resident shard keeps it: a ship
// for the same fleet slot is acknowledged without replacing anything, and a
// ship cut from a different (graph, cut) is refused as a manifest mismatch.
// A newly installed shard is indexed once, here, for all its jobs.
func installShard(sh *ResidentShard, pinned *heldShard) (*heldShard, error) {
	if pinned != nil {
		return pinned, checkShard(pinned.ResidentShard, sh.Fingerprint, sh.Part.Part, sh.Shards, "ship")
	}
	if err := sh.Part.Validate(); err != nil {
		return nil, err
	}
	if sh.Part.Part >= sh.Shards {
		return nil, fmt.Errorf("wire: ship for shard %d of %d", sh.Part.Part, sh.Shards)
	}
	h := holdShard(sh)
	if h.err != nil {
		return nil, h.err
	}
	return h, nil
}

// checkShard verifies that a coordinator's view of the fleet slot — its
// fingerprint, shard index and shard count — matches the shard this worker
// holds. A mismatched worker would compute over a different graph and
// silently corrupt the fold, so the handshake fails with a typed error.
func checkShard(held *ResidentShard, fingerprint uint64, shard, shards int, what string) error {
	if fingerprint != held.Fingerprint {
		return fmt.Errorf("wire: %s: coordinator has %016x, worker holds %016x",
			manifestMismatchText, fingerprint, held.Fingerprint)
	}
	if shard != held.Part.Part || shards != held.Shards {
		return fmt.Errorf("wire: %s for shard %d of %d, worker holds shard %d of %d",
			what, shard, shards, held.Part.Part, held.Shards)
	}
	return nil
}

// newSession allocates a connection's job state over a held shard: the
// per-local columns and the streaming buffers' steady-state capacity —
// the outgoing chunk builder, a pool of foreign chunk buffers and the
// connection's frame scratch. Later attaches reuse all of it.
func newSession(conn *Conn, shard *heldShard) (*session, error) {
	if shard.err != nil {
		return nil, shard.err
	}
	n := len(shard.Part.Locals)
	s := &session{
		conn:      conn,
		shard:     shard,
		part:      shard.topo.NewPartition(),
		ownMaster: make([]bool, n),
		ownRemote: make([]bool, n),
		applied:   make([]bool, n),
		regather:  shard.topo.CanGatherVertex(),
	}
	if !s.regather {
		s.selfOff = make([]int64, n)
		s.selfEnd = make([]int64, n)
	}
	chunk := streamChunkBytes + streamChunkBytes/4
	s.sendBB.Reset()
	s.sendBB.Grow(chunk)
	const prewarmChunks = 24
	s.chunkBufs = make([][]byte, 0, prewarmChunks)
	for range prewarmChunks {
		s.chunkBufs = append(s.chunkBufs, make([]byte, 0, chunk))
	}
	s.conn.rdBuf = slices.Grow(s.conn.rdBuf, chunk)
	s.conn.rawBuf = slices.Grow(s.conn.rawBuf, chunk)
	s.conn.zwBuf.Grow(chunk)
	return s, nil
}

// attach starts a job on the session. Scoped attaches carry the
// coordinator's per-query roles for just the closure vertices: everything
// outside the entries keeps a zero scope mask, which the partition's scoped
// gathers never visit. Unscoped attaches use the roles baked into the
// shard.
func (s *session) attach(m *Msg) error {
	s.attached = false
	a := &m.Attach
	if err := checkShard(s.shard.ResidentShard, a.Fingerprint, int(a.Shard), int(a.Shards), "attach"); err != nil {
		return err
	}
	cfg, err := m.Job.Config()
	if err != nil {
		return err
	}
	if err := s.part.Reset(cfg, a.Scoped); err != nil {
		return err
	}
	for _, li := range s.listed {
		s.ownMaster[li], s.ownRemote[li] = false, false
	}
	s.listed = s.listed[:0]
	s.busyNS.Store(0)
	if !a.Scoped {
		p := &s.shard.Part
		s.isMaster, s.hasRemote, s.masters = p.IsMaster, p.HasRemote, s.shard.masters
	} else {
		if err := s.attachScope(a.Entries); err != nil {
			return err
		}
	}
	s.prewarm()
	s.attached = true
	return nil
}

// attachScope installs a scoped job's entries: scope masks into the
// partition, roles into the session's own columns, and the ascending
// master list.
func (s *session) attachScope(entries []ScopeEntry) error {
	s.isMaster, s.hasRemote = s.ownMaster, s.ownRemote
	topo := s.part.Topology()
	sorted := true
	for _, e := range entries {
		li, ok := topo.LocalIndex(e.V)
		if !ok {
			return fmt.Errorf("wire: attach scope entry for vertex %d, which is not local to shard %d", e.V, s.shard.Part.Part)
		}
		if err := s.part.SetScope(li, e.Mask); err != nil {
			return err
		}
		if n := len(s.listed); n > 0 && s.listed[n-1] >= li {
			sorted = false
		}
		s.listed = append(s.listed, li)
		s.ownMaster[li] = e.Role&RoleMaster != 0
		s.ownRemote[li] = e.Role&RoleRemote != 0
	}
	if !sorted {
		slices.Sort(s.listed)
		s.listed = slices.Compact(s.listed)
	}
	ms := s.scopedMasters[:0]
	for _, li := range s.listed {
		if s.ownMaster[li] {
			ms = append(ms, li)
		}
	}
	s.scopedMasters, s.masters = ms, ms
	return nil
}

// prewarm sizes the job-dependent buffers during the attach handshake,
// before the coordinator starts timing the supersteps: one foreign ref per
// replicated master (each remote mirror partition contributes at most one
// record per step), and the collect round's result storage and encode
// buffer (its size is bounded by K predictions per master). Buffers only
// grow; a job smaller than an earlier one allocates nothing.
func (s *session) prewarm() {
	nR := 0
	for _, li := range s.masters {
		if s.hasRemote[li] {
			nR++
		}
	}
	s.frefs = slices.Grow(s.frefs[:0], 2*nR)
	s.collectPreds = slices.Grow(s.collectPreds[:0], len(s.masters))
	const predictionBytes = 12 // u32 vertex + f64 score
	resultBound := 64 + len(s.masters)*(8+s.part.Config().K*predictionBytes)
	s.conn.encBuf = slices.Grow(s.conn.encBuf[:0], resultBound)
}

func (s *session) addBusy(d time.Duration) { s.busyNS.Add(int64(d)) }

// resetStep readies the reusable buffers for one superstep. Only masters
// apply, so only their per-local slots need clearing.
func (s *session) resetStep() {
	for _, li := range s.masters {
		s.applied[li] = false
	}
	if !s.regather {
		for _, li := range s.masters {
			s.selfOff[li] = -1
		}
		s.selfBuf = s.selfBuf[:0]
	}
	s.frefs = s.frefs[:0]
	s.chunkN = 0
}

// runStep executes one pipelined superstep: a sender
// goroutine streams gather partials up in chunks as the gather loop produces
// them, while this goroutine concurrently drains the foreign partials the
// coordinator routes back — communication overlaps compute on both sides of
// the connection. Masters without remote mirrors apply inline during the
// gather (no other partition can contribute to them); the rest apply after
// both streams end. The refresh round pipelines the same way.
func (s *session) runStep(step core.DistStep, final bool) error {
	s.resetStep()
	gerr := make(chan error, 1)
	go func() { gerr <- s.gatherAndSend(step) }()
	var ferr error
	for {
		f, err := s.conn.RecvRaw()
		if err != nil {
			ferr = err
			break
		}
		if f.Kind != KindForeign || f.Step != step {
			ferr = fmt.Errorf("wire: %s for %v during %v partials", f.Kind, f.Step, step)
			break
		}
		if err := s.bufferForeign(f.Payload); err != nil {
			ferr = err
			break
		}
		if f.Final {
			break
		}
	}
	// The gather sender always terminates: the coordinator drains partials
	// until our final chunk regardless of the routing outcome.
	if err := <-gerr; err != nil {
		return err
	}
	if ferr != nil {
		return ferr
	}

	t0 := time.Now()
	if err := s.applyMasters(step); err != nil {
		return err
	}
	s.addBusy(time.Since(t0))
	if final {
		// The last superstep's output is read back through collect; mirrors
		// never consume it, so the refresh round is skipped entirely.
		return nil
	}

	// Refresh round: stream master states up while applying the mirror
	// refreshes routed back — masters and mirrors are disjoint local
	// indices, so the two sides never touch the same replica.
	rerr := make(chan error, 1)
	go func() { rerr <- s.sendRefresh(step) }()
	ferr = nil
	for {
		f, err := s.conn.RecvRaw()
		if err != nil {
			ferr = err
			break
		}
		if f.Kind != KindMirrors || f.Step != step {
			ferr = fmt.Errorf("wire: %s for %v during %v refresh", f.Kind, f.Step, step)
			break
		}
		t0 := time.Now()
		err = ForEachStateRecord(f.Payload, func(v graph.VertexID, rec []byte) error {
			li, ok := s.part.Topology().LocalIndex(v)
			if !ok {
				return fmt.Errorf("wire: refresh for vertex %d, which is not local", v)
			}
			got, err := DecodeStateRecordInto(rec, s.part.MutableState(li))
			if err != nil {
				return err
			}
			if got != v {
				return fmt.Errorf("wire: refresh record for %d keyed as %d", got, v)
			}
			return nil
		})
		s.addBusy(time.Since(t0))
		if err != nil {
			ferr = err
			break
		}
		if f.Final {
			break
		}
	}
	if err := <-rerr; err != nil {
		return err
	}
	return ferr
}

// gatherAndSend runs the streaming gather, routing each partial as it is
// produced: masters without mirrors apply inline, replicated masters buffer
// their record locally, everything else is chunked up to the coordinator.
// A final (possibly empty) chunk ends the stream; on a compute error the
// coordinator is told directly so the whole run unwinds instead of waiting
// on a final chunk that will never come.
func (s *session) gatherAndSend(step core.DistStep) error {
	t0 := time.Now()
	bb := &s.sendBB
	bb.Reset()
	err := s.part.GatherStream(step, func(li int32, dp *core.DistPartial) error {
		if s.isMaster[li] {
			if !s.hasRemote[li] {
				// No other partition replicates this vertex, so no foreign
				// partial can arrive: fold it down right now, while the
				// payload is still hot scratch.
				s.applied[li] = true
				s.applyOne[0] = *dp
				return s.part.Apply(step, li, s.applyOne[:1])
			}
			if s.regather {
				// applyMasters recomputes this partial on demand — no copy,
				// no growing record buffer across the exchange.
				return nil
			}
			s.selfOff[li] = int64(len(s.selfBuf))
			s.selfBuf = appendPartialRecord(s.selfBuf, dp)
			s.selfEnd[li] = int64(len(s.selfBuf))
			return nil
		}
		bb.AppendPartial(dp)
		if bb.Len() >= streamChunkBytes {
			s.addBusy(time.Since(t0))
			err := s.conn.SendRaw(KindPartials, step, false, bb.Payload())
			bb.Reset()
			t0 = time.Now()
			return err
		}
		return nil
	})
	if err != nil {
		s.conn.SendError(err)
		return err
	}
	s.addBusy(time.Since(t0))
	return s.conn.SendRaw(KindPartials, step, true, bb.Payload())
}

// bufferForeign copies one routed foreign chunk into the session's reusable
// chunk buffers and indexes its records by local vertex.
func (s *session) bufferForeign(payload []byte) error {
	if len(payload) < 4 {
		return fmt.Errorf("wire: foreign chunk of %d bytes", len(payload))
	}
	if len(payload) == 4 {
		return nil // empty terminator chunk
	}
	var buf []byte
	if s.chunkN < len(s.chunkBufs) {
		buf = append(s.chunkBufs[s.chunkN][:0], payload...)
		s.chunkBufs[s.chunkN] = buf
	} else {
		buf = append([]byte(nil), payload...)
		s.chunkBufs = append(s.chunkBufs, buf)
	}
	ci := int32(s.chunkN)
	s.chunkN++
	n := int(uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24)
	off := 4
	for i := 0; i < n; i++ {
		v, end, err := partialRecordAt(buf, off)
		if err != nil {
			return err
		}
		li, ok := s.part.Topology().LocalIndex(v)
		if !ok || !s.isMaster[li] {
			return fmt.Errorf("wire: routed partial for vertex %d, which is not mastered here", v)
		}
		s.frefs = append(s.frefs, recRef{li: li, chunk: ci, off: int32(off), end: int32(end)})
		off = end
	}
	if off != len(buf) {
		return fmt.Errorf("wire: %d trailing bytes after foreign chunk records", len(buf)-off)
	}
	return nil
}

// applyMasters folds each master's own and foreign partials and applies.
// Every master applies every step — with no contribution anywhere the apply
// still runs and clears the step's output field, exactly like the serial
// engine's empty gather.
func (s *session) applyMasters(step core.DistStep) error {
	slices.SortFunc(s.frefs, func(a, b recRef) int { return cmp.Compare(a.li, b.li) })
	fi := 0
	var rg core.DistPartial
	locals := s.part.Topology().Locals()
	for _, li := range s.masters {
		start := fi
		// bufferForeign only accepts refs to masters, and both lists
		// ascend, so the refs of li are the run starting at fi.
		for fi < len(s.frefs) && s.frefs[fi].li == li {
			fi++
		}
		if s.applied[li] {
			continue
		}
		sc := &s.applySc
		sc.V = locals[li]
		sc.Nbrs = sc.Nbrs[:0]
		sc.Sims = sc.Sims[:0]
		sc.Cands = sc.Cands[:0]
		n := 0
		if s.regather {
			ok, err := s.part.GatherVertex(step, li, &rg)
			if err != nil {
				return err
			}
			if ok {
				sc.Nbrs = append(sc.Nbrs, rg.Nbrs...)
				sc.Sims = append(sc.Sims, rg.Sims...)
				sc.Cands = append(sc.Cands, rg.Cands...)
				n++
			}
		} else if s.selfOff[li] >= 0 {
			if err := DecodePartialRecordInto(s.selfBuf[s.selfOff[li]:s.selfEnd[li]], sc); err != nil {
				return err
			}
			n++
		}
		for _, r := range s.frefs[start:fi] {
			if err := DecodePartialRecordInto(s.chunkBufs[r.chunk][r.off:r.end], sc); err != nil {
				return err
			}
			n++
		}
		var parts []core.DistPartial
		if n > 0 {
			s.applyOne[0] = *sc
			parts = s.applyOne[:1]
		}
		if err := s.part.Apply(step, li, parts); err != nil {
			return err
		}
	}
	return nil
}

// sendRefresh streams the refreshed state of every replicated master up to
// the coordinator in chunks, ending with a final-flagged chunk.
func (s *session) sendRefresh(step core.DistStep) error {
	t0 := time.Now()
	bb := &s.sendBB
	bb.Reset()
	locals := s.part.Topology().Locals()
	for _, li := range s.masters {
		if !s.hasRemote[li] {
			continue
		}
		bb.AppendState(locals[li], s.part.State(li))
		if bb.Len() >= streamChunkBytes {
			s.addBusy(time.Since(t0))
			if err := s.conn.SendRaw(KindRefresh, step, false, bb.Payload()); err != nil {
				return err
			}
			bb.Reset()
			t0 = time.Now()
		}
	}
	s.addBusy(time.Since(t0))
	return s.conn.SendRaw(KindRefresh, step, true, bb.Payload())
}

// collect assembles the partition's master predictions and cost report.
// The allocation figures cover the job's window since a0.
func (s *session) collect(a0 allocs.Sample) WorkerResult {
	topo := s.part.Topology()
	res := WorkerResult{
		Part: s.shard.Part.Part,
		Stats: WorkerStats{
			Verts:       len(topo.Locals()),
			Edges:       topo.NumEdges(),
			BusySeconds: time.Duration(s.busyNS.Load()).Seconds(),
		},
	}
	preds := s.collectPreds[:0]
	for _, li := range s.masters {
		if d := s.part.State(li); len(d.Pred) > 0 {
			preds = append(preds, VertexPreds{V: topo.Locals()[li], Preds: d.Pred})
		}
	}
	s.collectPreds = preds
	res.Preds = preds
	a1 := allocs.Read()
	res.Stats.AllocBytes = int64(a1.Bytes - a0.Bytes)
	res.Stats.AllocObjects = int64(a1.Objects - a0.Objects)
	res.Stats.HeapBytes = int64(a1.Heap)
	return res
}
