package wire

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// pipePair returns two ends of an in-memory v3 message stream.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

// zipPair is pipePair with per-frame compression enabled on both ends.
func zipPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	ca, cb := pipePair(t)
	ca.SetCompression(true)
	cb.SetCompression(true)
	return ca, cb
}

// protoPairs lists the encoder/decoder pairings every lossless-codec test
// runs through: the frame protocol plain and compressed.
var protoPairs = []struct {
	name string
	pair func(t *testing.T) (*Conn, *Conn)
}{
	{"v3", pipePair},
	{"v3-flate", zipPair},
}

// roundTrip pushes m through a real encoder/decoder pair and returns the
// decoded copy.
func roundTrip(t *testing.T, m *Msg, pair func(t *testing.T) (*Conn, *Conn)) *Msg {
	t.Helper()
	ca, cb := pair(t)
	errc := make(chan error, 1)
	go func() { errc <- ca.Send(m) }()
	got, err := cb.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	return got
}

// normalizeMsg maps empty slices to nil: the codec does not distinguish a
// nil slice from an empty one, so lossless means "equal after
// normalization".
func normalizeMsg(m *Msg) {
	if len(m.Result.Preds) == 0 {
		m.Result.Preds = nil
	}
	for i := range m.Result.Preds {
		if len(m.Result.Preds[i].Preds) == 0 {
			m.Result.Preds[i].Preds = nil
		}
	}
	p := &m.Shard.Part
	if len(p.Locals) == 0 {
		p.Locals = nil
	}
	if len(p.Deg) == 0 {
		p.Deg = nil
	}
	if len(p.EdgeSrc) == 0 {
		p.EdgeSrc = nil
	}
	if len(p.EdgeDst) == 0 {
		p.EdgeDst = nil
	}
	if len(p.IsMaster) == 0 {
		p.IsMaster = nil
	}
	if len(p.HasRemote) == 0 {
		p.HasRemote = nil
	}
}

// checkLossless asserts that a message survives the wire bit for bit on
// every protocol pairing (modulo the nil/empty unification).
func checkLossless(t *testing.T, m *Msg) {
	t.Helper()
	want := *m
	normalizeMsg(&want)
	for _, pp := range protoPairs {
		got := roundTrip(t, m, pp.pair)
		normalizeMsg(got)
		if !reflect.DeepEqual(&want, got) {
			t.Fatalf("%s round trip lost data:\nsent %+v\ngot  %+v", pp.name, &want, got)
		}
	}
}

// vstate is one state-batch record: a vertex and its replica state.
type vstate struct {
	V    graph.VertexID
	Data core.VData
}

// rawRoundTrip streams one batch payload through a real encoder/decoder
// pair as a single final-flagged frame and returns the received frame.
func rawRoundTrip(t *testing.T, kind Kind, step core.DistStep, payload []byte, pair func(t *testing.T) (*Conn, *Conn)) RawFrame {
	t.Helper()
	ca, cb := pair(t)
	errc := make(chan error, 1)
	go func() { errc <- ca.SendRaw(kind, step, true, payload) }()
	f, err := cb.RecvRaw()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("send: %v", err)
	}
	if f.Kind != kind || f.Step != step || !f.Final {
		t.Fatalf("frame header %s/%v/final=%v, sent %s/%v/final=true", f.Kind, f.Step, f.Final, kind, step)
	}
	return f
}

// checkPartialsLossless asserts that a partial batch survives the raw
// stream path bit for bit: encoded by a BatchBuilder, routed as raw
// records, and decoded the way a worker decodes foreign partials.
func checkPartialsLossless(t *testing.T, kind Kind, step core.DistStep, partials []core.DistPartial) {
	t.Helper()
	var bb BatchBuilder
	bb.Reset()
	for i := range partials {
		bb.AppendPartial(&partials[i])
	}
	for _, pp := range protoPairs {
		f := rawRoundTrip(t, kind, step, bb.Payload(), pp.pair)
		var got []core.DistPartial
		err := ForEachPartialRecord(f.Payload, func(v graph.VertexID, rec []byte) error {
			dp := core.DistPartial{V: v}
			if err := DecodePartialRecordInto(rec, &dp); err != nil {
				return err
			}
			got = append(got, dp)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", pp.name, err)
		}
		if len(got) != len(partials) {
			t.Fatalf("%s: %d records, sent %d", pp.name, len(got), len(partials))
		}
		for i := range got {
			if !reflect.DeepEqual(normPartial(partials[i]), normPartial(got[i])) {
				t.Fatalf("%s: record %d lost data:\nsent %+v\ngot  %+v", pp.name, i, partials[i], got[i])
			}
		}
	}
}

// checkStatesLossless is checkPartialsLossless for state batches, decoded
// the way a worker applies mirror refreshes.
func checkStatesLossless(t *testing.T, kind Kind, step core.DistStep, states []vstate) {
	t.Helper()
	var bb BatchBuilder
	bb.Reset()
	for i := range states {
		bb.AppendState(states[i].V, &states[i].Data)
	}
	for _, pp := range protoPairs {
		f := rawRoundTrip(t, kind, step, bb.Payload(), pp.pair)
		var got []vstate
		err := ForEachStateRecord(f.Payload, func(v graph.VertexID, rec []byte) error {
			var d core.VData
			if _, err := DecodeStateRecordInto(rec, &d); err != nil {
				return err
			}
			got = append(got, vstate{V: v, Data: d})
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", pp.name, err)
		}
		if len(got) != len(states) {
			t.Fatalf("%s: %d records, sent %d", pp.name, len(got), len(states))
		}
		for i := range got {
			if !reflect.DeepEqual(normState(states[i]), normState(got[i])) {
				t.Fatalf("%s: record %d lost data:\nsent %+v\ngot  %+v", pp.name, i, states[i], got[i])
			}
		}
	}
}

func normPartial(dp core.DistPartial) core.DistPartial {
	if len(dp.Nbrs) == 0 {
		dp.Nbrs = nil
	}
	if len(dp.Sims) == 0 {
		dp.Sims = nil
	}
	if len(dp.Cands) == 0 {
		dp.Cands = nil
	}
	return dp
}

func normState(vs vstate) vstate {
	d := &vs.Data
	if len(d.Nbrs) == 0 {
		d.Nbrs = nil
	}
	if len(d.Sims) == 0 {
		d.Sims = nil
	}
	if len(d.TwoHop) == 0 {
		d.TwoHop = nil
	}
	if len(d.Pred) == 0 {
		d.Pred = nil
	}
	return vs
}

// randPartition generates a partition payload. n=0 produces the empty
// partition; hub makes one local vertex own almost every edge.
func randPartition(r *rand.Rand, n int, hub bool) Partition {
	p := Partition{Part: r.Intn(8), NumVertices: n}
	if n == 0 {
		return p
	}
	// A sorted subset of [0, n) as the local table.
	for v := 0; v < n; v++ {
		if r.Intn(3) > 0 {
			p.Locals = append(p.Locals, graph.VertexID(v))
		}
	}
	if len(p.Locals) == 0 {
		p.Locals = append(p.Locals, graph.VertexID(r.Intn(n)))
	}
	for range p.Locals {
		p.Deg = append(p.Deg, int32(r.Intn(1000)))
		p.IsMaster = append(p.IsMaster, r.Intn(2) == 0)
		p.HasRemote = append(p.HasRemote, r.Intn(2) == 0)
	}
	edges := r.Intn(4 * len(p.Locals))
	if hub {
		edges = 5000 // one source fans out to thousands of targets
	}
	for i := 0; i < edges; i++ {
		src := int32(r.Intn(len(p.Locals)))
		if hub {
			src = 0
		}
		p.EdgeSrc = append(p.EdgeSrc, src)
		p.EdgeDst = append(p.EdgeDst, int32(r.Intn(len(p.Locals))))
	}
	return p
}

func randPartials(r *rand.Rand, kind int) []core.DistPartial {
	n := r.Intn(20)
	out := make([]core.DistPartial, 0, n)
	for i := 0; i < n; i++ {
		dp := core.DistPartial{V: graph.VertexID(r.Uint32())}
		m := r.Intn(30) + 1
		switch kind {
		case 0:
			for j := 0; j < m; j++ {
				dp.Nbrs = append(dp.Nbrs, graph.VertexID(r.Uint32()))
			}
		case 1:
			for j := 0; j < m; j++ {
				dp.Sims = append(dp.Sims, core.VertexSim{V: graph.VertexID(r.Uint32()), Sim: r.Float64()})
			}
		default:
			for j := 0; j < m; j++ {
				dp.Cands = append(dp.Cands, core.PathCand{Z: graph.VertexID(r.Uint32()), S: r.NormFloat64()})
			}
		}
		out = append(out, dp)
	}
	return out
}

func randStates(r *rand.Rand) []vstate {
	n := r.Intn(10)
	out := make([]vstate, 0, n)
	for i := 0; i < n; i++ {
		vs := vstate{V: graph.VertexID(r.Uint32())}
		for j := r.Intn(10); j > 0; j-- {
			vs.Data.Nbrs = append(vs.Data.Nbrs, graph.VertexID(r.Uint32()))
		}
		for j := r.Intn(10); j > 0; j-- {
			vs.Data.Sims = append(vs.Data.Sims, core.VertexSim{V: graph.VertexID(r.Uint32()), Sim: r.Float64()})
		}
		for j := r.Intn(10); j > 0; j-- {
			vs.Data.TwoHop = append(vs.Data.TwoHop, core.PathCand{Z: graph.VertexID(r.Uint32()), S: r.Float64()})
		}
		for j := r.Intn(6); j > 0; j-- {
			vs.Data.Pred = append(vs.Data.Pred, core.Prediction{Vertex: graph.VertexID(r.Uint32()), Score: r.Float64()})
		}
		out = append(out, vs)
	}
	return out
}

// TestShipRoundTrip property-tests that shard shipping is lossless,
// including the empty partition and hub-vertex skew.
func TestShipRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cases := []Partition{
		randPartition(r, 0, false),   // empty partition
		randPartition(r, 1, false),   // single vertex
		randPartition(r, 4000, true), // hub vertex with thousands of edges
	}
	for i := 0; i < 20; i++ {
		cases = append(cases, randPartition(r, 1+r.Intn(200), false))
	}
	for _, part := range cases {
		shard := ResidentShard{Fingerprint: r.Uint64(), Shards: part.Part + 1 + r.Intn(4), Part: part}
		checkLossless(t, &Msg{Kind: KindShip, Shard: shard})
	}
}

// TestPartialRoundTrip property-tests score-message exchange for all three
// gather payload types, including the empty batch.
func TestPartialRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	checkPartialsLossless(t, KindPartials, core.DistTruncate, nil) // empty
	for i := 0; i < 30; i++ {
		kind := i % 3
		step := []core.DistStep{core.DistTruncate, core.DistRelays, core.DistCombine}[kind]
		checkPartialsLossless(t, KindPartials, step, randPartials(r, kind))
		checkPartialsLossless(t, KindForeign, step, randPartials(r, kind))
	}
}

// TestStateAndResultRoundTrip covers refresh broadcasts and the collect
// payload (predictions + stats).
func TestStateAndResultRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		checkStatesLossless(t, KindRefresh, core.DistRelays, randStates(r))
		res := WorkerResult{
			Part: r.Intn(8),
			Stats: WorkerStats{
				Verts: r.Intn(1000), Edges: r.Intn(100000),
				BusySeconds:  r.Float64(),
				AllocBytes:   r.Int63(),
				AllocObjects: r.Int63(),
				HeapBytes:    r.Int63(),
			},
		}
		for j := r.Intn(20); j > 0; j-- {
			vp := VertexPreds{V: graph.VertexID(r.Uint32())}
			for k := r.Intn(5) + 1; k > 0; k-- {
				vp.Preds = append(vp.Preds, core.Prediction{Vertex: graph.VertexID(r.Uint32()), Score: r.NormFloat64()})
			}
			res.Preds = append(res.Preds, vp)
		}
		checkLossless(t, &Msg{Kind: KindResult, Result: res})
	}
}

// TestJobSpecConfigRoundTrip checks Config → JobSpec → Config for every
// Table 3 score and both path lengths.
func TestJobSpecConfigRoundTrip(t *testing.T) {
	for _, score := range core.ScoreNames() {
		for _, paths := range []int{2, 3} {
			spec, err := core.ScoreByName(score, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.Config{Score: spec, K: 7, KLocal: 4, ThrGamma: 11, Policy: core.SelectRnd, Paths: paths, Seed: 99}
			job, err := JobFromConfig(cfg)
			if err != nil {
				t.Fatalf("%s: %v", score, err)
			}
			back, err := job.Config()
			if err != nil {
				t.Fatalf("%s: %v", score, err)
			}
			if back.Score.Name != score || back.Score.Alpha != 0.7 ||
				back.K != 7 || back.KLocal != 4 || back.ThrGamma != 11 ||
				back.Policy != core.SelectRnd || back.Paths != paths || back.Seed != 99 {
				t.Fatalf("%s: config did not survive the wire: %+v", score, back)
			}
		}
	}
	// A hand-assembled spec with anonymous functions must be rejected.
	bad := core.Config{Score: core.ScoreSpec{
		Name: "custom", Sim: core.Jaccard{}, Comb: core.SumComb(), Agg: core.AggSum(),
	}, K: 5}
	if _, err := JobFromConfig(bad); err == nil {
		t.Fatal("custom score crossed the wire")
	}
}

// TestConnCounters pins the traffic accounting Send/Recv maintain.
func TestConnCounters(t *testing.T) {
	ca, cb := pipePair(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			if _, err := cb.Recv(); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		if err := ca.Send(&Msg{Kind: KindStepBegin, Step: core.DistTruncate}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	sent, recvd := ca.Counters(), cb.Counters()
	if sent.MsgsOut != 3 || recvd.MsgsIn != 3 {
		t.Fatalf("message counts: sent %+v, received %+v", sent, recvd)
	}
	if sent.BytesOut == 0 || sent.BytesOut != recvd.BytesIn {
		t.Fatalf("byte counts disagree: sent %+v, received %+v", sent, recvd)
	}
	delta := sent.Sub(Counters{MsgsOut: 1})
	if delta.MsgsOut != 2 {
		t.Fatalf("Sub: %+v", delta)
	}
}

// TestExpectRejectsWrongKind pins the protocol guard.
func TestExpectRejectsWrongKind(t *testing.T) {
	ca, cb := pipePair(t)
	go func() { _ = ca.Send(&Msg{Kind: KindCollect}) }()
	if _, err := cb.Expect(KindStepBegin); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

// TestErrorPropagation: a KindError surfaces as an error on Recv.
func TestErrorPropagation(t *testing.T) {
	ca, cb := pipePair(t)
	go func() { ca.SendError(errInjected{}) }()
	if _, err := cb.Recv(); err == nil {
		t.Fatal("remote error swallowed")
	}
}

type errInjected struct{}

func (errInjected) Error() string { return "injected failure" }

// serveWorkers runs a real listening worker fleet for negotiation tests and
// returns its address.
func serveWorkers(t *testing.T, o ServeOptions) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = ServeWith(l, nil, o) }()
	return l.Addr().String()
}

// miniSession drives a complete (zero-superstep) session over c: ship an
// empty shard for slot part of 8, attach a job to it, collect the result. It
// proves the negotiated connection actually works end to end, not just that
// the handshake returned.
func miniSession(c *Conn, part int) error {
	ship := &Msg{Kind: KindShip, Shard: ResidentShard{Fingerprint: 0xfeed, Shards: 8, Part: Partition{Part: part}}}
	if err := c.Send(ship); err != nil {
		return fmt.Errorf("ship: %w", err)
	}
	if _, err := c.Expect(KindReady); err != nil {
		return fmt.Errorf("ready: %w", err)
	}
	job := JobSpec{Score: "linearSum", Alpha: 0.9, K: 5, KLocal: 20, ThrGamma: 200, Paths: 2, Seed: 42}
	attach := &Msg{Kind: KindAttach, Job: job, Attach: AttachSpec{Fingerprint: 0xfeed, Shard: int32(part), Shards: 8}}
	if err := c.Send(attach); err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	if _, err := c.Expect(KindReady); err != nil {
		return fmt.Errorf("ready: %w", err)
	}
	if err := c.Send(&Msg{Kind: KindCollect}); err != nil {
		return fmt.Errorf("collect: %w", err)
	}
	m, err := c.Expect(KindResult)
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	if m.Result.Part != part {
		return fmt.Errorf("result for partition %d, shipped partition %d", m.Result.Part, part)
	}
	return nil
}

func runMiniSession(t *testing.T, c *Conn) {
	t.Helper()
	if err := miniSession(c, 3); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolNegotiation covers the hello handshake: compression requested
// and granted, then a full session over the negotiated connection.
func TestProtocolNegotiation(t *testing.T) {
	t.Run("v3-with-compression", func(t *testing.T) {
		addr := serveWorkers(t, ServeOptions{})
		c, err := DialWith(addr, DialOptions{Compress: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if !c.compress {
			t.Fatal("compression requested but not granted")
		}
		runMiniSession(t, c)
	})
}

// TestWorkerServesConcurrentShips: a plain worker serves its connections
// concurrently, each against the shard its own ship installed.
func TestWorkerServesConcurrentShips(t *testing.T) {
	addr := serveWorkers(t, ServeOptions{})
	const sessions = 4
	errs := make(chan error, sessions)
	for part := 0; part < sessions; part++ {
		go func() {
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			errs <- miniSession(c, part)
		}()
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestResidentWorkerRefusesForeignShip: a worker pinned to one pack's shard
// refuses a ship cut from another pack with the typed manifest mismatch,
// and acknowledges a ship for its own fleet slot without replacing the
// pinned columns.
func TestResidentWorkerRefusesForeignShip(t *testing.T) {
	pinned := &ResidentShard{Fingerprint: 0xA, Shards: 2, Part: Partition{Part: 1}}
	addr := serveWorkers(t, ServeOptions{Resident: pinned})
	ship := func(fp uint64) error {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(&Msg{Kind: KindShip, Shard: ResidentShard{Fingerprint: fp, Shards: 2, Part: Partition{Part: 1}}}); err != nil {
			t.Fatal(err)
		}
		_, err = c.Expect(KindReady)
		return err
	}
	if err := ship(0xB); !IsManifestMismatch(err) {
		t.Fatalf("ship for pack B: err = %v, want a manifest mismatch", err)
	}
	if err := ship(0xA); err != nil {
		t.Fatalf("ship for the pinned pack refused: %v", err)
	}
}

// TestCompressionShrinksWire pins the point of the compression flag: the
// same highly-compressible payload crosses the wire in fewer bytes on a
// compressed connection.
func TestCompressionShrinksWire(t *testing.T) {
	var bb BatchBuilder
	bb.Reset()
	for i := 0; i < 50; i++ {
		var d core.VData
		for j := 0; j < 100; j++ {
			d.Sims = append(d.Sims, core.VertexSim{V: graph.VertexID(j), Sim: 0.5})
		}
		bb.AppendState(graph.VertexID(i), &d)
	}
	bytesAcross := func(pair func(t *testing.T) (*Conn, *Conn)) int64 {
		ca, cb := pair(t)
		errc := make(chan error, 1)
		go func() { errc <- ca.SendRaw(KindMirrors, core.DistRelays, true, bb.Payload()) }()
		if _, err := cb.RecvRaw(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		return ca.Counters().BytesOut
	}
	plain := bytesAcross(pipePair)
	zipped := bytesAcross(zipPair)
	if zipped >= plain/2 {
		t.Fatalf("compression saved too little: %d plain, %d compressed", plain, zipped)
	}
}
