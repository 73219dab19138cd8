package wire

import (
	"bytes"
	"testing"

	"snaple/internal/core"
	"snaple/internal/graph"
)

// memConn adapts a byte buffer to the transport interface NewConn expects.
type memConn struct{ bytes.Buffer }

func (*memConn) Close() error { return nil }

// frameBytes encodes one message through a real connection and returns the
// raw frame.
func frameBytes(tb testing.TB, m *Msg, compress bool) []byte {
	tb.Helper()
	buf := &memConn{}
	c := NewConn(buf)
	c.SetCompression(compress)
	if err := c.Send(m); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// rawFrameBytes encodes one batch payload as a raw frame and returns it.
func rawFrameBytes(tb testing.TB, kind Kind, step core.DistStep, final bool, payload []byte, compress bool) []byte {
	tb.Helper()
	buf := &memConn{}
	c := NewConn(buf)
	c.SetCompression(compress)
	if err := c.SendRaw(kind, step, final, payload); err != nil {
		tb.Fatal(err)
	}
	return append([]byte(nil), buf.Bytes()...)
}

// decodeOne decodes the first frame of data through a real connection.
func decodeOne(data []byte) (*Msg, error) {
	src := &memConn{}
	src.Write(data)
	return NewConn(src).Recv()
}

// reencodeBatch walks a batch frame's records the way a worker decodes
// them and re-encodes each into a fresh batch. A nil payload means the
// frame is not a batch kind.
func reencodeBatch(f RawFrame) ([]byte, error) {
	var bb BatchBuilder
	bb.Reset()
	var err error
	switch f.Kind {
	case KindPartials, KindForeign:
		err = ForEachPartialRecord(f.Payload, func(v graph.VertexID, rec []byte) error {
			dp := core.DistPartial{V: v}
			if err := DecodePartialRecordInto(rec, &dp); err != nil {
				return err
			}
			bb.AppendPartial(&dp)
			return nil
		})
	case KindRefresh, KindMirrors:
		err = ForEachStateRecord(f.Payload, func(v graph.VertexID, rec []byte) error {
			var d core.VData
			if _, err := DecodeStateRecordInto(rec, &d); err != nil {
				return err
			}
			bb.AppendState(v, &d)
			return nil
		})
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return bb.Payload(), nil
}

// FuzzWireFrame throws arbitrary bytes at the frame decoder. Truncations,
// bit-flips and lying length prefixes must surface as clean errors — never a
// panic, and never an allocation beyond the bytes that actually arrived
// (readCapped grows in bounded chunks; the per-array count guards check
// declared element counts against the remaining payload). Any message that
// does decode must re-encode canonically: decode → encode → decode → encode
// is byte-stable. Batch frames, which travel raw, must decode record by
// record and re-encode to exactly the received payload.
func FuzzWireFrame(f *testing.F) {
	job := JobSpec{Score: "linearSum", Alpha: 0.9, K: 5, KLocal: 20, ThrGamma: 200, Paths: 2, Seed: 42}
	shard := ResidentShard{
		Fingerprint: 0x5eed5eed5eed5eed,
		Shards:      2,
		Part: Partition{
			Part: 1, NumVertices: 6,
			Locals:    []graph.VertexID{0, 2, 5},
			Deg:       []int32{2, 1, 0},
			EdgeSrc:   []int32{0, 0, 1},
			EdgeDst:   []int32{1, 2, 2},
			IsMaster:  []bool{true, false, true},
			HasRemote: []bool{true, false, false},
		},
	}
	attach := AttachSpec{Fingerprint: shard.Fingerprint, Shard: 1, Shards: 2, Scoped: true,
		Entries: []ScopeEntry{{V: 0, Mask: 7, Role: RoleMaster | RoleRemote}, {V: 5, Mask: 3, Role: RoleMaster}}}
	result := WorkerResult{
		Part:  1,
		Preds: []VertexPreds{{V: 0, Preds: []core.Prediction{{Vertex: 5, Score: 1.25}}}},
		Stats: WorkerStats{Verts: 3, Edges: 3, BusySeconds: 0.5, AllocBytes: 4096, AllocObjects: 7, HeapBytes: 1 << 20},
	}
	seeds := []*Msg{
		{Kind: KindHello, Version: ProtocolV3, Features: featCompress},
		{Kind: KindShip, Shard: shard},
		{Kind: KindAttach, Job: job, Attach: attach},
		{Kind: KindReady},
		{Kind: KindStepBegin, Step: core.DistRelays, Final: true},
		{Kind: KindCollect},
		{Kind: KindResult, Result: result},
		{Kind: KindError, Err: "injected failure"},
	}
	for _, m := range seeds {
		f.Add(frameBytes(f, m, false))
	}

	var partials, states BatchBuilder
	partials.Reset()
	for _, dp := range []core.DistPartial{
		{V: 0, Nbrs: []graph.VertexID{2, 5}},
		{V: 2, Sims: []core.VertexSim{{V: 5, Sim: 0.25}}},
		{V: 5, Cands: []core.PathCand{{Z: 0, S: 1.5}, {Z: 2, S: -0.5}}},
	} {
		partials.AppendPartial(&dp)
	}
	states.Reset()
	states.AppendState(2, &core.VData{
		Nbrs:   []graph.VertexID{0, 5},
		Sims:   []core.VertexSim{{V: 0, Sim: 0.5}},
		TwoHop: []core.PathCand{{Z: 5, S: 0.125}},
		Pred:   []core.Prediction{{Vertex: 5, Score: 2.5}},
	})
	f.Add(rawFrameBytes(f, KindPartials, core.DistTruncate, false, partials.Payload(), false))
	f.Add(rawFrameBytes(f, KindForeign, core.DistCombine, true, partials.Payload(), false))
	f.Add(rawFrameBytes(f, KindRefresh, core.DistRelays, false, states.Payload(), false))
	f.Add(rawFrameBytes(f, KindMirrors, core.DistTwoHop, true, states.Payload(), false))
	// A compressed frame needs a payload big and repetitive enough to shrink.
	var big BatchBuilder
	big.Reset()
	for i := 0; i < 40; i++ {
		var d core.VData
		for j := 0; j < 50; j++ {
			d.Sims = append(d.Sims, core.VertexSim{V: graph.VertexID(j), Sim: 0.5})
		}
		big.AppendState(graph.VertexID(i), &d)
	}
	f.Add(rawFrameBytes(f, KindMirrors, core.DistRelays, true, big.Payload(), true))

	f.Fuzz(func(t *testing.T, data []byte) {
		src := &memConn{}
		src.Write(data)
		raw, err := NewConn(src).RecvRaw()
		if err != nil {
			return // rejected cleanly
		}
		if batch, err := reencodeBatch(raw); err != nil {
			return // a batch whose records do not decode: rejected cleanly
		} else if batch != nil {
			if !bytes.Equal(batch, raw.Payload) {
				t.Fatalf("batch decode→encode not canonical:\nreceived %x\nre-encoded %x", raw.Payload, batch)
			}
			return
		}
		m, err := decodeOne(data)
		if err != nil {
			return // rejected cleanly
		}
		enc1 := frameBytes(t, m, false)
		m2, err := decodeOne(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		enc2 := frameBytes(t, m2, false)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("decode→encode not canonical:\nfirst  %x\nsecond %x", enc1, enc2)
		}
	})
}
