package wire

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// This file is the fault-injection half of the dist backend's chaos
// harness: a transport wrapper that fires scripted faults at exact byte
// offsets of either direction of a connection. Tests wrap a worker's
// accepted net.Conn in a ChaosTransport and hand it to ServeConnWith, so
// every failure mode a real network produces — a stall, a mid-frame
// connection cut, a flipped bit, a silent blackhole — hits the coordinator
// exactly where the script says, deterministically. The equivalence suite
// in internal/engine then asserts that a run surviving these faults is
// bit-identical to the healthy run.

// ChaosDir selects which direction of the wrapped transport a fault
// applies to. Offsets count bytes per direction, from the wrap.
type ChaosDir int

const (
	// ChaosReads faults the wrapped transport's Read stream (bytes arriving
	// from the peer).
	ChaosReads ChaosDir = iota
	// ChaosWrites faults the Write stream (bytes sent to the peer).
	ChaosWrites
)

// ChaosOp is the fault to inject.
type ChaosOp int

const (
	// ChaosDelay stalls the stream once for Delay when the offset is
	// reached, then continues untouched — network jitter, not a failure.
	ChaosDelay ChaosOp = iota
	// ChaosCorrupt flips one bit of the byte at the offset. The frame's
	// CRC-32C catches it and the receiver kills the connection — a clean
	// model of line corruption.
	ChaosCorrupt
	// ChaosCut closes the underlying transport abruptly at the offset,
	// leaving the peer mid-frame — the signature of a SIGKILLed process.
	ChaosCut
	// ChaosDrop blackholes the direction from the offset on: writes report
	// success but deliver nothing, reads consume the peer's bytes but
	// return none. Only a deadline can detect it — exactly the failure the
	// coordinator's per-phase deadlines exist for.
	ChaosDrop
)

// ChaosEvent is one scripted fault: Op fires when byte At of direction Dir
// is reached. Events of one direction must be listed in ascending At order;
// an At at or before the current offset fires on the next operation.
type ChaosEvent struct {
	Dir   ChaosDir
	Op    ChaosOp
	At    int64
	Delay time.Duration // ChaosDelay only
}

// ChaosTransport wraps a transport and injects scripted faults at exact
// byte offsets. It is safe for one concurrent reader and one concurrent
// writer, like the net.Conn it wraps. Deadlines pass through to the
// underlying transport, so Conn.SetDeadline still bounds a blackholed
// stream.
type ChaosTransport struct {
	rwc    io.ReadWriteCloser
	mu     sync.Mutex
	events []ChaosEvent
	rOff   int64
	wOff   int64
	rDrop  bool
	wDrop  bool
}

// NewChaosTransport wraps rwc with the given fault script.
func NewChaosTransport(rwc io.ReadWriteCloser, events []ChaosEvent) *ChaosTransport {
	return &ChaosTransport{rwc: rwc, events: append([]ChaosEvent(nil), events...)}
}

// pendingLocked returns the index of the first queued event for dir, or -1.
func (t *ChaosTransport) pendingLocked(dir ChaosDir) int {
	for i := range t.events {
		if t.events[i].Dir == dir {
			return i
		}
	}
	return -1
}

// Read implements io.Reader with read-direction faults.
func (t *ChaosTransport) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return t.rwc.Read(p)
	}
	for {
		t.mu.Lock()
		if t.rDrop {
			t.mu.Unlock()
			// Blackhole: keep consuming so the peer never blocks on TCP
			// flow control, but deliver nothing. A deadline or a close on
			// the underlying transport is the only way out.
			buf := make([]byte, 4096)
			for {
				if _, err := t.rwc.Read(buf); err != nil {
					return 0, err
				}
			}
		}
		i := t.pendingLocked(ChaosReads)
		if i < 0 {
			t.mu.Unlock()
			return t.readCounted(p)
		}
		ev := t.events[i]
		if ev.At > t.rOff {
			// Stop the read exactly at the event's offset so it fires on
			// its own byte, not somewhere inside a larger read.
			limit := min(int64(len(p)), ev.At-t.rOff)
			t.mu.Unlock()
			return t.readCounted(p[:limit])
		}
		t.events = append(t.events[:i], t.events[i+1:]...)
		switch ev.Op {
		case ChaosDelay:
			t.mu.Unlock()
			time.Sleep(ev.Delay)
		case ChaosCut:
			t.mu.Unlock()
			_ = t.rwc.Close()
			return 0, fmt.Errorf("wire: chaos cut at read offset %d", ev.At)
		case ChaosCorrupt:
			t.mu.Unlock()
			n, err := t.readCounted(p[:1])
			if n > 0 {
				p[0] ^= 0x20
			}
			return n, err
		case ChaosDrop:
			t.rDrop = true
			t.mu.Unlock()
		}
	}
}

func (t *ChaosTransport) readCounted(p []byte) (int, error) {
	n, err := t.rwc.Read(p)
	t.mu.Lock()
	t.rOff += int64(n)
	t.mu.Unlock()
	return n, err
}

// Write implements io.Writer with write-direction faults.
func (t *ChaosTransport) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		t.mu.Lock()
		if t.wDrop {
			t.wOff += int64(len(p))
			t.mu.Unlock()
			return total + len(p), nil
		}
		i := t.pendingLocked(ChaosWrites)
		if i < 0 {
			t.mu.Unlock()
			n, err := t.writeCounted(p)
			return total + n, err
		}
		ev := t.events[i]
		if ev.At > t.wOff {
			limit := min(int64(len(p)), ev.At-t.wOff)
			t.mu.Unlock()
			n, err := t.writeCounted(p[:limit])
			total += n
			if err != nil {
				return total, err
			}
			p = p[n:]
			continue
		}
		t.events = append(t.events[:i], t.events[i+1:]...)
		switch ev.Op {
		case ChaosDelay:
			t.mu.Unlock()
			time.Sleep(ev.Delay)
		case ChaosCut:
			t.mu.Unlock()
			_ = t.rwc.Close()
			return total, fmt.Errorf("wire: chaos cut at write offset %d", ev.At)
		case ChaosCorrupt:
			t.mu.Unlock()
			n, err := t.writeCounted([]byte{p[0] ^ 0x20})
			total += n
			if err != nil {
				return total, err
			}
			p = p[n:]
		case ChaosDrop:
			t.wDrop = true
			t.mu.Unlock()
		}
	}
	return total, nil
}

func (t *ChaosTransport) writeCounted(p []byte) (int, error) {
	n, err := t.rwc.Write(p)
	t.mu.Lock()
	t.wOff += int64(n)
	t.mu.Unlock()
	return n, err
}

// Close closes the underlying transport.
func (t *ChaosTransport) Close() error { return t.rwc.Close() }

// SetDeadline passes deadlines through, so wrapped connections stay
// bounded — the property the blackhole fault exists to exercise.
func (t *ChaosTransport) SetDeadline(tm time.Time) error {
	if d, ok := t.rwc.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(tm)
	}
	return nil
}
