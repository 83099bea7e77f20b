package stablelog

// Replication hooks: the stable log's half of primary/backup log
// shipping (internal/replog).
//
// The key property the replication design rests on is that a frame's
// bytes are a pure function of the payload sequence: Write lays frames
// down contiguously from byte 0, each header carrying the payload
// length, the previous frame's length, and a CRC over both plus the
// payload. A backup that replays the same payloads through its own
// Write therefore produces a byte-identical log with identical LSNs —
// which is exactly what lets a promoted backup run the *existing*
// backward-scan recovery over its received prefix, unchanged.
//
// The primary ships raw frame bytes (ReadRaw) so the receiver can
// revalidate the CRC chain end to end (ParseFrames) before replaying
// the payloads; durability acknowledgments travel as byte offsets,
// which are frame boundaries by construction.

import (
	"errors"
	"fmt"
)

// ErrBadFrame is returned by ParseFrames and ReadRaw when a byte run
// does not validate as a chain of log frames: bad magic, a broken
// back-chain, a CRC mismatch, or a torn tail. For a replication
// receiver it means the shipped run does not extend its prefix and the
// sender must rewind or offer a snapshot.
var ErrBadFrame = errors.New("stablelog: bad replicated frame")

// Replicator is the quorum-acknowledgment hook a replicating wrapper
// (internal/replog) installs on a primary's log: ForceTo completes
// only after both the local device force and WaitQuorum return.
type Replicator interface {
	// WaitQuorum blocks until a quorum of replicas has durably
	// acknowledged the log prefix covering lsn. The entry at lsn is
	// already durable locally when it is called. An error means the
	// quorum was not reached and the caller must not acknowledge the
	// outcome (the entry may still become replica-durable later — the
	// same ambiguity as a failed device force).
	WaitQuorum(lsn LSN) error
}

// SetReplicator installs (or, with nil, removes) the log's replicator.
func (l *Log) SetReplicator(r Replicator) {
	l.mu.Lock()
	l.rep = r
	l.mu.Unlock()
}

// replicator returns the installed replicator (nil for none).
func (l *Log) replicator() Replicator {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rep
}

// ForceTo blocks until the entry written at lsn is on stable storage —
// and, when a replicator is installed, until a quorum of replicas has
// durably acknowledged the covering prefix. See forceToLocal for the
// device-force half; the quorum wait runs outside every log lock, so
// appends and reads proceed while replication rounds are in flight.
func (l *Log) ForceTo(lsn LSN) error {
	if err := l.forceToLocal(lsn); err != nil {
		return err
	}
	if lsn == NoLSN {
		return nil
	}
	if rep := l.replicator(); rep != nil {
		return rep.WaitQuorum(lsn)
	}
	return nil
}

// TailInfo returns the durable byte boundary and the frame length of
// the last appended entry (0 on an empty log). On a replication
// receiver — which forces after every applied batch — the durable
// boundary is also the append tail, so the pair identifies exactly
// where the next shipped run must start and which back-chain value it
// must carry.
func (l *Log) TailInfo() (durable uint64, lastLen uint32) {
	l.mu.Lock()
	defer l.mu.Unlock()
	last := l.last
	if l.lastLSN == NoLSN {
		last = 0
	}
	return l.durable, last
}

// ReadRaw returns a run of whole raw frames starting at byte offset
// from, at most max bytes long (but always at least one frame, so a
// frame larger than max still ships), never extending past the durable
// boundary — only locally durable bytes are ever shipped. The second
// result is the back-chain value of the first frame (the length of the
// frame preceding it), which the receiver cross-checks against its own
// tail. ErrBadFrame reports that from is not a frame boundary of this
// log — the caller's cursor has diverged (e.g. across a housekeeping
// generation switch) and it must resynchronize.
func (l *Log) ReadRaw(from uint64, max int) ([]byte, uint32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if from >= l.durable {
		return nil, 0, fmt.Errorf("%w: offset %d at or beyond durable boundary %d", ErrBadFrame, from, l.durable)
	}
	// The run is at most max bytes unless its first frame alone is longer.
	out := make([]byte, 0, min(uint64(max), l.durable-from))
	var prevLen uint32
	for end := from; end < l.durable; {
		h, ok, err := l.headerAt(end, l.durable)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("%w: no frame at offset %d", ErrBadFrame, end)
		}
		if end == from {
			prevLen = h.prevLen
		}
		if end+h.size() > l.durable {
			return nil, 0, fmt.Errorf("%w: frame at %d runs past durable boundary %d", ErrBadFrame, end, l.durable)
		}
		if end > from && end+h.size()-from > uint64(max) {
			break
		}
		if out, ok, err = l.appendAt(out, end, int(h.size()), l.durable); err != nil {
			return nil, 0, err
		}
		if !ok {
			return nil, 0, fmt.Errorf("%w: raw range [%d,%d) unreadable", ErrBadFrame, from, end+h.size())
		}
		end += h.size()
	}
	return out, prevLen, nil
}

// Frame is one parsed replicated log frame: the address its bytes
// occupy, the back-chain value its header carries, and its payload
// (aliasing the parsed buffer).
type Frame struct {
	LSN     LSN
	PrevLen uint32
	Payload []byte
}

// ParseFrames validates a shipped byte run as a contiguous chain of
// log frames starting at byte offset start, whose preceding frame had
// length prevLen (0 when start is 0). Every frame's magic, back-chain
// link, and CRC are checked; a torn, reordered, or duplicated run
// fails with ErrBadFrame rather than yielding partial results, because
// a receiver must apply a run entirely or not at all. An empty run
// parses to no frames.
func ParseFrames(start uint64, prevLen uint32, b []byte) ([]Frame, error) {
	var out []Frame
	off := uint64(0)
	n := uint64(len(b))
	for off < n {
		if n-off < frameHeaderSize {
			return nil, fmt.Errorf("%w: torn header at offset %d", ErrBadFrame, start+off)
		}
		h, ok := decodeHeader(b[off:])
		if !ok {
			return nil, fmt.Errorf("%w: bad magic at offset %d", ErrBadFrame, start+off)
		}
		if h.prevLen != prevLen {
			return nil, fmt.Errorf("%w: back-chain %d at offset %d, want %d", ErrBadFrame, h.prevLen, start+off, prevLen)
		}
		if h.size() > n-off {
			return nil, fmt.Errorf("%w: torn payload at offset %d", ErrBadFrame, start+off)
		}
		payload := b[off+frameHeaderSize : off+h.size()]
		if !h.seals(payload) {
			return nil, fmt.Errorf("%w: checksum mismatch at offset %d", ErrBadFrame, start+off)
		}
		out = append(out, Frame{LSN: LSN(start + off), PrevLen: h.prevLen, Payload: payload})
		prevLen = uint32(h.size())
		off += h.size()
	}
	return out, nil
}
