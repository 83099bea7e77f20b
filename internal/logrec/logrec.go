// Package logrec defines the log entry formats of the simple log
// (thesis Figure 3-1) and the hybrid log (Figure 4-1) and their binary
// encodings.
//
// Both logs share the same entry kinds:
//
//	data            — a recoverable object's flattened version
//	prepared        — participant outcome: the action prepared
//	committed       — participant outcome: the action committed
//	aborted         — participant outcome: the action aborted
//	committing      — coordinator outcome, with participant guardian ids
//	done            — coordinator outcome: two-phase commit finished
//	base_committed  — combined data+outcome for a newly accessible
//	                  object's base version (§3.3.3.2)
//	prepared_data   — combined data+outcome for a newly accessible
//	                  object's current version written by a *prepared*
//	                  action (§3.3.3.2)
//	committed_ss    — housekeeping's committed stable state entry
//	                  carrying the CSSL (§5.1.1)
//
// The two formats differ per Figure 4-1: in the hybrid log, data
// entries drop the uid and action id (the prepared entry carries them
// as ⟨uid, log address⟩ pairs), and every outcome entry gains a log
// pointer linking it to the previous outcome entry, forming the
// backward chain recovery follows.
package logrec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/stablelog"
)

// Kind identifies a log entry kind.
type Kind uint8

// The entry kinds of Figures 3-1 and 4-1 (committed_ss from ch. 5).
const (
	KindData Kind = iota + 1
	KindPrepared
	KindCommitted
	KindAborted
	KindCommitting
	KindDone
	KindBaseCommitted
	KindPreparedData
	KindCommittedSS
)

func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindPrepared:
		return "prepared"
	case KindCommitted:
		return "committed"
	case KindAborted:
		return "aborted"
	case KindCommitting:
		return "committing"
	case KindDone:
		return "done"
	case KindBaseCommitted:
		return "base_committed"
	case KindPreparedData:
		return "prepared_data"
	case KindCommittedSS:
		return "committed_ss"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsOutcome reports whether k is an outcome entry (as opposed to a data
// entry). base_committed and prepared_data are outcome entries in the
// thesis's terminology — "these entries are like combined data and
// outcome entries" (§3.2) — as is committed_ss.
func (k Kind) IsOutcome() bool { return k != KindData }

// Format selects the encoding variant.
type Format uint8

const (
	// Simple is the chapter 3 format (Figure 3-1).
	Simple Format = iota + 1
	// Hybrid is the chapter 4 format (Figure 4-1).
	Hybrid
)

// UIDLSN is one ⟨object uid, log address⟩ pair from a hybrid prepared
// entry's map portion or a committed_ss entry's CSSL.
type UIDLSN struct {
	UID  ids.UID
	Addr stablelog.LSN
}

// Entry is a decoded log entry of either format. Fields not used by a
// given kind/format are zero.
type Entry struct {
	Kind Kind

	// UID is the object id (data [simple], base_committed,
	// prepared_data).
	UID ids.UID
	// ObjType distinguishes atomic from mutex object versions (data).
	ObjType object.Kind
	// Value is the flattened object version (data, base_committed,
	// prepared_data).
	Value []byte
	// AID is the action id (all outcome entries; data in the simple
	// format).
	AID ids.ActionID
	// GIDs lists participant guardians (committing).
	GIDs []ids.GuardianID
	// Pairs is the ⟨uid, log address⟩ list (hybrid prepared,
	// committed_ss).
	Pairs []UIDLSN
	// Prev is the hybrid backward-chain pointer to the previous outcome
	// entry (NoLSN at the chain's end; unused in the simple format).
	Prev stablelog.LSN
}

// ErrCorrupt is returned when decoding malformed entry bytes.
var ErrCorrupt = errors.New("logrec: corrupt entry")

// lsnCode maps LSNs to varints with NoLSN as zero.
func lsnCode(l stablelog.LSN) uint64 {
	if l == stablelog.NoLSN {
		return 0
	}
	return uint64(l) + 1
}

func lsnDecode(x uint64) stablelog.LSN {
	if x == 0 {
		return stablelog.NoLSN
	}
	return stablelog.LSN(x - 1)
}

// Encode serializes e in the given format.
func Encode(f Format, e *Entry) []byte {
	w := encoder{buf: make([]byte, 0, 16+len(e.Value))}
	w.byte(byte(f))
	w.byte(byte(e.Kind))
	switch e.Kind {
	case KindData:
		w.byte(byte(e.ObjType))
		if f == Simple {
			w.uvarint(uint64(e.UID))
			w.aid(e.AID)
		}
		w.bytes(e.Value)
	case KindPrepared:
		w.aid(e.AID)
		if f == Hybrid {
			w.pairs(e.Pairs)
			w.uvarint(lsnCode(e.Prev))
		}
	case KindCommitted, KindAborted, KindDone:
		w.aid(e.AID)
		if f == Hybrid {
			w.uvarint(lsnCode(e.Prev))
		}
	case KindCommitting:
		w.aid(e.AID)
		w.uvarint(uint64(len(e.GIDs)))
		for _, g := range e.GIDs {
			w.uvarint(uint64(g))
		}
		if f == Hybrid {
			w.uvarint(lsnCode(e.Prev))
		}
	case KindBaseCommitted:
		w.uvarint(uint64(e.UID))
		w.bytes(e.Value)
		if f == Hybrid {
			w.uvarint(lsnCode(e.Prev))
		}
	case KindPreparedData:
		w.uvarint(uint64(e.UID))
		w.aid(e.AID)
		w.bytes(e.Value)
		if f == Hybrid {
			w.uvarint(lsnCode(e.Prev))
		}
	case KindCommittedSS:
		w.pairs(e.Pairs)
		w.uvarint(lsnCode(e.Prev))
	default:
		panic(fmt.Sprintf("logrec: encode of unknown kind %v", e.Kind))
	}
	return w.buf
}

// Decode parses entry bytes, checking that they carry the expected
// format. The entry owns its memory: nothing in it aliases data.
func Decode(f Format, data []byte) (*Entry, error) {
	e := new(Entry)
	if err := DecodeInto(f, data, e); err != nil {
		return nil, err
	}
	e.Value = bytes.Clone(e.Value)
	return e, nil
}

// DecodeInto is Decode into a caller's entry, so a log scan can decode
// every entry into one Entry and allocate nothing per entry. It sets
// every field of e: a field the entry does not carry is zeroed (Prev is
// NoLSN), so nothing of the entry e held before survives. The Pairs and
// GIDs lists reuse e's capacity, and Value aliases data, so all three
// are valid only until the next DecodeInto into e and while data is
// unchanged; a caller that keeps one copies it. On error e is left
// partly written.
func DecodeInto(f Format, data []byte, e *Entry) error {
	pairs, gids := e.Pairs[:0], e.GIDs[:0]
	*e = Entry{Prev: stablelog.NoLSN}
	r := decoder{data: data}
	gotF, err := r.byte()
	if err != nil {
		return err
	}
	if Format(gotF) != f {
		return fmt.Errorf("%w: format %d, want %d", ErrCorrupt, gotF, f)
	}
	k, err := r.byte()
	if err != nil {
		return err
	}
	e.Kind = Kind(k)
	switch e.Kind {
	case KindData:
		ot, err := r.byte()
		if err != nil {
			return err
		}
		e.ObjType = object.Kind(ot)
		if e.ObjType != object.KindAtomic && e.ObjType != object.KindMutex {
			return fmt.Errorf("%w: bad object type %d", ErrCorrupt, ot)
		}
		if f == Simple {
			u, err := r.uvarint()
			if err != nil {
				return err
			}
			e.UID = ids.UID(u)
			if e.AID, err = r.aid(); err != nil {
				return err
			}
		}
		if e.Value, err = r.bytes(); err != nil {
			return err
		}
	case KindPrepared:
		if e.AID, err = r.aid(); err != nil {
			return err
		}
		if f == Hybrid {
			if e.Pairs, err = r.pairs(pairs); err != nil {
				return err
			}
			if e.Prev, err = r.lsn(); err != nil {
				return err
			}
		}
	case KindCommitted, KindAborted, KindDone:
		if e.AID, err = r.aid(); err != nil {
			return err
		}
		if f == Hybrid {
			if e.Prev, err = r.lsn(); err != nil {
				return err
			}
		}
	case KindCommitting:
		if e.AID, err = r.aid(); err != nil {
			return err
		}
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(data)) {
			return ErrCorrupt
		}
		for i := uint64(0); i < n; i++ {
			g, err := r.uvarint()
			if err != nil {
				return err
			}
			gids = append(gids, ids.GuardianID(g))
		}
		if n > 0 {
			e.GIDs = gids
		}
		if f == Hybrid {
			if e.Prev, err = r.lsn(); err != nil {
				return err
			}
		}
	case KindBaseCommitted:
		u, err := r.uvarint()
		if err != nil {
			return err
		}
		e.UID = ids.UID(u)
		if e.Value, err = r.bytes(); err != nil {
			return err
		}
		if f == Hybrid {
			if e.Prev, err = r.lsn(); err != nil {
				return err
			}
		}
	case KindPreparedData:
		u, err := r.uvarint()
		if err != nil {
			return err
		}
		e.UID = ids.UID(u)
		if e.AID, err = r.aid(); err != nil {
			return err
		}
		if e.Value, err = r.bytes(); err != nil {
			return err
		}
		if f == Hybrid {
			if e.Prev, err = r.lsn(); err != nil {
				return err
			}
		}
	case KindCommittedSS:
		if e.Pairs, err = r.pairs(pairs); err != nil {
			return err
		}
		if e.Prev, err = r.lsn(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: unknown kind %d", ErrCorrupt, k)
	}
	if !r.done() {
		return fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	return nil
}

// String renders an entry in the thesis's tuple notation, e.g.
// ⟨O2, atomic, 12 bytes, T1.1⟩ or ⟨prepared, T1.1⟩.
func (e *Entry) String() string {
	var b strings.Builder
	b.WriteString("<")
	switch e.Kind {
	case KindData:
		if e.UID != ids.NoUID {
			fmt.Fprintf(&b, "%v, ", e.UID)
		}
		fmt.Fprintf(&b, "%v, %d bytes", e.ObjType, len(e.Value))
		if !e.AID.IsZero() {
			fmt.Fprintf(&b, ", %v", e.AID)
		}
	case KindBaseCommitted:
		fmt.Fprintf(&b, "bc, %v, %d bytes", e.UID, len(e.Value))
	case KindPreparedData:
		fmt.Fprintf(&b, "pd, %v, %d bytes, %v", e.UID, len(e.Value), e.AID)
	case KindCommitting:
		fmt.Fprintf(&b, "committing, %v, %v", e.GIDs, e.AID)
	case KindCommittedSS:
		fmt.Fprintf(&b, "committed_ss, %d pairs", len(e.Pairs))
	default:
		fmt.Fprintf(&b, "%v, %v", e.Kind, e.AID)
	}
	if len(e.Pairs) > 0 && e.Kind == KindPrepared {
		fmt.Fprintf(&b, ", %d pairs", len(e.Pairs))
	}
	if e.Prev != stablelog.NoLSN {
		fmt.Fprintf(&b, ", prev=%v", e.Prev)
	}
	b.WriteString(">")
	return b.String()
}

// --- low-level encoder/decoder ----------------------------------------

type encoder struct{ buf []byte }

func (w *encoder) byte(b byte)      { w.buf = append(w.buf, b) }
func (w *encoder) uvarint(x uint64) { w.buf = binary.AppendUvarint(w.buf, x) }

func (w *encoder) bytes(p []byte) {
	w.uvarint(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

func (w *encoder) aid(a ids.ActionID) {
	w.uvarint(uint64(a.Coordinator))
	w.uvarint(a.Seq)
}

func (w *encoder) pairs(ps []UIDLSN) {
	w.uvarint(uint64(len(ps)))
	for _, p := range ps {
		w.uvarint(uint64(p.UID))
		w.uvarint(lsnCode(p.Addr))
	}
}

type decoder struct {
	data []byte
	pos  int
}

func (r *decoder) done() bool { return r.pos == len(r.data) }

func (r *decoder) byte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, ErrCorrupt
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, ErrCorrupt
	}
	r.pos += n
	return x, nil
}

func (r *decoder) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)-r.pos) {
		return nil, ErrCorrupt
	}
	out := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *decoder) aid() (ids.ActionID, error) {
	c, err := r.uvarint()
	if err != nil {
		return ids.ActionID{}, err
	}
	s, err := r.uvarint()
	if err != nil {
		return ids.ActionID{}, err
	}
	return ids.ActionID{Coordinator: ids.GuardianID(c), Seq: s}, nil
}

func (r *decoder) lsn() (stablelog.LSN, error) {
	x, err := r.uvarint()
	if err != nil {
		return stablelog.NoLSN, err
	}
	return lsnDecode(x), nil
}

// pairs decodes a pair list into out's capacity (nil for an empty
// list).
func (r *decoder) pairs(out []UIDLSN) ([]UIDLSN, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)) {
		return nil, ErrCorrupt
	}
	if n == 0 {
		return nil, nil
	}
	out = slices.Grow(out[:0], int(n))
	for i := uint64(0); i < n; i++ {
		u, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		l, err := r.lsn()
		if err != nil {
			return nil, err
		}
		out = append(out, UIDLSN{UID: ids.UID(u), Addr: l})
	}
	return out, nil
}
