package hybridlog

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/logrec"
	"repro/internal/object"
	"repro/internal/simplelog"
	"repro/internal/stablelog"
	"repro/internal/value"
)

// Tables is the recovery result, as in the simple log, plus the hybrid
// log's extra state: the chain head (the last outcome entry, which a
// resumed Writer links its next outcome entry to) and the reconstructed
// mutex table for snapshot housekeeping (§5.2).
type Tables struct {
	PT     map[ids.ActionID]simplelog.PartState
	CT     map[ids.ActionID]simplelog.CoordInfo
	Heap   *object.Heap
	AS     *object.AccessSet
	PAT    *object.PAT
	MaxUID ids.UID
	// ChainHead is the address of the last outcome entry on the log.
	ChainHead stablelog.LSN
	// MT maps each mutex object to the address of the data entry holding
	// its latest prepared version.
	MT map[ids.UID]stablelog.LSN
	// OutcomesRead counts outcome entries processed; DataRead counts
	// data entries actually fetched. Hybrid recovery's advantage (§4.1)
	// is that OutcomesRead + DataRead ≪ total entries when most data is
	// superseded.
	OutcomesRead int
	DataRead     int
}

// otRow is an object-table row; for mutex objects it carries the log
// address of the copied version so the early-prepare comparison rule of
// §4.4 can prefer the later entry.
type otRow struct {
	kind     object.Kind
	state    simplelog.ObjState
	base     value.Value
	cur      value.Value
	writer   ids.ActionID
	mutexLSN stablelog.LSN
	// fromSS marks a version restored from a committed_ss entry.
	// Compaction writes stage-one entries in reverse chronological
	// order, so a prepared entry read *after* the committed_ss may carry
	// a version newer than the checkpoint's; such pairs override fromSS
	// rows, whereas the ordinary first-seen-wins rule applies otherwise.
	fromSS bool
}

type recovery struct {
	ot map[ids.UID]*otRow
	t  *Tables
	// data decodes the data entries prepared and committed_ss pairs
	// point at; the chain walk has its own reader, whose entry stays
	// live while its pairs are followed.
	data entryReader
}

// entryReader reads and decodes hybrid log entries into one reused
// payload buffer and Entry, so a scan allocates nothing per entry. The
// entry read returns, including the slices in it, is valid until the
// next read.
type entryReader struct {
	src entrySource
	buf []byte
	e   logrec.Entry
	// pairs and gids keep the largest list capacity seen: DecodeInto
	// reuses an entry's lists but drops them for an entry without one,
	// and a chain alternates kinds that carry a list with kinds that
	// do not.
	pairs []logrec.UIDLSN
	gids  []ids.GuardianID
}

// entrySource is a *stablelog.Log, or for recovery, which runs before
// anything else uses the log, a lock-free *stablelog.Reader.
type entrySource interface {
	ReadAppend(dst []byte, lsn stablelog.LSN) ([]byte, error)
}

func (er *entryReader) read(lsn stablelog.LSN) (*logrec.Entry, error) {
	var err error
	if er.buf, err = er.src.ReadAppend(er.buf[:0], lsn); err != nil {
		return nil, err
	}
	er.e.Pairs, er.e.GIDs = er.pairs[:0], er.gids[:0]
	if err := logrec.DecodeInto(logrec.Hybrid, er.buf, &er.e); err != nil {
		return nil, err
	}
	if cap(er.e.Pairs) > cap(er.pairs) {
		er.pairs = er.e.Pairs
	}
	if cap(er.e.GIDs) > cap(er.gids) {
		er.gids = er.e.GIDs
	}
	return &er.e, nil
}

// Recover reconstructs a guardian's stable state from its hybrid log by
// following the backward chain of outcome entries (§4.3.3).
func Recover(log *stablelog.Log) (*Tables, error) {
	top := log.Top()
	rd := log.NewReader()
	defer rd.Close()
	r := &recovery{
		ot: make(map[ids.UID]*otRow),
		t: &Tables{
			PT: make(map[ids.ActionID]simplelog.PartState),
			CT: make(map[ids.ActionID]simplelog.CoordInfo),
			MT: make(map[ids.UID]stablelog.LSN),
		},
		data: entryReader{src: rd},
	}
	// Find the last outcome entry: scan back over any trailing data
	// entries (early-prepared data whose action never prepared).
	head := stablelog.NoLSN
	var scan logrec.Entry
	err := rd.ReadBackward(top, func(lsn stablelog.LSN, payload []byte) bool {
		if logrec.DecodeInto(logrec.Hybrid, payload, &scan) != nil {
			return true // unreadable trailing bytes: keep scanning
		}
		if scan.Kind.IsOutcome() {
			head = lsn
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	r.t.ChainHead = head

	// Follow the chain.
	chain := entryReader{src: rd}
	for lsn := head; lsn != stablelog.NoLSN; {
		e, err := chain.read(lsn)
		if err != nil {
			return nil, fmt.Errorf("hybridlog: chain entry at %v: %w", lsn, err)
		}
		r.t.OutcomesRead++
		if err := r.process(e); err != nil {
			return nil, err
		}
		lsn = e.Prev
	}
	return r.finish()
}

func (r *recovery) process(e *logrec.Entry) error {
	switch e.Kind {
	case logrec.KindPrepared:
		state, known := r.t.PT[e.AID]
		if !known {
			state = simplelog.PartPrepared
			r.t.PT[e.AID] = state
		}
		return r.processPairs(e.AID, state, e.Pairs)

	case logrec.KindCommitted:
		if _, known := r.t.PT[e.AID]; !known {
			r.t.PT[e.AID] = simplelog.PartCommitted
		}

	case logrec.KindAborted:
		if _, known := r.t.PT[e.AID]; !known {
			r.t.PT[e.AID] = simplelog.PartAborted
		}

	case logrec.KindCommitting:
		if _, known := r.t.CT[e.AID]; !known {
			// e is the chain reader's reused entry: the table keeps a copy.
			r.t.CT[e.AID] = simplelog.CoordInfo{State: simplelog.CoordCommitting, GIDs: slices.Clone(e.GIDs)}
		}

	case logrec.KindDone:
		if _, known := r.t.CT[e.AID]; !known {
			r.t.CT[e.AID] = simplelog.CoordInfo{State: simplelog.CoordDone}
		}

	case logrec.KindBaseCommitted:
		r.applyBaseVersion(e.UID, e.Value, false)

	case logrec.KindPreparedData:
		switch r.t.PT[e.AID] {
		case simplelog.PartAborted:
			// discarded
		case simplelog.PartCommitted:
			// A surviving prepared_data entry whose action committed
			// after the checkpoint: newer than any committed_ss version.
			r.applyBaseVersion(e.UID, e.Value, true)
		default:
			if _, known := r.t.PT[e.AID]; !known {
				r.t.PT[e.AID] = simplelog.PartPrepared
			}
			if row, seen := r.ot[e.UID]; !seen {
				v, err := value.Unflatten(e.Value)
				if err != nil {
					return fmt.Errorf("hybridlog: prepared_data for %v: %w", e.UID, err)
				}
				r.ot[e.UID] = &otRow{
					kind:   object.KindAtomic,
					state:  simplelog.ObjPrepared,
					cur:    v,
					writer: e.AID,
				}
			} else if row.kind == object.KindAtomic && row.writer.IsZero() && row.cur == nil {
				v, err := value.Unflatten(e.Value)
				if err != nil {
					return fmt.Errorf("hybridlog: prepared_data for %v: %w", e.UID, err)
				}
				row.cur = v
				row.writer = e.AID
			}
		}

	case logrec.KindCommittedSS:
		// §5.1.2: treat as a commit and prepare of an anonymous action.
		return r.processCommittedSS(e.Pairs)

	default:
		return fmt.Errorf("hybridlog: unexpected %v entry on outcome chain", e.Kind)
	}
	return nil
}

// processPairs handles the ⟨uid, log address⟩ list of a prepared entry,
// dispatching on the action's (already known) final state.
func (r *recovery) processPairs(aid ids.ActionID, state simplelog.PartState, pairs []logrec.UIDLSN) error {
	for _, p := range pairs {
		row, seen := r.ot[p.UID]
		switch state {
		case simplelog.PartCommitted:
			if seen {
				if row.kind == object.KindMutex {
					if err := r.maybeCopyMutex(p); err != nil {
						return err
					}
					continue
				}
				if row.state == simplelog.ObjRestored && row.fromSS {
					// This pair belongs to an action that prepared
					// before the checkpoint and committed after it: its
					// version postdates the checkpoint's.
					v, kind, err := r.readData(p.Addr)
					if err != nil {
						return err
					}
					if kind == object.KindAtomic {
						row.base = v
						row.fromSS = false
					}
					continue
				}
				if row.state == simplelog.ObjPrepared {
					// The latest committed version: becomes the base of
					// the restored, still write-locked object.
					v, kind, err := r.readData(p.Addr)
					if err != nil {
						return err
					}
					if kind != object.KindAtomic {
						return fmt.Errorf("hybridlog: %v changed kind across entries", p.UID)
					}
					row.base = v
					row.state = simplelog.ObjRestored
				}
				continue
			}
			v, kind, err := r.readData(p.Addr)
			if err != nil {
				return err
			}
			nr := &otRow{kind: kind, state: simplelog.ObjRestored, base: v}
			if kind == object.KindMutex {
				nr.mutexLSN = p.Addr
			}
			r.ot[p.UID] = nr

		case simplelog.PartPrepared:
			if seen {
				if row.kind == object.KindMutex {
					if err := r.maybeCopyMutex(p); err != nil {
						return err
					}
					continue
				}
				if row.writer.IsZero() && row.cur == nil {
					// The row holds only a committed base (restored from
					// a checkpoint written while this action was
					// preparing); this pair supplies the in-progress
					// current version and the write lock.
					v, kind, err := r.readData(p.Addr)
					if err != nil {
						return err
					}
					if kind == object.KindAtomic {
						row.cur = v
						row.writer = aid
					}
				}
				continue
			}
			v, kind, err := r.readData(p.Addr)
			if err != nil {
				return err
			}
			if kind == object.KindAtomic {
				r.ot[p.UID] = &otRow{
					kind:   object.KindAtomic,
					state:  simplelog.ObjPrepared,
					cur:    v,
					writer: aid,
				}
			} else {
				r.ot[p.UID] = &otRow{
					kind:     object.KindMutex,
					state:    simplelog.ObjRestored,
					base:     v,
					mutexLSN: p.Addr,
				}
			}

		case simplelog.PartAborted:
			// Atomic versions are discarded; mutex versions written by
			// this prepared-then-aborted action are restored (§2.4.2).
			if seen {
				if row.kind == object.KindMutex {
					if err := r.maybeCopyMutex(p); err != nil {
						return err
					}
				}
				continue
			}
			// Unseen object: read the data entry to learn its kind.
			v, kind, err := r.readData(p.Addr)
			if err != nil {
				return err
			}
			if kind != object.KindMutex {
				continue
			}
			r.ot[p.UID] = &otRow{
				kind:     object.KindMutex,
				state:    simplelog.ObjRestored,
				base:     v,
				mutexLSN: p.Addr,
			}
		}
	}
	return nil
}

// maybeCopyMutex applies the early-prepare rule of §4.4: with data
// entries of different actions interleaved, a mutex version already in
// the OT may be older than the one this pair names; compare log
// addresses and keep the later.
func (r *recovery) maybeCopyMutex(p logrec.UIDLSN) error {
	row := r.ot[p.UID]
	if p.Addr <= row.mutexLSN {
		return nil
	}
	v, kind, err := r.readData(p.Addr)
	if err != nil {
		return err
	}
	if kind != object.KindMutex {
		return fmt.Errorf("hybridlog: %v changed kind across entries", p.UID)
	}
	row.base = v
	row.mutexLSN = p.Addr
	return nil
}

// processCommittedSS restores the committed stable state written by
// housekeeping: every pair is the latest committed version of one
// object (§5.1.2).
func (r *recovery) processCommittedSS(pairs []logrec.UIDLSN) error {
	for _, p := range pairs {
		if row, seen := r.ot[p.UID]; seen {
			if row.state == simplelog.ObjPrepared {
				v, kind, err := r.readData(p.Addr)
				if err != nil {
					return err
				}
				if kind == object.KindAtomic {
					row.base = v
					row.state = simplelog.ObjRestored
				}
			}
			continue
		}
		v, kind, err := r.readData(p.Addr)
		if err != nil {
			return err
		}
		nr := &otRow{kind: kind, state: simplelog.ObjRestored, base: v, fromSS: true}
		if kind == object.KindMutex {
			nr.mutexLSN = p.Addr
		}
		r.ot[p.UID] = nr
	}
	return nil
}

// readData follows a log address to a data entry and decodes its
// version.
func (r *recovery) readData(addr stablelog.LSN) (value.Value, object.Kind, error) {
	e, err := r.data.read(addr)
	if err != nil {
		return nil, 0, fmt.Errorf("hybridlog: data entry at %v: %w", addr, err)
	}
	if e.Kind != logrec.KindData {
		return nil, 0, fmt.Errorf("hybridlog: entry at %v is %v, want data", addr, e.Kind)
	}
	r.t.DataRead++
	v, err := value.Unflatten(e.Value)
	if err != nil {
		return nil, 0, fmt.Errorf("hybridlog: version at %v: %w", addr, err)
	}
	return v, e.ObjType, nil
}

func (r *recovery) applyBaseVersion(uid ids.UID, flat []byte, overrideSS bool) {
	if row, seen := r.ot[uid]; seen {
		if row.state == simplelog.ObjPrepared {
			if v, err := value.Unflatten(flat); err == nil {
				row.base = v
				row.state = simplelog.ObjRestored
			}
		} else if overrideSS && row.fromSS && row.kind == object.KindAtomic {
			if v, err := value.Unflatten(flat); err == nil {
				row.base = v
				row.fromSS = false
			}
		}
		return
	}
	v, err := value.Unflatten(flat)
	if err != nil {
		return
	}
	r.ot[uid] = &otRow{kind: object.KindAtomic, state: simplelog.ObjRestored, base: v}
}

// finish materializes objects, resolves references, rebuilds AS/PAT/MT.
func (r *recovery) finish() (*Tables, error) {
	heap := object.NewHeap()
	atomics := make(map[ids.UID]*object.Atomic)
	mutexes := make(map[ids.UID]*object.Mutex)
	var maxUID ids.UID
	//roslint:nondet order-independent: installs into keyed maps and the heap, whose readers sort (Heap.UIDs)
	for uid, row := range r.ot {
		if uid > maxUID {
			maxUID = uid
		}
		switch row.kind {
		case object.KindAtomic:
			a := object.RestoreAtomic(uid, row.base, row.cur, row.writer)
			atomics[uid] = a
			heap.Register(a)
		case object.KindMutex:
			m := object.NewMutex(uid, row.base)
			mutexes[uid] = m
			heap.Register(m)
			r.t.MT[uid] = row.mutexLSN
		}
	}
	lookup := func(u ids.UID) (value.Obj, bool) {
		o, ok := heap.Lookup(u)
		if !ok {
			return nil, false
		}
		return o, true
	}
	//roslint:nondet order-independent: per-object reference resolution, no cross-object effects
	for uid, row := range r.ot {
		switch row.kind {
		case object.KindAtomic:
			a := atomics[uid]
			if row.base != nil {
				nb, err := value.ResolveRefs(row.base, lookup)
				if err != nil {
					return nil, err
				}
				a.SetBase(nb)
			}
			if row.cur != nil && !row.writer.IsZero() {
				nc, err := value.ResolveRefs(row.cur, lookup)
				if err != nil {
					return nil, err
				}
				if err := a.Replace(row.writer, nc); err != nil {
					return nil, err
				}
			}
		case object.KindMutex:
			m := mutexes[uid]
			if row.base != nil {
				nv, err := value.ResolveRefs(row.base, lookup)
				if err != nil {
					return nil, err
				}
				m.SetCurrent(nv)
			}
		}
	}
	r.t.Heap = heap
	r.t.AS = heap.AccessibleSet()
	r.t.PAT = object.NewPAT()
	//roslint:nondet order-independent: installs into the PAT set, whose readers sort (PAT.Actions)
	for aid, st := range r.t.PT {
		if st == simplelog.PartPrepared {
			r.t.PAT.Add(aid)
		}
	}
	r.t.MaxUID = maxUID
	return r.t, nil
}
