package simplelog

import (
	"fmt"
	"slices"

	"repro/internal/ids"
	"repro/internal/logrec"
	"repro/internal/object"
	"repro/internal/stablelog"
	"repro/internal/value"
)

// PartState is a participant action state in the PT (§3.4.1).
type PartState uint8

const (
	// PartPrepared means the action prepared and awaits the verdict.
	PartPrepared PartState = iota + 1
	// PartCommitted means the action committed.
	PartCommitted
	// PartAborted means the action aborted.
	PartAborted
)

func (s PartState) String() string {
	switch s {
	case PartPrepared:
		return "prepared"
	case PartCommitted:
		return "committed"
	case PartAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// CoordState is a coordinator action state in the CT (§3.4.2, scenario 4).
type CoordState uint8

const (
	// CoordCommitting means phase two of two-phase commit was under way.
	CoordCommitting CoordState = iota + 1
	// CoordDone means two-phase commit completed.
	CoordDone
)

func (s CoordState) String() string {
	switch s {
	case CoordCommitting:
		return "committing"
	case CoordDone:
		return "done"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// CoordInfo is a CT row: the state plus, for committing, the guardians
// participating in the action.
type CoordInfo struct {
	State CoordState
	GIDs  []ids.GuardianID
}

// ObjState is an object state in the OT.
type ObjState uint8

const (
	// ObjPrepared: the restored current version was written by an action
	// that prepared but had not committed; the latest committed version
	// (the base) is still owed.
	ObjPrepared ObjState = iota + 1
	// ObjRestored: the object is fully restored.
	ObjRestored
)

// Tables is what recovery returns to the Argus system (§3.4.1 step 5):
// the participant table, the coordinator table, and — standing in for
// the OT's "vm addresses" — the reconstructed volatile heap, plus the
// rebuilt accessibility set, prepared actions table, and the largest
// UID seen (to which the stable counter is reset).
type Tables struct {
	PT     map[ids.ActionID]PartState
	CT     map[ids.ActionID]CoordInfo
	Heap   *object.Heap
	AS     *object.AccessSet
	PAT    *object.PAT
	MaxUID ids.UID
	// EntriesRead counts log entries processed, the cost measure that
	// separates the simple log from the hybrid log (§4.1).
	EntriesRead int
}

// otRow is the object table row built during the backward scan; objects
// are materialized only after the scan, then reference-resolved.
type otRow struct {
	kind   object.Kind
	state  ObjState
	base   value.Value // atomic: base version; mutex: the single version
	cur    value.Value // atomic with writer: in-progress version
	writer ids.ActionID
}

// Recover reconstructs a guardian's stable state from its simple log
// after a crash, per the general recovery algorithm of §3.4.4.
func Recover(log *stablelog.Log) (*Tables, error) {
	r := &recovery{
		ot: make(map[ids.UID]*otRow),
		t: &Tables{
			PT: make(map[ids.ActionID]PartState),
			CT: make(map[ids.ActionID]CoordInfo),
		},
	}
	// Every entry decodes into e, over the borrowed payload: process
	// copies what it keeps (Unflatten copies a version's bytes).
	var e logrec.Entry
	rd := log.NewReader()
	defer rd.Close()
	err := rd.ReadBackward(log.Top(), func(lsn stablelog.LSN, payload []byte) bool {
		if derr := logrec.DecodeInto(logrec.Simple, payload, &e); derr != nil {
			r.err = fmt.Errorf("simplelog: entry at %v: %w", lsn, derr)
			return false
		}
		r.t.EntriesRead++
		r.process(&e)
		return r.err == nil
	})
	if err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return r.finish()
}

type recovery struct {
	ot  map[ids.UID]*otRow
	t   *Tables
	err error
}

// process handles one log entry during the backward scan (§3.4.4 step 2).
func (r *recovery) process(e *logrec.Entry) {
	switch e.Kind {
	case logrec.KindPrepared:
		// 2.a: keep only the latest verdict.
		if _, known := r.t.PT[e.AID]; !known {
			r.t.PT[e.AID] = PartPrepared
		}

	case logrec.KindCommitted:
		// 2.b. Reading backward, the verdict is seen before the prepare.
		if _, known := r.t.PT[e.AID]; !known {
			r.t.PT[e.AID] = PartCommitted
		}

	case logrec.KindAborted:
		// 2.c.
		if _, known := r.t.PT[e.AID]; !known {
			r.t.PT[e.AID] = PartAborted
		}

	case logrec.KindBaseCommitted:
		// 2.d: a base version for a newly accessible atomic object.
		r.applyBaseVersion(e.UID, e.Value)

	case logrec.KindPreparedData:
		// 2.e: a current version written on behalf of another action
		// that had prepared when the entry was written.
		switch r.t.PT[e.AID] {
		case PartAborted:
			// 2.e.i: discarded.
		case PartCommitted:
			// 2.e.i: the action committed, so this version is the latest
			// committed one; it plays the base-version role.
			r.applyBaseVersion(e.UID, e.Value)
		case PartPrepared:
			// Verdict arrived between this entry and the crash? A
			// prepared outcome later in the log put the action in the
			// PT; treat like the unknown case below.
			fallthrough
		default:
			// 2.e.ii: no verdict on the log — the action is still
			// prepared (its prepared entry appears earlier in the log).
			if _, known := r.t.PT[e.AID]; !known {
				r.t.PT[e.AID] = PartPrepared
			}
			if _, seen := r.ot[e.UID]; !seen {
				v, err := r.unflatten(e.Value)
				if err != nil {
					return
				}
				r.ot[e.UID] = &otRow{
					kind:   object.KindAtomic,
					state:  ObjPrepared,
					cur:    v,
					writer: e.AID,
				}
			}
		}

	case logrec.KindCommitting:
		// 2.f.
		if _, known := r.t.CT[e.AID]; !known {
			r.t.CT[e.AID] = CoordInfo{State: CoordCommitting, GIDs: slices.Clone(e.GIDs)}
		}

	case logrec.KindDone:
		// 2.g.
		if _, known := r.t.CT[e.AID]; !known {
			r.t.CT[e.AID] = CoordInfo{State: CoordDone}
		}

	case logrec.KindData:
		r.processData(e)

	case logrec.KindCommittedSS:
		r.err = fmt.Errorf("simplelog: committed_ss entry in a simple log")

	default:
		r.err = fmt.Errorf("simplelog: unknown entry kind %v", e.Kind)
	}
}

// processData handles a data entry per §3.4.4 step 2.h.
func (r *recovery) processData(e *logrec.Entry) {
	state, known := r.t.PT[e.AID]
	if !known {
		// The action never reached an outcome entry: it was wiped out by
		// the crash mid-prepare and will abort; its versions are
		// discarded (§2.2.3).
		return
	}
	switch state {
	case PartCommitted:
		// 2.h.i.
		if row, seen := r.ot[e.UID]; seen {
			if row.state == ObjPrepared && e.ObjType == object.KindAtomic {
				v, err := r.unflatten(e.Value)
				if err != nil {
					return
				}
				row.base = v
				row.state = ObjRestored
			}
			// Restored (or mutex): a later version was already copied.
			return
		}
		v, err := r.unflatten(e.Value)
		if err != nil {
			return
		}
		r.ot[e.UID] = &otRow{kind: e.ObjType, state: ObjRestored, base: v}

	case PartPrepared:
		// 2.h.ii.
		if _, seen := r.ot[e.UID]; seen {
			return
		}
		v, err := r.unflatten(e.Value)
		if err != nil {
			return
		}
		if e.ObjType == object.KindAtomic {
			// The action held the write lock at the crash; it is granted
			// the write lock again and the version becomes the current
			// version. The base version is owed by an earlier entry.
			r.ot[e.UID] = &otRow{
				kind:   object.KindAtomic,
				state:  ObjPrepared,
				cur:    v,
				writer: e.AID,
			}
		} else {
			// Mutex versions written by prepared actions are restored
			// outright (§2.4.2).
			r.ot[e.UID] = &otRow{kind: object.KindMutex, state: ObjRestored, base: v}
		}

	case PartAborted:
		// 2.h.iii: atomic versions of aborted actions are discarded, but
		// a mutex version written by a *prepared* (later aborted) action
		// is the current version and must be restored.
		if e.ObjType != object.KindMutex {
			return
		}
		if _, seen := r.ot[e.UID]; seen {
			return
		}
		v, err := r.unflatten(e.Value)
		if err != nil {
			return
		}
		r.ot[e.UID] = &otRow{kind: object.KindMutex, state: ObjRestored, base: v}
	}
}

// applyBaseVersion installs a committed (base) version for an atomic
// object, per the base_committed rules of §3.4.4 step 2.d.
func (r *recovery) applyBaseVersion(uid ids.UID, flat []byte) {
	if row, seen := r.ot[uid]; seen {
		if row.state == ObjPrepared {
			v, err := r.unflatten(flat)
			if err != nil {
				return
			}
			row.base = v
			row.state = ObjRestored
		}
		return
	}
	v, err := r.unflatten(flat)
	if err != nil {
		return
	}
	r.ot[uid] = &otRow{kind: object.KindAtomic, state: ObjRestored, base: v}
}

func (r *recovery) unflatten(flat []byte) (value.Value, error) {
	v, err := value.Unflatten(flat)
	if err != nil {
		r.err = fmt.Errorf("simplelog: corrupt object version: %w", err)
	}
	return v, err
}

// finish materializes the objects, resolves UID references (§3.4.3),
// rebuilds the AS and PAT, and returns the tables (§3.4.4 steps 3-5).
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
		}
	}

	// Final pass over volatile memory: replace uid references with
	// references to the restored objects.
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

	// Rebuild the accessibility set by traversing the restored stable
	// state, and the PAT from the PT.
	r.t.Heap = heap
	r.t.AS = heap.AccessibleSet()
	r.t.PAT = object.NewPAT()
	//roslint:nondet order-independent: installs into the PAT set, whose readers sort (PAT.Actions)
	for aid, st := range r.t.PT {
		if st == PartPrepared {
			r.t.PAT.Add(aid)
		}
	}
	r.t.MaxUID = maxUID
	return r.t, nil
}
