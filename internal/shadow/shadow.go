// Package shadow implements the shadowed-objects organization of
// stable storage described in thesis §1.2.1 (Figure 1-1), as the
// baseline the hybrid log is compared against.
//
// Storage is organized as a version area plus a map. New object
// versions are written to the version area without overwriting the old
// versions; the map associates each object UID with the location of its
// current version. When an action commits, a complete new map is
// written and installed "in one atomic step" (a root-page switch), so
// every commit pays a cost proportional to the number of live objects —
// the scheme's characteristic slow write. After a crash, recovery reads
// the root page, the map, and only the short suffix of version-area
// records written after the map (the distributed-commit intentions of
// §1.2.1: "if the data an action manipulates is distributed ... a log
// is also required"), so recovery is fast. Because recovery stops at
// the installed map, every map carries forward the intentions still
// live when it is installed — prepared actions awaiting a verdict and
// committing records awaiting done — which would otherwise vanish
// behind it.
//
// The version area is itself a stable log (append-only), and the map is
// appended to it as an ordinary entry; installing a map writes its
// address to the root page. Mutex objects follow Argus semantics: their
// prepared versions are installed at the next map write and restored
// from the live intentions meanwhile; of several versions of one mutex
// the latest written (highest address) wins.
//
// Shadowing does not participate in group commit: each outcome rewrites
// and installs the whole map, and the root-page switch serializes with
// the map write, so there is no append-only suffix that concurrent
// committers could cover with one shared force. All forces here stay
// synchronous — which is exactly the §1.2.1 write cost the log
// organizations are measured against.
package shadow

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/stablelog"
	"repro/internal/value"
)

// record kinds in the version area.
const (
	recVersion byte = iota + 1
	recPrepared
	recAborted
	recCommitting
	recDone
	recMap
)

// mapEntry is one row of the object map.
type mapEntry struct {
	Addr stablelog.LSN
	Kind object.Kind
}

// install is one pending map update from a prepared action.
type install struct {
	uid  ids.UID
	addr stablelog.LSN
	kind object.Kind
}

// Store is one guardian's shadow-organized stable storage.
type Store struct {
	mu   sync.Mutex
	vs   *stablelog.Log // version area
	root *stable.Store  // root page: address of the installed map
	heap *object.Heap
	as   *object.AccessSet
	pat  *object.PAT

	table   map[ids.UID]mapEntry // the installed map (volatile copy)
	pending map[ids.ActionID][]install
	// committing holds the coordinator records not yet closed by done;
	// with pending, what every map install carries forward.
	committing map[ids.ActionID][]ids.GuardianID

	// MapWrites counts full map writes (the cost that makes shadowing
	// slow, §1.2.1: "rewriting the map at every action commit ... could
	// be expensive").
	MapWrites int

	tr obs.Tracer // guarded by mu
}

// New creates a shadow store over a fresh version-area log and root
// store.
func New(vs *stablelog.Log, root *stable.Store, heap *object.Heap) *Store {
	return &Store{
		vs:         vs,
		root:       root,
		heap:       heap,
		as:         object.NewAccessSet(),
		pat:        object.NewPAT(),
		table:      make(map[ids.UID]mapEntry),
		pending:    make(map[ids.ActionID][]install),
		committing: make(map[ids.ActionID][]ids.GuardianID),
	}
}

// SetTracer installs (or, with nil, removes) the store's event tracer
// and forwards it to the version-area log. Shadowing holds the store
// lock across its forces by design — each outcome rewrites and installs
// the whole map, so there is no split append/await path to bracket —
// and therefore emits no crit.enter/crit.exit events: the checker's
// lock-discipline rule deliberately does not apply here.
func (s *Store) SetTracer(tr obs.Tracer) {
	s.mu.Lock()
	s.tr = tr
	s.mu.Unlock()
	s.vs.SetTracer(tr)
}

// emitOutcome reports one outcome record that has already been forced;
// callers hold s.mu. Append and durable are emitted back to back
// because shadowing has no window between them: ForceWrite returns only
// after the force covers the record.
func (s *Store) emitOutcome(code obs.OutcomeKind, aid ids.ActionID, lsn stablelog.LSN) {
	if s.tr == nil {
		return
	}
	s.tr.Emit(obs.Event{Kind: obs.KindOutcomeAppend, Code: uint8(code), AID: aid, LSN: uint64(lsn)})
	s.tr.Emit(obs.Event{Kind: obs.KindOutcomeDurable, Code: uint8(code), AID: aid, LSN: uint64(lsn)})
}

// Heap returns the volatile heap the store serves.
func (s *Store) Heap() *object.Heap { return s.heap }

// PAT returns the prepared actions table.
func (s *Store) PAT() *object.PAT { return s.pat }

// AS returns the accessibility set.
func (s *Store) AS() *object.AccessSet { return s.as }

// Log returns the version-area log (for size accounting in benchmarks).
func (s *Store) Log() *stablelog.Log { return s.vs }

// Prepare writes new versions of the accessible objects in mos to the
// version area, then a prepared record listing them, and forces both.
// The map is untouched: the versions shadow the installed ones.
func (s *Store) Prepare(aid ids.ActionID, mos object.MOS) error {
	s.mu.Lock()
	defer s.mu.Unlock()

	work := make([]object.Recoverable, 0, len(mos))
	queued := make(map[ids.UID]bool)
	if s.as.Len() == 0 {
		if rootObj, ok := s.heap.StableVars(); ok {
			work = append(work, rootObj)
			queued[rootObj.UID()] = true
		}
	}
	for _, obj := range mos {
		if s.as.Contains(obj.UID()) && !queued[obj.UID()] {
			work = append(work, obj)
			queued[obj.UID()] = true
		}
	}
	var installs []install
	for len(work) > 0 {
		obj := work[0]
		work = work[1:]
		visit := func(ref value.Obj) {
			nobj, ok := ref.(object.Recoverable)
			if !ok || queued[nobj.UID()] || s.as.Contains(nobj.UID()) {
				return
			}
			queued[nobj.UID()] = true
			work = append(work, nobj)
		}
		var flat []byte
		var kind object.Kind
		switch o := obj.(type) {
		case *object.Atomic:
			// For simplicity the shadow baseline writes the version
			// visible to the preparing action; a newly accessible
			// object's single version is its base.
			flat = o.SnapshotFor(aid, visit)
			kind = object.KindAtomic
		case *object.Mutex:
			flat = o.Snapshot(visit)
			kind = object.KindMutex
		default:
			return fmt.Errorf("shadow: unknown recoverable %T", obj)
		}
		addr, err := s.vs.Write(encodeVersion(flat, kind))
		if err != nil {
			return err
		}
		installs = append(installs, install{uid: obj.UID(), addr: addr, kind: kind})
		s.as.Add(obj.UID())
	}
	lsn, err := s.vs.ForceWrite(encodePrepared(aid, installs))
	if err != nil {
		return err
	}
	s.pending[aid] = installs
	s.pat.Add(aid)
	s.emitOutcome(obs.OutcomePrepared, aid, lsn)
	return nil
}

// Commit installs the action's shadowed versions: the map is updated,
// written out in full to the version area, and switched to by a single
// root-page write (§1.2.1: "making a new map ..., writing the map to
// stable storage, and then switching from the old map to the new map in
// one atomic step").
func (s *Store) Commit(aid ids.ActionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.pending[aid] {
		s.installLocked(in)
	}
	delete(s.pending, aid)
	s.pat.Remove(aid)
	lsn, err := s.writeMapLocked()
	if err != nil {
		return err
	}
	s.emitOutcome(obs.OutcomeCommitted, aid, lsn)
	return nil
}

// Abort discards the shadowed versions; atomic versions die, but mutex
// versions written by this prepared action must survive (§2.4.2), so
// they are installed into the map.
func (s *Store) Abort(aid ids.ActionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var mutexInstalled bool
	for _, in := range s.pending[aid] {
		if in.kind == object.KindMutex {
			s.installLocked(in)
			mutexInstalled = true
		}
	}
	delete(s.pending, aid)
	s.pat.Remove(aid)
	var lsn stablelog.LSN
	var err error
	if mutexInstalled {
		lsn, err = s.writeMapLocked()
	} else {
		lsn, err = s.vs.ForceWrite(encodeOutcome(recAborted, aid, nil))
	}
	if err != nil {
		return err
	}
	s.emitOutcome(obs.OutcomeAborted, aid, lsn)
	return nil
}

// Committing records the coordinator's commit decision.
func (s *Store) Committing(aid ids.ActionID, gids []ids.GuardianID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn, err := s.vs.ForceWrite(encodeOutcome(recCommitting, aid, gids))
	if err != nil {
		return err
	}
	s.committing[aid] = gids
	s.emitOutcome(obs.OutcomeCommitting, aid, lsn)
	return nil
}

// Done records the end of two-phase commit.
func (s *Store) Done(aid ids.ActionID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn, err := s.vs.ForceWrite(encodeOutcome(recDone, aid, nil))
	if err != nil {
		return err
	}
	delete(s.committing, aid)
	s.emitOutcome(obs.OutcomeDone, aid, lsn)
	return nil
}

// installLocked points the map at an action's version. A mutex entry
// only moves forward: prepared actions' mutex versions are decided in
// any order, and the latest written (highest address) is the value.
func (s *Store) installLocked(in install) {
	if cur, ok := s.table[in.uid]; ok && in.kind == object.KindMutex && cur.Addr > in.addr {
		return
	}
	s.table[in.uid] = mapEntry{Addr: in.addr, Kind: in.kind}
}

// writeMapLocked serializes the whole map with the live intentions,
// appends it to the version area, forces it, and atomically installs it
// via the root page. It returns the map record's address.
func (s *Store) writeMapLocked() (stablelog.LSN, error) {
	lsn, err := s.vs.ForceWrite(encodeMap(s.table, s.pending, s.committing))
	if err != nil {
		return stablelog.NoLSN, err
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(lsn))
	if err := s.root.WritePage(0, buf[:]); err != nil {
		return stablelog.NoLSN, err
	}
	s.MapWrites++
	return lsn, nil
}

// TrimAS trims the accessibility set (§3.3.3.2), as in the log
// schemes.
func (s *Store) TrimAS() {
	fresh := s.heap.AccessibleSet()
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh.Intersect(s.as)
	s.as.ReplaceWith(fresh)
}

// MapSize returns the number of installed objects.
func (s *Store) MapSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// Tables is the result of shadow recovery.
type Tables struct {
	Heap *object.Heap
	AS   *object.AccessSet
	PAT  *object.PAT
	// Prepared lists actions whose versions are shadowed but whose
	// verdict is unknown.
	Prepared map[ids.ActionID]bool
	// Committing/Done mirror the coordinator tables.
	Committing map[ids.ActionID][]ids.GuardianID
	Done       map[ids.ActionID]bool
	// EntriesRead counts version-area records read during recovery: the
	// map plus the post-map suffix only.
	EntriesRead int
	MaxUID      ids.UID
}

// Recover reconstructs the stable state: read the root page, the map it
// points at, every version the map references, and the intentions —
// those the map carried, then the suffix after it.
func Recover(vs *stablelog.Log, root *stable.Store) (*Tables, *Store, error) {
	t := &Tables{
		Prepared:   make(map[ids.ActionID]bool),
		Committing: make(map[ids.ActionID][]ids.GuardianID),
		Done:       make(map[ids.ActionID]bool),
	}
	heap := object.NewHeap()

	rootPage, err := root.ReadPage(0)
	if err != nil {
		return nil, nil, err
	}
	top := vs.Top()
	rd := vs.NewReader()
	defer rd.Close()
	table := make(map[ids.UID]mapEntry)
	var carried [][]byte
	mapLSN := stablelog.NoLSN
	if len(rootPage) >= 8 {
		mapLSN = stablelog.LSN(binary.LittleEndian.Uint64(rootPage[:8]))
		payload, err := rd.ReadAppend(nil, mapLSN)
		if err != nil {
			return nil, nil, fmt.Errorf("shadow: installed map unreadable: %w", err)
		}
		t.EntriesRead++
		table, carried, err = decodeMap(payload)
		if err != nil {
			return nil, nil, err
		}
	}

	// Collect the intentions, newest first: prepared records whose
	// verdict never arrived, plus coordinator records. The suffix after
	// the map is read backward until the map entry; the intentions the
	// map carried are older than all of it.
	type prep struct {
		aid      ids.ActionID
		installs []install
	}
	var suffix []prep
	aborted := make(map[ids.ActionID]bool)
	visit := func(payload []byte) {
		switch payload[0] {
		case recPrepared:
			aid, installs, err := decodePrepared(payload)
			if err == nil && !aborted[aid] {
				suffix = append(suffix, prep{aid: aid, installs: installs})
			}
		case recAborted:
			aid, _, err := decodeOutcome(payload)
			if err == nil {
				aborted[aid] = true
			}
		case recCommitting:
			aid, gids, err := decodeOutcome(payload)
			if err == nil {
				if _, known := t.Done[aid]; !known {
					if _, dup := t.Committing[aid]; !dup {
						t.Committing[aid] = gids
					}
				}
			}
		case recDone:
			aid, _, err := decodeOutcome(payload)
			if err == nil {
				t.Done[aid] = true
				delete(t.Committing, aid)
			}
		case recMap:
			// A newer map that was written but never installed (crash
			// between the map force and the root-page write): its
			// transaction will be replayed from the prepared records,
			// or re-committed by the resumed guardian; skip it.
		}
	}
	// visit decodes what it keeps (aids, installs, gids) out of the
	// borrowed payload, so the scan holds none of it.
	err = rd.ReadBackward(top, func(lsn stablelog.LSN, payload []byte) bool {
		if lsn == mapLSN {
			return false
		}
		if len(payload) > 0 {
			t.EntriesRead++
			visit(payload)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	for i := len(carried) - 1; i >= 0; i-- {
		visit(carried[i])
	}

	// Materialize installed objects.
	restored := make(map[ids.UID]object.Recoverable)
	mutexAt := make(map[ids.UID]stablelog.LSN) // address of each mutex's restored version
	// Every version record is read into buf in turn.
	var buf []byte
	for uid, me := range table {
		var v value.Value
		v, buf, err = readVersion(rd, buf, me.Addr, t)
		if err != nil {
			return nil, nil, err
		}
		var obj object.Recoverable
		if me.Kind == object.KindAtomic {
			obj = object.RestoreAtomic(uid, v, nil, ids.ActionID{})
		} else {
			obj = object.NewMutex(uid, v)
			mutexAt[uid] = me.Addr
		}
		restored[uid] = obj
		heap.Register(obj)
	}
	// Apply prepared intentions, oldest first: atomic versions become
	// write-locked current versions; a mutex takes its latest version.
	for i := len(suffix) - 1; i >= 0; i-- {
		p := suffix[i]
		t.Prepared[p.aid] = true
		for _, in := range p.installs {
			var v value.Value
			v, buf, err = readVersion(rd, buf, in.addr, t)
			if err != nil {
				return nil, nil, err
			}
			switch in.kind {
			case object.KindMutex:
				if m, ok := restored[in.uid].(*object.Mutex); ok && in.addr > mutexAt[in.uid] {
					m.SetCurrent(v)
					mutexAt[in.uid] = in.addr
				} else if _, ok := restored[in.uid]; !ok {
					m := object.NewMutex(in.uid, v)
					restored[in.uid] = m
					mutexAt[in.uid] = in.addr
					heap.Register(m)
				}
			case object.KindAtomic:
				if a, ok := restored[in.uid].(*object.Atomic); ok {
					if a.Writer().IsZero() {
						if err := restoreCurrent(a, v, p.aid); err != nil {
							return nil, nil, err
						}
					}
				} else if _, ok := restored[in.uid]; !ok {
					a := object.RestoreAtomic(in.uid, nil, v, p.aid)
					restored[in.uid] = a
					heap.Register(a)
				}
			}
		}
	}

	// Resolve references.
	lookup := func(u ids.UID) (value.Obj, bool) {
		o, ok := heap.Lookup(u)
		if !ok {
			return nil, false
		}
		return o, true
	}
	var maxUID ids.UID
	for uid, obj := range restored {
		if uid > maxUID {
			maxUID = uid
		}
		switch x := obj.(type) {
		case *object.Atomic:
			if b := x.Base(); b != nil {
				nb, err := value.ResolveRefs(b, lookup)
				if err != nil {
					return nil, nil, err
				}
				x.SetBase(nb)
			}
			if c, ok := x.Current(); ok && c != nil {
				nc, err := value.ResolveRefs(c, lookup)
				if err != nil {
					return nil, nil, err
				}
				if err := x.Replace(x.Writer(), nc); err != nil {
					return nil, nil, err
				}
			}
		case *object.Mutex:
			if c := x.Current(); c != nil {
				nv, err := value.ResolveRefs(c, lookup)
				if err != nil {
					return nil, nil, err
				}
				x.SetCurrent(nv)
			}
		}
	}

	t.Heap = heap
	t.AS = heap.AccessibleSet()
	t.PAT = object.NewPAT()
	t.MaxUID = maxUID

	// Build a resumed store.
	s := New(vs, root, heap)
	s.table = table
	s.as = t.AS
	for aid := range t.Prepared {
		t.PAT.Add(aid)
		s.pat.Add(aid)
	}
	for i := len(suffix) - 1; i >= 0; i-- {
		s.pending[suffix[i].aid] = suffix[i].installs
	}
	for aid, gids := range t.Committing {
		s.committing[aid] = gids
	}
	return t, s, nil
}

// restoreCurrent grants aid a write lock on a restored atomic and sets
// its current version.
func restoreCurrent(a *object.Atomic, v value.Value, aid ids.ActionID) error {
	if err := a.AcquireWrite(aid); err != nil {
		return err
	}
	return a.Replace(aid, v)
}

// readVersion reads and unflattens the version record at addr. The
// record is read into buf, which is returned for the next call to
// reuse; the value does not alias it.
func readVersion(rd *stablelog.Reader, buf []byte, addr stablelog.LSN, t *Tables) (value.Value, []byte, error) {
	buf, err := rd.ReadAppend(buf[:0], addr)
	if err != nil {
		return nil, buf, fmt.Errorf("shadow: version at %v: %w", addr, err)
	}
	t.EntriesRead++
	flat, _, err := decodeVersion(buf)
	if err != nil {
		return nil, buf, err
	}
	v, err := value.Unflatten(flat)
	return v, buf, err
}

// --- record codecs -----------------------------------------------------

func encodeVersion(flat []byte, kind object.Kind) []byte {
	out := make([]byte, 0, len(flat)+2)
	out = append(out, recVersion, byte(kind))
	return append(out, flat...)
}

func decodeVersion(p []byte) ([]byte, object.Kind, error) {
	if len(p) < 2 || p[0] != recVersion {
		return nil, 0, fmt.Errorf("shadow: bad version record")
	}
	return p[2:], object.Kind(p[1]), nil
}

func encodePrepared(aid ids.ActionID, installs []install) []byte {
	out := []byte{recPrepared}
	out = binary.AppendUvarint(out, uint64(aid.Coordinator))
	out = binary.AppendUvarint(out, aid.Seq)
	out = binary.AppendUvarint(out, uint64(len(installs)))
	for _, in := range installs {
		out = binary.AppendUvarint(out, uint64(in.uid))
		out = binary.AppendUvarint(out, uint64(in.addr))
		out = append(out, byte(in.kind))
	}
	return out
}

func decodePrepared(p []byte) (ids.ActionID, []install, error) {
	if len(p) < 1 || p[0] != recPrepared {
		return ids.ActionID{}, nil, fmt.Errorf("shadow: bad prepared record")
	}
	buf := p[1:]
	var aid ids.ActionID
	c, n := binary.Uvarint(buf)
	if n <= 0 {
		return aid, nil, fmt.Errorf("shadow: bad prepared record")
	}
	buf = buf[n:]
	aid.Coordinator = ids.GuardianID(c)
	sq, n := binary.Uvarint(buf)
	if n <= 0 {
		return aid, nil, fmt.Errorf("shadow: bad prepared record")
	}
	buf = buf[n:]
	aid.Seq = sq
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return aid, nil, fmt.Errorf("shadow: bad prepared record")
	}
	buf = buf[n:]
	installs := make([]install, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		u, n := binary.Uvarint(buf)
		if n <= 0 {
			return aid, nil, fmt.Errorf("shadow: bad prepared record")
		}
		buf = buf[n:]
		a, n := binary.Uvarint(buf)
		if n <= 0 {
			return aid, nil, fmt.Errorf("shadow: bad prepared record")
		}
		buf = buf[n:]
		if len(buf) < 1 {
			return aid, nil, fmt.Errorf("shadow: bad prepared record")
		}
		k := object.Kind(buf[0])
		buf = buf[1:]
		installs = append(installs, install{uid: ids.UID(u), addr: stablelog.LSN(a), kind: k})
	}
	return aid, installs, nil
}

func encodeOutcome(kind byte, aid ids.ActionID, gids []ids.GuardianID) []byte {
	out := []byte{kind}
	out = binary.AppendUvarint(out, uint64(aid.Coordinator))
	out = binary.AppendUvarint(out, aid.Seq)
	out = binary.AppendUvarint(out, uint64(len(gids)))
	for _, g := range gids {
		out = binary.AppendUvarint(out, uint64(g))
	}
	return out
}

func decodeOutcome(p []byte) (ids.ActionID, []ids.GuardianID, error) {
	if len(p) < 1 {
		return ids.ActionID{}, nil, fmt.Errorf("shadow: empty record")
	}
	buf := p[1:]
	var aid ids.ActionID
	c, n := binary.Uvarint(buf)
	if n <= 0 {
		return aid, nil, fmt.Errorf("shadow: bad outcome record")
	}
	buf = buf[n:]
	aid.Coordinator = ids.GuardianID(c)
	sq, n := binary.Uvarint(buf)
	if n <= 0 {
		return aid, nil, fmt.Errorf("shadow: bad outcome record")
	}
	buf = buf[n:]
	aid.Seq = sq
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return aid, nil, fmt.Errorf("shadow: bad outcome record")
	}
	buf = buf[n:]
	var gids []ids.GuardianID
	for i := uint64(0); i < cnt; i++ {
		g, n := binary.Uvarint(buf)
		if n <= 0 {
			return aid, nil, fmt.Errorf("shadow: bad outcome record")
		}
		buf = buf[n:]
		gids = append(gids, ids.GuardianID(g))
	}
	return aid, gids, nil
}

// encodeMap serializes the table, then the live intentions as embedded
// prepared and committing records, each kind in aid order.
func encodeMap(table map[ids.UID]mapEntry, pending map[ids.ActionID][]install, committing map[ids.ActionID][]ids.GuardianID) []byte {
	uids := make([]ids.UID, 0, len(table))
	for u := range table {
		uids = append(uids, u)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	out := []byte{recMap}
	out = binary.AppendUvarint(out, uint64(len(uids)))
	for _, u := range uids {
		me := table[u]
		out = binary.AppendUvarint(out, uint64(u))
		out = binary.AppendUvarint(out, uint64(me.Addr))
		out = append(out, byte(me.Kind))
	}
	var carried [][]byte
	for _, aid := range sortedAIDs(pending) {
		carried = append(carried, encodePrepared(aid, pending[aid]))
	}
	for _, aid := range sortedAIDs(committing) {
		carried = append(carried, encodeOutcome(recCommitting, aid, committing[aid]))
	}
	out = binary.AppendUvarint(out, uint64(len(carried)))
	for _, rec := range carried {
		out = binary.AppendUvarint(out, uint64(len(rec)))
		out = append(out, rec...)
	}
	return out
}

// decodeMap returns the table and the carried intention records.
func decodeMap(p []byte) (map[ids.UID]mapEntry, [][]byte, error) {
	bad := fmt.Errorf("shadow: bad map record")
	if len(p) < 1 || p[0] != recMap {
		return nil, nil, bad
	}
	buf := p[1:]
	cnt, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, bad
	}
	buf = buf[n:]
	table := make(map[ids.UID]mapEntry, cnt)
	for i := uint64(0); i < cnt; i++ {
		u, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, nil, bad
		}
		buf = buf[n:]
		a, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, nil, bad
		}
		buf = buf[n:]
		if len(buf) < 1 {
			return nil, nil, bad
		}
		table[ids.UID(u)] = mapEntry{Addr: stablelog.LSN(a), Kind: object.Kind(buf[0])}
		buf = buf[1:]
	}
	cnt, n = binary.Uvarint(buf)
	if n <= 0 {
		return nil, nil, bad
	}
	buf = buf[n:]
	var carried [][]byte
	for i := uint64(0); i < cnt; i++ {
		l, n := binary.Uvarint(buf)
		if n <= 0 || l == 0 || l > uint64(len(buf)-n) {
			return nil, nil, bad
		}
		rec := buf[n : n+int(l)]
		if rec[0] != recPrepared && rec[0] != recCommitting {
			return nil, nil, bad
		}
		carried = append(carried, rec)
		buf = buf[n+int(l):]
	}
	return table, carried, nil
}

// sortedAIDs returns m's keys in (coordinator, sequence) order.
func sortedAIDs[V any](m map[ids.ActionID]V) []ids.ActionID {
	aids := make([]ids.ActionID, 0, len(m))
	for aid := range m {
		aids = append(aids, aid)
	}
	sort.Slice(aids, func(i, j int) bool {
		if aids[i].Coordinator != aids[j].Coordinator {
			return aids[i].Coordinator < aids[j].Coordinator
		}
		return aids[i].Seq < aids[j].Seq
	})
	return aids
}
