package hybridlog

// Housekeeping (thesis chapter 5): reorganize the hybrid log so that
// recovery has a bounded amount of log to read. Both algorithms build a
// checkpoint of the guardian's stable state in a new log and install it
// in one atomic step (the Site generation switch):
//
//   - Compaction (§5.1) reads the old log backward from the
//     housekeeping marker, exactly like recovery, but writes surviving
//     entries to the new log instead of reconstructing volatile memory.
//   - Snapshot (§5.2) traverses the stable state already in volatile
//     memory and writes it to the new log, consulting the mutex table
//     (MT) for the latest prepared mutex versions, which live in the
//     log rather than in volatile memory.
//
// Both run in two stages. Stage one covers the log up to the
// housekeeping marker (compaction) or the volatile state (snapshot) and
// ends with a committed_ss entry carrying the committed-stable-state
// list (CSSL). Stage two copies the outcome entries the guardian wrote
// after the marker (tracked in the outcome entries list, OEL) and their
// data, then atomically switches logs.
//
// Note on ordering: compaction writes stage-one entries in reverse
// chronological order, so recovery (recover.go) resolves conflicts
// between committed_ss pairs and surviving prepared/prepared_data
// entries by provenance (the fromSS flag) rather than by scan order;
// see the comments in processPairs.

import (
	"fmt"
	"sort"

	"repro/internal/ids"
	"repro/internal/logrec"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/simplelog"
	"repro/internal/stablelog"
	"repro/internal/value"
)

// housekeeping is the writer-side hook: outcome entries appended to the
// old log after the marker are recorded in the OEL, preserving order.
type housekeeping struct {
	oel []stablelog.LSN
}

func (h *housekeeping) noteOutcome(lsn stablelog.LSN) {
	h.oel = append(h.oel, lsn)
}

// Stats reports the work a housekeeping run performed.
type Stats struct {
	// OldEntriesRead counts old-log entries examined in stage one
	// (compaction) — zero for snapshots, whose stage one reads volatile
	// memory.
	OldEntriesRead int
	// ObjectsCopied counts object versions written to the new log.
	ObjectsCopied int
	// OELCopied counts post-marker outcome entries copied in stage two.
	OELCopied int
	// NewLogSize is the byte size of the new log after the switch.
	NewLogSize uint64
	// OldLogSize is the byte size of the old log at the switch.
	OldLogSize uint64
}

// Housekeeper is one housekeeping run over a writer's log. Create with
// Writer.BeginCompaction or Writer.BeginSnapshot, run Stage1, then
// Finish. Writer operations may continue between the calls; Finish
// freezes the writer briefly for the atomic switch.
type Housekeeper struct {
	w        *Writer
	site     *stablelog.Site
	snapshot bool

	oldLog *stablelog.Log
	newLog *stablelog.Log
	gen    uint64
	marker stablelog.LSN
	hk     *housekeeping
	oldMT  map[ids.UID]stablelog.LSN

	// Stage-one working state.
	pt       map[ids.ActionID]simplelog.PartState
	ctDone   map[ids.ActionID]bool
	ot       map[ids.UID]*hkRow
	cssl     map[ids.UID]stablelog.LSN // uid -> new-log data entry address
	newMT    map[ids.UID]stablelog.LSN
	newChain stablelog.LSN
	newAS    *object.AccessSet
	stats    Stats
	stage1ok bool

	// chain and data read the old log's outcome entries and the data
	// entries their pairs name, each into its own reused buffer.
	chain, data entryReader
}

// hkRow is the housekeeping object table row. For mutex objects, oldLSN
// is the old-log address of the version currently reflected in the
// CSSL, for the latest-version comparisons of §5.1.1/§5.2; atomic rows
// carry NoLSN.
type hkRow struct {
	state  simplelog.ObjState
	oldLSN stablelog.LSN
}

func newAtomicRow(state simplelog.ObjState) *hkRow {
	return &hkRow{state: state, oldLSN: stablelog.NoLSN}
}

func (w *Writer) begin(site *stablelog.Site, snapshot bool) (*Housekeeper, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.hk != nil {
		return nil, fmt.Errorf("hybridlog: housekeeping already in progress")
	}
	newLog, gen, err := site.NewLog()
	if err != nil {
		return nil, err
	}
	h := &Housekeeper{
		w:        w,
		site:     site,
		snapshot: snapshot,
		oldLog:   w.log,
		newLog:   newLog,
		chain:    entryReader{src: w.log},
		data:     entryReader{src: w.log},
		gen:      gen,
		marker:   w.lastOutcome, // the housekeeping marker (§5.1.1)
		hk:       &housekeeping{},
		oldMT:    make(map[ids.UID]stablelog.LSN, len(w.mt)),
		pt:       make(map[ids.ActionID]simplelog.PartState),
		ctDone:   make(map[ids.ActionID]bool),
		ot:       make(map[ids.UID]*hkRow),
		cssl:     make(map[ids.UID]stablelog.LSN),
		newMT:    make(map[ids.UID]stablelog.LSN),
		newChain: stablelog.NoLSN,
		newAS:    object.NewAccessSet(),
	}
	//roslint:nondet order-independent: whole-map copy into a keyed map
	for k, v := range w.mt {
		h.oldMT[k] = v
	}
	w.hk = h.hk
	return h, nil
}

// BeginCompaction starts a log-compaction run (§5.1.1), setting the
// housekeeping marker at the current end of the log.
func (w *Writer) BeginCompaction(site *stablelog.Site) (*Housekeeper, error) {
	return w.begin(site, false)
}

// BeginSnapshot starts a stable-state snapshot run (§5.2).
func (w *Writer) BeginSnapshot(site *stablelog.Site) (*Housekeeper, error) {
	return w.begin(site, true)
}

// CompactLog runs a complete compaction: Begin, Stage1, Finish.
func (w *Writer) CompactLog(site *stablelog.Site) (Stats, error) {
	return w.housekeepRun(site, false)
}

// SnapshotLog runs a complete snapshot: Begin, Stage1, Finish.
func (w *Writer) SnapshotLog(site *stablelog.Site) (Stats, error) {
	return w.housekeepRun(site, true)
}

func (w *Writer) housekeepRun(site *stablelog.Site, snapshot bool) (Stats, error) {
	code := obs.HousekeepCompact
	if snapshot {
		code = obs.HousekeepSnapshot
	}
	w.mu.Lock()
	tr := w.tr
	w.mu.Unlock()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindHousekeepStart, Code: code})
	}
	stats, err := w.housekeepOnce(site, snapshot)
	if tr != nil {
		done := obs.Event{Kind: obs.KindHousekeepDone, Code: code}
		if err != nil {
			done.Note = err.Error()
		} else {
			done.OK = true
			done.Bytes = int(stats.NewLogSize)
		}
		tr.Emit(done)
	}
	return stats, err
}

func (w *Writer) housekeepOnce(site *stablelog.Site, snapshot bool) (Stats, error) {
	h, err := w.begin(site, snapshot)
	if err != nil {
		return Stats{}, err
	}
	if err := h.Stage1(); err != nil {
		h.abandon()
		return Stats{}, err
	}
	return h.stats, h.Finish()
}

func (h *Housekeeper) abandon() {
	h.w.mu.Lock()
	defer h.w.mu.Unlock()
	h.w.hk = nil
}

// Stage1 builds the checkpoint in the new log. For compaction it reads
// the old log backward from the marker; for a snapshot it traverses the
// stable state in volatile memory. It ends by writing the committed_ss
// entry carrying the CSSL.
func (h *Housekeeper) Stage1() error {
	var err error
	if h.snapshot {
		err = h.snapshotStage1()
	} else {
		err = h.compactStage1()
	}
	if err != nil {
		return err
	}
	// Write the committed_ss entry: "like a combined prepare and commit
	// for some special action whose name does not matter" (§5.1.1).
	// Sorted by UID: the pair list is log bytes, and the crash sweep
	// requires byte-identical logs per seed.
	uids := make([]ids.UID, 0, len(h.cssl))
	//roslint:nondet keys collected here are sorted below before use
	for uid := range h.cssl {
		uids = append(uids, uid)
	}
	sort.Slice(uids, func(i, j int) bool { return uids[i] < uids[j] })
	pairs := make([]logrec.UIDLSN, 0, len(uids))
	for _, uid := range uids {
		pairs = append(pairs, logrec.UIDLSN{UID: uid, Addr: h.cssl[uid]})
	}
	//roslint:unforced Finish forces the whole new generation before Site.Switch publishes it; a crash before that reuses the old generation
	lsn, err := h.newLog.Write(logrec.Encode(logrec.Hybrid, &logrec.Entry{
		Kind:  logrec.KindCommittedSS,
		Pairs: pairs,
		Prev:  h.newChain,
	}))
	if err != nil {
		return err
	}
	h.newChain = lsn
	h.stage1ok = true
	return nil
}

// --- Stage one: compaction (§5.1.1) ------------------------------------

func (h *Housekeeper) compactStage1() error {
	for lsn := h.marker; lsn != stablelog.NoLSN; {
		e, err := h.chain.read(lsn)
		if err != nil {
			return fmt.Errorf("hybridlog: compaction entry at %v: %w", lsn, err)
		}
		h.stats.OldEntriesRead++
		if err := h.compactEntry(e); err != nil {
			return err
		}
		lsn = e.Prev
	}
	return nil
}

func (h *Housekeeper) compactEntry(e *logrec.Entry) error {
	switch e.Kind {
	case logrec.KindCommitted:
		if _, known := h.pt[e.AID]; !known {
			h.pt[e.AID] = simplelog.PartCommitted
		}
	case logrec.KindAborted:
		if _, known := h.pt[e.AID]; !known {
			h.pt[e.AID] = simplelog.PartAborted
		}
	case logrec.KindDone:
		h.ctDone[e.AID] = true

	case logrec.KindCommitting:
		// Copy only if the outcome is not yet known to be done.
		if !h.ctDone[e.AID] {
			if err := h.writeNewOutcome(&logrec.Entry{
				Kind: logrec.KindCommitting, AID: e.AID, GIDs: e.GIDs,
			}); err != nil {
				return err
			}
		}

	case logrec.KindBaseCommitted:
		row, seen := h.ot[e.UID]
		if seen && row.state == simplelog.ObjRestored {
			return nil
		}
		if err := h.copyVersion(e.UID, object.KindAtomic, e.Value); err != nil {
			return err
		}
		if seen {
			row.state = simplelog.ObjRestored
		} else {
			h.ot[e.UID] = newAtomicRow(simplelog.ObjRestored)
		}

	case logrec.KindPreparedData:
		switch h.pt[e.AID] {
		case simplelog.PartAborted:
			// dropped
		case simplelog.PartCommitted:
			row, seen := h.ot[e.UID]
			if seen && row.state == simplelog.ObjRestored {
				return nil
			}
			if err := h.copyVersion(e.UID, object.KindAtomic, e.Value); err != nil {
				return err
			}
			if seen {
				row.state = simplelog.ObjRestored
			} else {
				h.ot[e.UID] = newAtomicRow(simplelog.ObjRestored)
			}
		default:
			// Prepared or unknown: the entry survives, chained.
			if _, seen := h.ot[e.UID]; !seen {
				h.ot[e.UID] = newAtomicRow(simplelog.ObjPrepared)
			}
			if err := h.writeNewOutcome(&logrec.Entry{
				Kind: logrec.KindPreparedData, UID: e.UID, AID: e.AID, Value: e.Value,
			}); err != nil {
				return err
			}
		}

	case logrec.KindPrepared:
		return h.compactPrepared(e)

	case logrec.KindCommittedSS:
		// A previous housekeeping's checkpoint: its pairs are committed
		// versions.
		for _, p := range e.Pairs {
			if err := h.compactCommittedPair(p); err != nil {
				return err
			}
		}

	default:
		return fmt.Errorf("hybridlog: unexpected %v on outcome chain during compaction", e.Kind)
	}
	return nil
}

// compactPrepared processes one prepared entry per §5.1.1 step 5.
func (h *Housekeeper) compactPrepared(e *logrec.Entry) error {
	state, known := h.pt[e.AID]
	if known && state == simplelog.PartAborted {
		// 5.a: only mutex versions survive an aborted (but prepared)
		// action.
		for _, p := range e.Pairs {
			if err := h.compactMutexPairIfLatest(p); err != nil {
				return err
			}
		}
		return nil
	}
	if known && state == simplelog.PartCommitted {
		// 5.b.
		for _, p := range e.Pairs {
			if err := h.compactCommittedPair(p); err != nil {
				return err
			}
		}
		return nil
	}
	// 5.c: outcome unknown — the action is still prepared. Atomic pairs
	// are rewritten under a new prepared entry; mutex pairs go to the
	// CSSL (their versions survive regardless of the verdict).
	if _, dup := h.pt[e.AID]; !dup {
		h.pt[e.AID] = simplelog.PartPrepared
	}
	var newPairs []logrec.UIDLSN
	for _, p := range e.Pairs {
		ver, kind, err := h.readOldData(p.Addr)
		if err != nil {
			return err
		}
		if kind == object.KindAtomic {
			if _, seen := h.ot[p.UID]; !seen {
				h.ot[p.UID] = newAtomicRow(simplelog.ObjPrepared)
			}
			newAddr, err := h.writeNewData(object.KindAtomic, ver)
			if err != nil {
				return err
			}
			newPairs = append(newPairs, logrec.UIDLSN{UID: p.UID, Addr: newAddr})
			continue
		}
		if err := h.compactMutexPairVersion(p, ver); err != nil {
			return err
		}
	}
	// The thesis writes the new prepared entry only when the new prepare
	// list is non-empty; we always write it so the action's prepared
	// state itself survives the compaction (a strict superset of the
	// thesis's behaviour).
	return h.writeNewOutcome(&logrec.Entry{
		Kind: logrec.KindPrepared, AID: e.AID, Pairs: newPairs,
	})
}

// compactCommittedPair folds one committed pair into the checkpoint.
func (h *Housekeeper) compactCommittedPair(p logrec.UIDLSN) error {
	row, seen := h.ot[p.UID]
	if seen && row.state == simplelog.ObjRestored && row.oldLSN == stablelog.NoLSN {
		// An atomic object already restored by a later (newer) version.
		return nil
	}
	ver, kind, err := h.readOldData(p.Addr)
	if err != nil {
		return err
	}
	if kind == object.KindAtomic {
		if seen && row.state == simplelog.ObjRestored {
			return nil
		}
		if err := h.copyVersion(p.UID, kind, ver); err != nil {
			return err
		}
		if seen {
			row.state = simplelog.ObjRestored
		} else {
			h.ot[p.UID] = &hkRow{state: simplelog.ObjRestored, oldLSN: stablelog.NoLSN}
		}
		return nil
	}
	return h.compactMutexPairVersion(p, ver)
}

// compactMutexPairIfLatest reads the data entry for a mutex pair and
// copies it if it is the most recent version seen for that object.
func (h *Housekeeper) compactMutexPairIfLatest(p logrec.UIDLSN) error {
	row, seen := h.ot[p.UID]
	if seen && row.oldLSN != stablelog.NoLSN && p.Addr <= row.oldLSN {
		return nil
	}
	ver, kind, err := h.readOldData(p.Addr)
	if err != nil {
		return err
	}
	if kind != object.KindMutex {
		// An aborted action's atomic pair: dropped.
		return nil
	}
	return h.compactMutexPairVersion(p, ver)
}

// compactMutexPairVersion installs a mutex version into the checkpoint
// under the latest-address rule, replacing a staler CSSL pair if needed.
func (h *Housekeeper) compactMutexPairVersion(p logrec.UIDLSN, ver []byte) error {
	row, seen := h.ot[p.UID]
	if seen && row.oldLSN != stablelog.NoLSN && p.Addr <= row.oldLSN {
		return nil
	}
	newAddr, err := h.writeNewData(object.KindMutex, ver)
	if err != nil {
		return err
	}
	h.cssl[p.UID] = newAddr
	h.newMT[p.UID] = newAddr
	if seen {
		row.state = simplelog.ObjRestored
		row.oldLSN = p.Addr
	} else {
		h.ot[p.UID] = &hkRow{state: simplelog.ObjRestored, oldLSN: p.Addr}
	}
	return nil
}

// copyVersion writes an object version as a new data entry and records
// it in the CSSL.
func (h *Housekeeper) copyVersion(uid ids.UID, kind object.Kind, ver []byte) error {
	addr, err := h.writeNewData(kind, ver)
	if err != nil {
		return err
	}
	h.cssl[uid] = addr
	return nil
}

func (h *Housekeeper) writeNewData(kind object.Kind, ver []byte) (stablelog.LSN, error) {
	h.stats.ObjectsCopied++
	return h.newLog.Write(logrec.Encode(logrec.Hybrid, &logrec.Entry{
		Kind: logrec.KindData, ObjType: kind, Value: ver,
	}))
}

func (h *Housekeeper) writeNewOutcome(e *logrec.Entry) error {
	e.Prev = h.newChain
	lsn, err := h.newLog.Write(logrec.Encode(logrec.Hybrid, e))
	if err != nil {
		return err
	}
	h.newChain = lsn
	return nil
}

// readOldData returns the version and kind of the old log's data entry
// at addr. The version is borrowed from the data reader: it is valid
// until the next readOldData, so callers write it to the new log first.
func (h *Housekeeper) readOldData(addr stablelog.LSN) ([]byte, object.Kind, error) {
	e, err := h.data.read(addr)
	if err != nil {
		return nil, 0, fmt.Errorf("hybridlog: housekeeping data read at %v: %w", addr, err)
	}
	if e.Kind != logrec.KindData {
		return nil, 0, fmt.Errorf("hybridlog: entry at %v is %v, want data", addr, e.Kind)
	}
	h.stats.OldEntriesRead++
	return e.Value, e.ObjType, nil
}

// --- Stage one: snapshot (§5.2) ----------------------------------------

func (h *Housekeeper) snapshotStage1() error {
	heap := h.w.heap
	pat := h.w.pat
	root, ok := heap.StableVars()
	if !ok {
		return nil // empty guardian: empty checkpoint
	}
	seen := make(map[ids.UID]bool)
	var walk func(o object.Recoverable) error
	walk = func(o object.Recoverable) error {
		if seen[o.UID()] {
			return nil
		}
		seen[o.UID()] = true
		h.newAS.Add(o.UID())
		var next []object.Recoverable
		collect := func(ref value.Obj) {
			if obj, ok := ref.(object.Recoverable); ok {
				next = append(next, obj)
			} else if obj, ok := heap.Lookup(ref.UID()); ok {
				next = append(next, obj)
			}
		}
		switch x := o.(type) {
		case *object.Atomic:
			writer := x.Writer()
			prepared := !writer.IsZero() && pat.Contains(writer)
			// The base version is always part of the committed stable
			// state.
			flatBase := x.SnapshotBase(collect)
			if err := h.copyVersion(x.UID(), object.KindAtomic, flatBase); err != nil {
				return err
			}
			if prepared {
				// Write-locked by a prepared action: also record the
				// current version as prepared_data so the action's
				// modification survives if it commits (§5.2).
				flatCur, ok := x.SnapshotCurrent(collect)
				if ok {
					if err := h.writeNewOutcome(&logrec.Entry{
						Kind:  logrec.KindPreparedData,
						UID:   x.UID(),
						AID:   writer,
						Value: flatCur,
					}); err != nil {
						return err
					}
					h.stats.ObjectsCopied++
				}
			}
		case *object.Mutex:
			// The authoritative prepared version of a mutex lives in the
			// log, not volatile memory: consult the MT (§5.2).
			if oldAddr, ok := h.oldMT[x.UID()]; ok {
				ver, _, err := h.readOldData(oldAddr)
				if err != nil {
					return err
				}
				addr, err := h.writeNewData(object.KindMutex, ver)
				if err != nil {
					return err
				}
				h.cssl[x.UID()] = addr
				h.newMT[x.UID()] = addr
				// Still traverse its volatile references for
				// reachability.
				x.Snapshot(collect)
			} else {
				// Newly accessible under a still-preparing action: its
				// state reaches the new log via stage two or the
				// post-switch rewrite (§5.2).
				x.Snapshot(collect)
			}
		}
		for _, obj := range next {
			if err := walk(obj); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(root); err != nil {
		return err
	}
	// Preserve the prepared status of every action in the PAT with an
	// (empty) prepared entry. The thesis leaves this implicit; without
	// it, an action whose modifications were all mutex objects — whose
	// versions the snapshot diverts to the CSSL — would lose its
	// prepared state across the switch and wrongly abort on recovery.
	for _, aid := range pat.Actions() {
		if err := h.writeNewOutcome(&logrec.Entry{Kind: logrec.KindPrepared, AID: aid}); err != nil {
			return err
		}
	}
	return nil
}

// --- Stage two and the atomic switch ------------------------------------

// Finish copies the post-marker outcome entries (the OEL) to the new
// log, freezes the writer, copies any stragglers, switches the site to
// the new log in one atomic step, and re-writes data entries for
// actions that had early-prepared but not yet prepared (§5.1.1).
func (h *Housekeeper) Finish() error {
	if !h.stage1ok {
		return fmt.Errorf("hybridlog: Finish before successful Stage1")
	}
	w := h.w
	// Copy OEL entries and force the new log without the lock until we
	// catch up with the new log forced, then freeze. The force runs
	// outside w.mu (force waits never happen under a writer lock); if
	// outcome entries land between the force and the re-check, the next
	// iteration copies and re-forces.
	done := 0
	forcedAt := -1
	for {
		w.mu.Lock()
		pendingOEL := h.hk.oel[done:]
		if len(pendingOEL) == 0 && forcedAt == done {
			// Caught up and durable: keep the lock, switch below.
			break
		}
		batch := make([]stablelog.LSN, len(pendingOEL))
		copy(batch, pendingOEL)
		w.mu.Unlock()
		for _, lsn := range batch {
			if err := h.copyOELEntry(lsn); err != nil {
				return err
			}
		}
		done += len(batch)
		if err := h.newLog.Force(); err != nil {
			return err
		}
		forcedAt = done
	}
	defer w.mu.Unlock()

	// Switch generations: the one atomic step.
	if err := h.site.Switch(h.newLog, h.gen); err != nil {
		return err
	}
	h.stats.OELCopied = done
	h.stats.OldLogSize = h.oldLog.Size()

	w.log = h.newLog
	w.lastOutcome = h.newChain
	w.hk = nil
	if h.snapshot {
		// The new AS is the traversal's set intersected with the old
		// one (§5.2).
		h.newAS.Intersect(w.as)
		w.as.ReplaceWith(h.newAS)
	}
	w.mt = h.newMT

	// Data entries for actions that had not yet prepared were not
	// copied; re-write them to the new log from volatile memory
	// (§5.1.1: "the recovery system ... restarts the writing of the
	// data entries for those actions to the new log"). Sorted by action
	// id: these are log writes, and the sweep replays them by index.
	aids := make([]ids.ActionID, 0, len(w.pending))
	//roslint:nondet keys collected here are sorted below before use
	for aid := range w.pending {
		aids = append(aids, aid)
	}
	sort.Slice(aids, func(i, j int) bool {
		if aids[i].Coordinator != aids[j].Coordinator {
			return aids[i].Coordinator < aids[j].Coordinator
		}
		return aids[i].Seq < aids[j].Seq
	})
	for _, aid := range aids {
		pend := w.pending[aid]
		objs := make([]object.Recoverable, len(pend))
		for i, p := range pend {
			objs[i] = p.obj
		}
		delete(w.pending, aid)
		naos := newNAOS()
		for _, obj := range objs {
			if !w.as.Contains(obj.UID()) {
				continue
			}
			if err := w.writeDataEntry(aid, obj, naos); err != nil {
				return err
			}
		}
		for {
			obj, ok := naos.pop()
			if !ok {
				break
			}
			if err := w.writeNewlyAccessible(aid, obj, naos); err != nil {
				return err
			}
			w.as.Add(obj.UID())
		}
	}
	h.stats.NewLogSize = h.newLog.Size()
	return nil
}

// copyOELEntry copies one post-marker outcome entry to the new log
// (stage two). Prepared entries have their data entries re-written and
// re-addressed; everything else is copied with a fresh chain link.
func (h *Housekeeper) copyOELEntry(lsn stablelog.LSN) error {
	e, err := h.chain.read(lsn)
	if err != nil {
		return fmt.Errorf("hybridlog: OEL read at %v: %w", lsn, err)
	}
	switch e.Kind {
	case logrec.KindPrepared:
		var newPairs []logrec.UIDLSN
		for _, p := range e.Pairs {
			ver, kind, err := h.readOldData(p.Addr)
			if err != nil {
				return err
			}
			if kind == object.KindMutex {
				// Latest-version check against the OT (§5.1.1 stage 2).
				if row, seen := h.ot[p.UID]; seen && row.oldLSN != stablelog.NoLSN && p.Addr < row.oldLSN {
					continue
				}
			}
			newAddr, err := h.writeNewData(kind, ver)
			if err != nil {
				return err
			}
			newPairs = append(newPairs, logrec.UIDLSN{UID: p.UID, Addr: newAddr})
			if kind == object.KindMutex {
				if row, seen := h.ot[p.UID]; seen {
					row.oldLSN = p.Addr
				} else {
					h.ot[p.UID] = &hkRow{state: simplelog.ObjRestored, oldLSN: p.Addr}
				}
				h.newMT[p.UID] = newAddr
			}
		}
		return h.writeNewOutcome(&logrec.Entry{Kind: logrec.KindPrepared, AID: e.AID, Pairs: newPairs})

	case logrec.KindBaseCommitted:
		return h.writeNewOutcome(&logrec.Entry{Kind: e.Kind, UID: e.UID, Value: e.Value})

	case logrec.KindPreparedData:
		return h.writeNewOutcome(&logrec.Entry{Kind: e.Kind, UID: e.UID, AID: e.AID, Value: e.Value})

	case logrec.KindCommitting:
		return h.writeNewOutcome(&logrec.Entry{Kind: e.Kind, AID: e.AID, GIDs: e.GIDs})

	case logrec.KindCommitted, logrec.KindAborted, logrec.KindDone:
		return h.writeNewOutcome(&logrec.Entry{Kind: e.Kind, AID: e.AID})

	default:
		return fmt.Errorf("hybridlog: unexpected %v in OEL", e.Kind)
	}
}
