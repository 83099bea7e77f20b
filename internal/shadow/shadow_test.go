package shadow

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/stable"
	"repro/internal/stablelog"
	"repro/internal/value"
)

var (
	gP = ids.GuardianID(1)
)

type fixture struct {
	t     *testing.T
	devs  [4]*stable.MemDevice
	vs    *stablelog.Log
	root  *stable.Store
	heap  *object.Heap
	store *Store
	seq   uint64
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{t: t}
	for i := range f.devs {
		f.devs[i] = stable.NewMemDevice(256, nil)
	}
	vsStore, err := stable.NewStore(f.devs[0], f.devs[1])
	if err != nil {
		t.Fatal(err)
	}
	root, err := stable.NewStore(f.devs[2], f.devs[3])
	if err != nil {
		t.Fatal(err)
	}
	f.vs = stablelog.New(vsStore)
	f.root = root
	f.heap = object.NewHeap()
	f.store = New(f.vs, root, f.heap)
	return f
}

func (f *fixture) action() ids.ActionID {
	f.seq++
	return ids.ActionID{Coordinator: gP, Seq: f.seq}
}

func (f *fixture) crashAndRecover() (*Tables, *Store) {
	f.t.Helper()
	for _, d := range f.devs {
		d.Crash()
		d.Restart(nil)
	}
	vsStore, err := stable.NewStore(f.devs[0], f.devs[1])
	if err != nil {
		f.t.Fatal(err)
	}
	if err := vsStore.Recover(); err != nil {
		f.t.Fatal(err)
	}
	root, err := stable.NewStore(f.devs[2], f.devs[3])
	if err != nil {
		f.t.Fatal(err)
	}
	if err := root.Recover(); err != nil {
		f.t.Fatal(err)
	}
	vs, err := stablelog.Open(vsStore)
	if err != nil {
		f.t.Fatal(err)
	}
	tables, store, err := Recover(vs, root)
	if err != nil {
		f.t.Fatal(err)
	}
	return tables, store
}

// seed creates root + one counter object and commits through the store.
func (f *fixture) seed() *object.Atomic {
	f.t.Helper()
	setup := f.action()
	counter := object.NewAtomic(2, value.Int(0), setup)
	root := object.NewAtomic(ids.StableVarsUID,
		value.RecordOf("counter", value.Ref{Target: counter}), setup)
	f.heap.Register(root)
	f.heap.Register(counter)
	if err := f.store.Prepare(setup, object.MOS{}); err != nil {
		f.t.Fatal(err)
	}
	if err := f.store.Commit(setup); err != nil {
		f.t.Fatal(err)
	}
	root.Commit(setup)
	counter.Commit(setup)
	return counter
}

func (f *fixture) bump(counter *object.Atomic, to int64) {
	f.t.Helper()
	aid := f.action()
	if err := counter.AcquireWrite(aid); err != nil {
		f.t.Fatal(err)
	}
	counter.Replace(aid, value.Int(to))
	if err := f.store.Prepare(aid, object.MOS{counter}); err != nil {
		f.t.Fatal(err)
	}
	if err := f.store.Commit(aid); err != nil {
		f.t.Fatal(err)
	}
	counter.Commit(aid)
}

// installMap commits an action that modified nothing on s: one map
// install.
func (f *fixture) installMap(s *Store) {
	f.t.Helper()
	aid := f.action()
	if err := s.Prepare(aid, object.MOS{}); err != nil {
		f.t.Fatal(err)
	}
	if err := s.Commit(aid); err != nil {
		f.t.Fatal(err)
	}
}

func getAtomic(t *testing.T, h *object.Heap, uid ids.UID) *object.Atomic {
	t.Helper()
	o, ok := h.Lookup(uid)
	if !ok {
		t.Fatalf("%v not restored", uid)
	}
	a, ok := o.(*object.Atomic)
	if !ok {
		t.Fatalf("%v is %T", uid, o)
	}
	return a
}

func TestCommitInstallsMap(t *testing.T) {
	f := newFixture(t)
	counter := f.seed()
	f.bump(counter, 7)
	if f.store.MapWrites != 2 {
		t.Fatalf("MapWrites = %d, want 2 (one per commit)", f.store.MapWrites)
	}
	tables, _ := f.crashAndRecover()
	got := getAtomic(t, tables.Heap, 2)
	if !value.Equal(got.Base(), value.Int(7)) {
		t.Fatalf("counter = %s, want 7", value.String(got.Base()))
	}
	// Root's reference resolved.
	rootObj, ok := tables.Heap.StableVars()
	if !ok {
		t.Fatal("stable vars lost")
	}
	ref := rootObj.Base().(*value.Record).Fields["counter"].(value.Ref)
	if ref.Target.UID() != 2 {
		t.Fatal("root reference wrong")
	}
}

func TestCrashBeforeCommitDiscards(t *testing.T) {
	f := newFixture(t)
	counter := f.seed()
	aid := f.action()
	if err := counter.AcquireWrite(aid); err != nil {
		t.Fatal(err)
	}
	counter.Replace(aid, value.Int(99))
	if err := f.store.Prepare(aid, object.MOS{counter}); err != nil {
		t.Fatal(err)
	}
	// Crash before Commit: the map still points at the old version, but
	// the prepared intention must be recovered (write-locked current).
	tables, _ := f.crashAndRecover()
	got := getAtomic(t, tables.Heap, 2)
	if !value.Equal(got.Base(), value.Int(0)) {
		t.Fatalf("installed version = %s, want 0", value.String(got.Base()))
	}
	if !tables.Prepared[aid] {
		t.Fatalf("prepared action lost: %v", tables.Prepared)
	}
	if got.Writer() != aid {
		t.Fatalf("writer = %v, want %v", got.Writer(), aid)
	}
	if cur, ok := got.Current(); !ok || !value.Equal(cur, value.Int(99)) {
		t.Fatalf("current = %v, want 99", cur)
	}
}

func TestAbortedIntentionDiscarded(t *testing.T) {
	f := newFixture(t)
	counter := f.seed()
	aid := f.action()
	if err := counter.AcquireWrite(aid); err != nil {
		t.Fatal(err)
	}
	counter.Replace(aid, value.Int(99))
	if err := f.store.Prepare(aid, object.MOS{counter}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Abort(aid); err != nil {
		t.Fatal(err)
	}
	counter.Abort(aid)
	tables, _ := f.crashAndRecover()
	got := getAtomic(t, tables.Heap, 2)
	if !value.Equal(got.Base(), value.Int(0)) {
		t.Fatalf("counter = %s, want 0", value.String(got.Base()))
	}
	if len(tables.Prepared) != 0 {
		t.Fatalf("Prepared = %v, want empty", tables.Prepared)
	}
	if !got.Writer().IsZero() {
		t.Fatal("stale write lock after aborted intention")
	}
}

func TestMutexPreparedSurvivesAbort(t *testing.T) {
	f := newFixture(t)
	setup := f.action()
	m := object.NewMutex(2, value.Int(1))
	root := object.NewAtomic(ids.StableVarsUID,
		value.RecordOf("m", value.Ref{Target: m}), setup)
	f.heap.Register(root)
	f.heap.Register(m)
	if err := f.store.Prepare(setup, object.MOS{}); err != nil {
		t.Fatal(err)
	}
	f.store.Commit(setup)
	root.Commit(setup)

	aid := f.action()
	m.Seize(aid, func(value.Value) value.Value { return value.Int(2) })
	if err := f.store.Prepare(aid, object.MOS{m}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Abort(aid); err != nil {
		t.Fatal(err)
	}
	tables, _ := f.crashAndRecover()
	mo, ok := tables.Heap.Lookup(2)
	if !ok {
		t.Fatal("mutex lost")
	}
	if !value.Equal(mo.(*object.Mutex).Current(), value.Int(2)) {
		t.Fatalf("mutex = %s, want prepared version 2", value.String(mo.(*object.Mutex).Current()))
	}
}

func TestRecoveryCostIndependentOfHistory(t *testing.T) {
	// The shadowing claim (§1.2.2): recovery is fast — it reads the map
	// and live versions, not the history.
	f := newFixture(t)
	counter := f.seed()
	for i := 0; i < 100; i++ {
		f.bump(counter, int64(i))
	}
	tables, _ := f.crashAndRecover()
	// map + 2 live versions + suffix (nothing) — far below the ~400
	// records written.
	if tables.EntriesRead > 5 {
		t.Fatalf("EntriesRead = %d, want small constant", tables.EntriesRead)
	}
	got := getAtomic(t, tables.Heap, 2)
	if !value.Equal(got.Base(), value.Int(99)) {
		t.Fatalf("counter = %s, want 99", value.String(got.Base()))
	}
}

func TestCrashBetweenMapWriteAndRootSwitch(t *testing.T) {
	// If the crash lands after the new map is forced but before the
	// root page is written, the old map remains installed and the
	// prepared intention is still pending — no torn state.
	f := newFixture(t)
	counter := f.seed()
	aid := f.action()
	if err := counter.AcquireWrite(aid); err != nil {
		t.Fatal(err)
	}
	counter.Replace(aid, value.Int(5))
	if err := f.store.Prepare(aid, object.MOS{counter}); err != nil {
		t.Fatal(err)
	}
	// Simulate the partial commit: write the map but crash before the
	// root update by crashing the root devices only for writes.
	f.devs[2].Crash()
	f.devs[3].Crash()
	if err := f.store.Commit(aid); err == nil {
		t.Fatal("commit succeeded with root device down")
	}
	tables, _ := f.crashAndRecover()
	got := getAtomic(t, tables.Heap, 2)
	if !value.Equal(got.Base(), value.Int(0)) {
		t.Fatalf("installed = %s, want old version 0", value.String(got.Base()))
	}
	if !tables.Prepared[aid] {
		t.Fatal("intention lost")
	}
}

func TestCoordinatorRecords(t *testing.T) {
	f := newFixture(t)
	f.seed()
	aid := f.action()
	if err := f.store.Committing(aid, []ids.GuardianID{2, 3}); err != nil {
		t.Fatal(err)
	}
	tables, _ := f.crashAndRecover()
	if gids, ok := tables.Committing[aid]; !ok || len(gids) != 2 {
		t.Fatalf("Committing = %v", tables.Committing)
	}
	if err := f.store.Done(aid); err != nil {
		t.Fatal(err)
	}
	tables2, _ := f.crashAndRecover()
	if _, still := tables2.Committing[aid]; still {
		t.Fatal("done did not supersede committing")
	}
	if !tables2.Done[aid] {
		t.Fatal("done lost")
	}
}

// TestCommittingSurvivesLaterMapInstall: a committing record with no
// done must survive a later commit's map install — recovery reads only
// the installed map and its suffix, so the map carries it forward. Lost,
// the coordinator would presume abort for an action it acknowledged
// committed.
func TestCommittingSurvivesLaterMapInstall(t *testing.T) {
	f := newFixture(t)
	counter := f.seed()
	aid := f.action()
	if err := f.store.Committing(aid, []ids.GuardianID{2, 3}); err != nil {
		t.Fatal(err)
	}
	f.bump(counter, 1)
	tables, store2 := f.crashAndRecover()
	if gids := tables.Committing[aid]; len(gids) != 2 || gids[0] != 2 || gids[1] != 3 {
		t.Fatalf("Committing = %v, want %v → [2 3]", tables.Committing, aid)
	}
	// The resumed store carries the entry across its own map installs
	// until done is written.
	f.installMap(store2)
	tables, store3 := f.crashAndRecover()
	if _, ok := tables.Committing[aid]; !ok {
		t.Fatalf("Committing = %v after a second map install", tables.Committing)
	}
	if err := store3.Done(aid); err != nil {
		t.Fatal(err)
	}
	f.installMap(store3)
	if tables, _ := f.crashAndRecover(); len(tables.Committing) != 0 {
		t.Fatalf("Committing = %v after done, want empty", tables.Committing)
	}
}

// TestPreparedSurvivesLaterMapInstall: a prepared action with no
// verdict must survive another action's commit — its versions stay
// shadowed and write-locked, and committing it after recovery installs
// them.
func TestPreparedSurvivesLaterMapInstall(t *testing.T) {
	f := newFixture(t)
	counter := f.seed()
	aid := f.action()
	if err := counter.AcquireWrite(aid); err != nil {
		t.Fatal(err)
	}
	counter.Replace(aid, value.Int(99))
	if err := f.store.Prepare(aid, object.MOS{counter}); err != nil {
		t.Fatal(err)
	}
	f.installMap(f.store)
	tables, store2 := f.crashAndRecover()
	if !tables.Prepared[aid] || len(tables.Prepared) != 1 {
		t.Fatalf("Prepared = %v, want only %v", tables.Prepared, aid)
	}
	got := getAtomic(t, tables.Heap, 2)
	if got.Writer() != aid {
		t.Fatalf("writer = %v, want %v", got.Writer(), aid)
	}
	if cur, ok := got.Current(); !ok || !value.Equal(cur, value.Int(99)) {
		t.Fatalf("current = %v, want 99", cur)
	}
	if err := store2.Commit(aid); err != nil {
		t.Fatal(err)
	}
	tables, _ = f.crashAndRecover()
	if len(tables.Prepared) != 0 {
		t.Fatalf("Prepared = %v after commit, want empty", tables.Prepared)
	}
	if got := getAtomic(t, tables.Heap, 2); !value.Equal(got.Base(), value.Int(99)) {
		t.Fatalf("counter = %s, want 99", value.String(got.Base()))
	}
}

// TestMutexKeepsLatestVersion: two prepared actions hold versions of one
// mutex, the later-prepared one with the lower aid. Whether both are
// carried by a map, the later one commits, or the earlier one aborts
// after it, the mutex keeps the latest version written (§2.4.2).
func TestMutexKeepsLatestVersion(t *testing.T) {
	f := newFixture(t)
	setup := f.action()
	m := object.NewMutex(2, value.Int(1))
	root := object.NewAtomic(ids.StableVarsUID, value.RecordOf("m", value.Ref{Target: m}), setup)
	f.heap.Register(root)
	f.heap.Register(m)
	if err := f.store.Prepare(setup, object.MOS{}); err != nil {
		t.Fatal(err)
	}
	if err := f.store.Commit(setup); err != nil {
		t.Fatal(err)
	}
	root.Commit(setup)
	late, early := f.action(), f.action()
	for i, aid := range []ids.ActionID{early, late} {
		v := int64(i + 2)
		m.Seize(aid, func(value.Value) value.Value { return value.Int(v) })
		if err := f.store.Prepare(aid, object.MOS{m}); err != nil {
			t.Fatal(err)
		}
	}
	want := func(label string, tables *Tables) {
		t.Helper()
		mo, ok := tables.Heap.Lookup(2)
		if !ok {
			t.Fatalf("%s: mutex lost", label)
		}
		if got := mo.(*object.Mutex).Current(); !value.Equal(got, value.Int(3)) {
			t.Fatalf("%s: mutex = %s, want the latest version 3", label, value.String(got))
		}
	}
	f.installMap(f.store)
	tables, store := f.crashAndRecover()
	want("both carried", tables)
	if err := store.Commit(late); err != nil {
		t.Fatal(err)
	}
	tables, store = f.crashAndRecover()
	want("latest installed, earlier carried", tables)
	if err := store.Abort(early); err != nil {
		t.Fatal(err)
	}
	tables, _ = f.crashAndRecover()
	want("earlier aborted after the latest committed", tables)
}

func TestResumeAfterRecovery(t *testing.T) {
	f := newFixture(t)
	counter := f.seed()
	f.bump(counter, 3)
	tables, store2 := f.crashAndRecover()
	// Continue on the recovered store.
	got := getAtomic(t, tables.Heap, 2)
	aid := ids.ActionID{Coordinator: gP, Seq: 500}
	if err := got.AcquireWrite(aid); err != nil {
		t.Fatal(err)
	}
	got.Replace(aid, value.Int(4))
	if err := store2.Prepare(aid, object.MOS{got}); err != nil {
		t.Fatal(err)
	}
	if err := store2.Commit(aid); err != nil {
		t.Fatal(err)
	}
	got.Commit(aid)

	tables2, _ := f.crashAndRecover()
	final := getAtomic(t, tables2.Heap, 2)
	if !value.Equal(final.Base(), value.Int(4)) {
		t.Fatalf("counter = %s, want 4", value.String(final.Base()))
	}
}

func TestCodecRoundTrips(t *testing.T) {
	aid := ids.ActionID{Coordinator: 3, Seq: 9}
	ins := []install{{uid: 5, addr: 10, kind: object.KindAtomic}, {uid: 6, addr: 20, kind: object.KindMutex}}
	gotAid, gotIns, err := decodePrepared(encodePrepared(aid, ins))
	if err != nil || gotAid != aid || len(gotIns) != 2 || gotIns[1] != ins[1] {
		t.Fatalf("prepared round trip: %v %v %v", gotAid, gotIns, err)
	}
	table := map[ids.UID]mapEntry{4: {Addr: 7, Kind: object.KindMutex}}
	pending := map[ids.ActionID][]install{aid: ins}
	committing := map[ids.ActionID][]ids.GuardianID{aid: {8}}
	gotTable, carried, err := decodeMap(encodeMap(table, pending, committing))
	if err != nil || gotTable[4] != table[4] || len(carried) != 2 ||
		carried[0][0] != recPrepared || carried[1][0] != recCommitting {
		t.Fatalf("map round trip: %v %v %v", gotTable, carried, err)
	}
	a2, g2, err := decodeOutcome(encodeOutcome(recCommitting, aid, []ids.GuardianID{8}))
	if err != nil || a2 != aid || len(g2) != 1 || g2[0] != 8 {
		t.Fatalf("outcome round trip: %v %v %v", a2, g2, err)
	}
}
