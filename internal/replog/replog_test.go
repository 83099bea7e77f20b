package replog

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stablelog"
	"repro/internal/value"
	"repro/internal/wire"
)

// fixture wires a primary guardian (id 1) to backups over a simulated
// network, with a Checker (R1–R4) feeding a Recorder so every test runs
// under the runtime invariants and can inspect the rep.* stream.
type fixture struct {
	g       *guardian.Guardian
	p       *Primary
	backups []*Backup
	reps    []Replica
	net     *netsim.Network
	rec     *obs.Recorder
	chk     *obs.Checker
}

const primaryID = ids.GuardianID(1)

var backupIDs = []ids.GuardianID{101, 102}

func newBackup(t *testing.T, id ids.GuardianID, tr obs.Tracer, vol stablelog.Volume) *Backup {
	t.Helper()
	b, err := NewBackup(BackupConfig{ID: id, Primary: primaryID, Tracer: tr, Volume: vol})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newFixtureReps builds the fixture around caller-supplied replicas, so
// tests can interpose wrappers. quorum counts the primary.
func newFixtureReps(t *testing.T, quorum int, reps []Replica) *fixture {
	t.Helper()
	f := &fixture{rec: &obs.Recorder{}, net: netsim.New(), reps: reps}
	f.chk = obs.NewChecker(f.rec)
	f.net.SetTracer(f.chk)
	g, err := guardian.New(primaryID, guardian.WithTracer(f.chk))
	if err != nil {
		t.Fatal(err)
	}
	g.SetSynchronousForces(true)
	f.g = g
	p, err := NewPrimary(Config{
		Self: primaryID, Site: g.Site(), Quorum: quorum,
		Net: f.net, Replicas: reps, Tracer: f.chk,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.p = p
	g.SetReplicator(p)
	return f
}

func newFixture(t *testing.T, quorum int) *fixture {
	t.Helper()
	f := &fixture{rec: &obs.Recorder{}, net: netsim.New()}
	f.chk = obs.NewChecker(f.rec)
	f.net.SetTracer(f.chk)
	for _, id := range backupIDs {
		b := newBackup(t, id, f.chk, nil)
		f.backups = append(f.backups, b)
		f.reps = append(f.reps, b)
	}
	g, err := guardian.New(primaryID, guardian.WithTracer(f.chk))
	if err != nil {
		t.Fatal(err)
	}
	g.SetSynchronousForces(true)
	f.g = g
	p, err := NewPrimary(Config{
		Self: primaryID, Site: g.Site(), Quorum: quorum,
		Net: f.net, Replicas: f.reps, Tracer: f.chk,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.p = p
	g.SetReplicator(p)
	return f
}

// initCounter commits the action that creates counter "c".
func initCounter(t *testing.T, g *guardian.Guardian) {
	t.Helper()
	a := g.Begin()
	c, err := a.NewAtomic(value.Int(0))
	if err == nil {
		err = a.SetVar("c", c)
	}
	if err == nil {
		err = a.Commit()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// addCommit runs one committing action adding delta to "c", returning
// the commit error.
func addCommit(g *guardian.Guardian, delta int64) error {
	a := g.Begin()
	c, ok := g.VarAtomic("c")
	if !ok {
		return errors.New("counter lost")
	}
	if err := a.Update(c, func(v value.Value) value.Value {
		return value.Int(int64(v.(value.Int)) + delta)
	}); err != nil {
		return err
	}
	return a.Commit()
}

func counterValue(t *testing.T, g *guardian.Guardian) int64 {
	t.Helper()
	c, ok := g.VarAtomic("c")
	if !ok {
		t.Fatal("counter lost")
	}
	return int64(c.Base().(value.Int))
}

func checkClean(t *testing.T, f *fixture) {
	t.Helper()
	if err := f.chk.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPrimaryValidation(t *testing.T) {
	g, err := guardian.New(1)
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New()
	b1, _ := NewBackup(BackupConfig{ID: 101, Primary: 1})
	b2, _ := NewBackup(BackupConfig{ID: 101, Primary: 1})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil site", Config{Self: 1, Net: net, Quorum: 1}},
		{"nil transport", Config{Self: 1, Site: g.Site(), Quorum: 1}},
		{"quorum zero", Config{Self: 1, Site: g.Site(), Net: net, Quorum: 0}},
		{"quorum beyond copies", Config{Self: 1, Site: g.Site(), Net: net, Quorum: 3, Replicas: []Replica{b1}}},
		{"duplicate replica ids", Config{Self: 1, Site: g.Site(), Net: net, Quorum: 2, Replicas: []Replica{b1, b2}}},
	}
	for _, tc := range cases {
		if _, err := NewPrimary(tc.cfg); err == nil {
			t.Fatalf("%s: NewPrimary accepted the config", tc.name)
		}
	}
	if _, err := NewPrimary(Config{Self: 1, Site: g.Site(), Net: net, Quorum: 2, Replicas: []Replica{b1}}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// The steady state: every commit's force completes only after both
// backups hold the prefix, and all three copies agree byte-for-byte on
// the durable boundary.
func TestCommitReplicatesToQuorum(t *testing.T) {
	f := newFixture(t, 2)
	initCounter(t, f.g)
	for _, d := range []int64{5, 7, -2} {
		if err := addCommit(f.g, d); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(t, f.g); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	st := f.p.Status()
	if st.Role != wire.RolePrimary || st.Alive != 2 || st.Replicas != 2 || st.Quorum != 2 {
		t.Fatalf("primary status = %+v", st)
	}
	if st.QuorumBytes != st.Durable || st.Durable == 0 {
		t.Fatalf("quorum boundary %d lags durable %d", st.QuorumBytes, st.Durable)
	}
	for _, b := range f.backups {
		bs := b.Status()
		if bs.Role != wire.RoleBackup || bs.Durable != st.Durable {
			t.Fatalf("backup %d status = %+v, want backup at %d", b.ID(), bs, st.Durable)
		}
	}
	rounds, leads, rides := f.p.Stats()
	if rounds == 0 || leads == 0 {
		t.Fatalf("stats = (%d, %d, %d), want at least one led round", rounds, leads, rides)
	}
	checkClean(t, f)
}

// Quorum 1 disables the force gate entirely: commits complete without
// any replication round.
func TestQuorumOneNeverBlocks(t *testing.T) {
	f := newFixture(t, 1)
	initCounter(t, f.g)
	if err := addCommit(f.g, 3); err != nil {
		t.Fatal(err)
	}
	if rounds, _, _ := f.p.Stats(); rounds != 0 {
		t.Fatalf("rounds = %d, want 0 with quorum 1", rounds)
	}
	if err := f.p.WaitQuorum(stablelog.NoLSN); err != nil {
		t.Fatalf("WaitQuorum(NoLSN) = %v", err)
	}
	checkClean(t, f)
}

// With one of two backups down, 2-of-3 still commits; after the node
// returns, the next commit ships the whole backlog (the catch-up).
func TestOneBackupDownQuorumHolds(t *testing.T) {
	f := newFixture(t, 2)
	f.net.SetDown(backupIDs[0], true)
	initCounter(t, f.g)
	if err := addCommit(f.g, 5); err != nil {
		t.Fatalf("commit with one backup down: %v", err)
	}
	st := f.p.Status()
	if st.Alive != 1 {
		t.Fatalf("alive = %d, want 1", st.Alive)
	}
	if b := f.backups[0].Status(); b.Durable != 0 {
		t.Fatalf("down backup durable = %d, want 0", b.Durable)
	}
	if b := f.backups[1].Status(); b.Durable != st.Durable {
		t.Fatalf("up backup durable = %d, want %d", b.Durable, st.Durable)
	}

	f.net.SetDown(backupIDs[0], false)
	if err := addCommit(f.g, 2); err != nil {
		t.Fatal(err)
	}
	st = f.p.Status()
	if st.Alive != 2 {
		t.Fatalf("alive = %d after heal, want 2", st.Alive)
	}
	if b := f.backups[0].Status(); b.Durable != st.Durable {
		t.Fatalf("healed backup durable = %d, want %d", b.Durable, st.Durable)
	}
	caught := false
	for _, e := range f.rec.Events() {
		if e.Kind == obs.KindRepCatchup && e.To == uint64(backupIDs[0]) {
			caught = true
		}
	}
	if !caught {
		t.Fatal("no rep.catchup event for the healed backup")
	}
	checkClean(t, f)
}

// Both backups down: the force cannot reach 2-of-3, the commit fails
// with ErrQuorumLost, and no durable outcome is acknowledged (R4 would
// flag it). After the network heals the guardian commits again.
func TestQuorumLost(t *testing.T) {
	f := newFixture(t, 2)
	initCounter(t, f.g)
	f.net.SetDown(backupIDs[0], true)
	f.net.SetDown(backupIDs[1], true)
	partitioned := f.rec.Len()
	if err := addCommit(f.g, 9); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("commit with both backups down = %v, want ErrQuorumLost", err)
	}
	for _, e := range f.rec.Events()[partitioned:] {
		if e.Kind == obs.KindRepQuorum && e.OK {
			t.Fatal("a quorum round reported OK with both backups down")
		}
	}
	f.net.SetDown(backupIDs[0], false)
	f.net.SetDown(backupIDs[1], false)
	// The failed action's outcome is ambiguous and it still holds the
	// counter's lock, so the post-heal commit uses a fresh object.
	a := f.g.Begin()
	c2, err := a.NewAtomic(value.Int(1))
	if err == nil {
		err = a.SetVar("c2", c2)
	}
	if err == nil {
		err = a.Commit()
	}
	if err != nil {
		t.Fatalf("commit after heal: %v", err)
	}
	st := f.p.Status()
	for _, b := range f.backups {
		if got := b.Status().Durable; got != st.Durable {
			t.Fatalf("backup %d durable = %d after heal, want %d", b.ID(), got, st.Durable)
		}
	}
	checkClean(t, f)
}

// A cut primary–backup link is indistinguishable from that backup being
// down: quorum holds on the surviving majority.
func TestLinkCutQuorumHolds(t *testing.T) {
	f := newFixture(t, 2)
	initCounter(t, f.g)
	f.net.Cut(ids.GuardianID(1), backupIDs[1], true)
	if err := addCommit(f.g, 4); err != nil {
		t.Fatalf("commit with one link cut: %v", err)
	}
	if b := f.backups[1].Status(); b.Durable == f.p.Status().Durable {
		t.Fatal("cut-off backup received the shipment")
	}
	f.net.Cut(ids.GuardianID(1), backupIDs[1], false)
	if err := addCommit(f.g, 4); err != nil {
		t.Fatal(err)
	}
	if b := f.backups[1].Status(); b.Durable != f.p.Status().Durable {
		t.Fatalf("backup durable = %d after heal, want %d", b.Durable, f.p.Status().Durable)
	}
	checkClean(t, f)
}

// Promotion: the backup bumps its epoch, recovers the received prefix
// with the existing backward-scan recovery, and serves the committed
// state; the deposed primary's next commit fails with ErrStaleReplica
// and stays fenced forever after.
func TestPromoteTakesOverAndFencesOldPrimary(t *testing.T) {
	f := newFixture(t, 2)
	initCounter(t, f.g)
	for _, d := range []int64{5, 7} {
		if err := addCommit(f.g, d); err != nil {
			t.Fatal(err)
		}
	}
	b := f.backups[0]
	g2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := guardian.CheckRecovered(g2); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, g2); got != 12 {
		t.Fatalf("promoted counter = %d, want 12", got)
	}
	if !b.Promoted() || b.Guardian() != g2 {
		t.Fatal("promotion state not latched")
	}
	if again, err := b.Promote(); err != nil || again != g2 {
		t.Fatalf("second Promote = (%p, %v), want the same guardian", again, err)
	}
	if st := b.Status(); st.Role != wire.RolePrimary || st.Epoch != 2 {
		t.Fatalf("promoted status = %+v, want primary at epoch 2", st)
	}

	// The deposed primary must refuse to acknowledge anything more.
	if err := addCommit(f.g, 100); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("deposed commit = %v, want ErrStaleReplica", err)
	}
	// The fence is latched: every later quorum wait fails immediately,
	// without contacting anyone (the failed commit above still holds its
	// locks — its outcome is ambiguous — so probe WaitQuorum directly).
	rounds, _, _ := f.p.Stats()
	if err := f.p.WaitQuorum(stablelog.LSN(0)); !errors.Is(err, ErrStaleReplica) {
		t.Fatalf("deposed WaitQuorum = %v, want ErrStaleReplica", err)
	}
	if r2, _, _ := f.p.Stats(); r2 != rounds {
		t.Fatalf("deposed primary ran %d more rounds", r2-rounds)
	}
	// The promoted guardian keeps serving new commits (unreplicated).
	if err := addCommit(g2, 8); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, g2); got != 20 {
		t.Fatalf("promoted counter = %d, want 20", got)
	}
	promoted := false
	for _, e := range f.rec.Events() {
		if e.Kind == obs.KindRepPromote && e.Gid == uint64(backupIDs[0]) {
			promoted = true
		}
	}
	if !promoted {
		t.Fatal("no rep.promote event")
	}
	checkClean(t, f)
}

// Concurrent Promote calls recover the volume once: every caller gets
// the same guardian, and no caller is left holding a second guardian
// over the volume the first one serves.
func TestConcurrentPromoteRecoversOnce(t *testing.T) {
	f := newFixture(t, 2)
	initCounter(t, f.g)
	for d := int64(1); d <= 20; d++ {
		if err := addCommit(f.g, d); err != nil {
			t.Fatal(err)
		}
	}
	b := f.backups[0]
	recoveries := func() int {
		n := 0
		for _, e := range f.rec.Events() {
			if e.Kind == obs.KindRecoveryStart && e.Gid == uint64(primaryID) {
				n++
			}
		}
		return n
	}
	before := recoveries()

	const callers = 8
	got := make([]*guardian.Guardian, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got[i], errs[i] = b.Promote()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
		if got[i] != got[0] {
			t.Fatalf("caller %d got guardian %p, caller 0 got %p", i, got[i], got[0])
		}
	}
	if b.Guardian() != got[0] {
		t.Fatalf("backup caches guardian %p, callers got %p", b.Guardian(), got[0])
	}
	if n := recoveries() - before; n != 1 {
		t.Fatalf("%d recoveries ran over the volume, want 1", n)
	}
	if v := counterValue(t, got[0]); v != 210 {
		t.Fatalf("promoted counter = %d, want 210", v)
	}
}

// A promoted backup refuses appends and snapshots from the deposed
// primary in-band: it acks its own higher epoch and applies nothing.
func TestPromotedBackupRefusesStaleTraffic(t *testing.T) {
	b := newBackup(t, 101, nil, nil)
	if _, err := b.Promote(); err != nil {
		t.Fatal(err)
	}
	before := b.Status().Durable
	ack, err := b.Append(wire.RepAppend{Epoch: 1, Start: before})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Epoch != 2 || b.Status().Durable != before {
		t.Fatalf("stale append: ack %+v, durable %d", ack, b.Status().Durable)
	}
	if ack, err := b.Snapshot(wire.RepSnapshot{Epoch: 1}); err != nil || ack.Epoch != 2 {
		t.Fatalf("stale snapshot: ack %+v, %v", ack, err)
	}
	if ack, err := b.Heartbeat(wire.RepHeartbeat{Epoch: 1}); err != nil || ack.Epoch != 2 {
		t.Fatalf("stale heartbeat: ack %+v, %v", ack, err)
	}
}

// swapReplica lets a test replace the backup behind a fixed replica
// identity — the "node restarted" and "node lost its disk" scenarios.
type swapReplica struct {
	mu sync.Mutex
	b  *Backup
}

func (s *swapReplica) get() *Backup {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b
}
func (s *swapReplica) set(b *Backup) {
	s.mu.Lock()
	s.b = b
	s.mu.Unlock()
}
func (s *swapReplica) ID() ids.GuardianID { return s.get().ID() }
func (s *swapReplica) Append(a wire.RepAppend) (wire.RepAck, error) {
	return s.get().Append(a)
}
func (s *swapReplica) Heartbeat(h wire.RepHeartbeat) (wire.RepAck, error) {
	return s.get().Heartbeat(h)
}
func (s *swapReplica) Snapshot(sn wire.RepSnapshot) (wire.RepAck, error) {
	return s.get().Snapshot(sn)
}

// A restarted backup reopens its surviving volume and resumes from the
// durable prefix found there: the next append extends it, with no
// snapshot reset.
func TestRejoinResumesDurablePrefix(t *testing.T) {
	vol := stablelog.NewMemVolume(512)
	b1 := newBackup(t, 101, nil, vol)
	sw := &swapReplica{b: b1}
	b2 := newBackup(t, 102, nil, nil)
	f := newFixtureReps(t, 2, []Replica{sw, b2})
	initCounter(t, f.g)
	if err := addCommit(f.g, 5); err != nil {
		t.Fatal(err)
	}
	mid := b1.Status().Durable
	if mid == 0 {
		t.Fatal("backup received nothing before the restart")
	}
	// The process restarts: a fresh Backup over the same volume.
	sw.set(newBackup(t, 101, nil, vol))
	if got := sw.get().Status().Durable; got != mid {
		t.Fatalf("reopened backup durable = %d, want %d", got, mid)
	}
	if err := addCommit(f.g, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := sw.get().Status().Durable, f.p.Status().Durable; got != want {
		t.Fatalf("rejoined backup durable = %d, want %d", got, want)
	}
	for _, e := range f.rec.Events() {
		if e.Kind == obs.KindRepCatchup && e.Gid == 101 && e.Durable == 0 {
			t.Fatal("rejoin triggered a snapshot reset; it should resume the prefix")
		}
	}
	checkClean(t, f)
}

// A backup that lost its disk comes back empty: its ack (0) is behind
// the primary's cursor, the primary rewinds once and re-ships the whole
// log through the ordinary append path.
func TestDiskLossRewindsAndReships(t *testing.T) {
	b1 := newBackup(t, 101, nil, nil)
	sw := &swapReplica{b: b1}
	b2 := newBackup(t, 102, nil, nil)
	f := newFixtureReps(t, 2, []Replica{sw, b2})
	initCounter(t, f.g)
	if err := addCommit(f.g, 5); err != nil {
		t.Fatal(err)
	}
	if b1.Status().Durable == 0 {
		t.Fatal("backup received nothing before the disk loss")
	}
	sw.set(newBackup(t, 101, nil, nil)) // empty volume
	if err := addCommit(f.g, 7); err != nil {
		t.Fatal(err)
	}
	if got, want := sw.get().Status().Durable, f.p.Status().Durable; got != want {
		t.Fatalf("re-shipped backup durable = %d, want %d", got, want)
	}
	checkClean(t, f)
}

// preloadDivergent fills a backup with a forced log history this
// test's primary never wrote — the state of a replica rejoining after
// following a different (pre-failover) primary. Returns the divergent
// durable byte count.
func preloadDivergent(t *testing.T, b *Backup, entries int) uint64 {
	t.Helper()
	vol := stablelog.NewMemVolume(512)
	site, err := stablelog.CreateSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	log := site.Log()
	for i := 0; i < entries; i++ {
		payload := []byte(fmt.Sprintf("old-history-%04d-%s", i, string(bytes.Repeat([]byte{0xEE}, 96))))
		if _, err := log.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Force(); err != nil {
		t.Fatal(err)
	}
	durable, _ := log.TailInfo()
	raw, prevLen, err := log.ReadRaw(0, int(durable))
	if err != nil {
		t.Fatal(err)
	}
	ack, err := b.Append(wire.RepAppend{Epoch: 1, Start: 0, PrevLen: prevLen, Frames: raw})
	if err != nil || !ack.Applied || ack.Durable != durable {
		t.Fatalf("preload ack = %+v, %v, want %d bytes applied", ack, err, durable)
	}
	return durable
}

// A replica rejoining after a failover can hold a longer forced prefix
// of the old history than the new primary's entire log. Its refusal
// acks name offsets this primary never shipped; adopting them as
// replicated progress would acknowledge commits durable on one true
// copy only — an acked-but-lost commit at the next crash. The primary
// must reset the replica with a snapshot offer and re-ship, and quorum
// coverage must never exceed its own durable boundary.
func TestRejoinedLongerOldHistoryIsResetNotCounted(t *testing.T) {
	b := newBackup(t, 101, nil, nil)
	divergent := preloadDivergent(t, b, 64)
	f := newFixtureReps(t, 2, []Replica{b})
	initCounter(t, f.g)
	for _, d := range []int64{5, 7} {
		if err := addCommit(f.g, d); err != nil {
			t.Fatal(err)
		}
	}
	st := f.p.Status()
	if st.Durable >= divergent {
		t.Fatalf("history (%d bytes) outgrew the divergent preload (%d); raise the preload", st.Durable, divergent)
	}
	if st.QuorumBytes > st.Durable {
		t.Fatalf("quorum boundary %d exceeds the primary's %d durable bytes", st.QuorumBytes, st.Durable)
	}
	if st.QuorumBytes != st.Durable {
		t.Fatalf("quorum boundary %d lags durable %d after acknowledged commits", st.QuorumBytes, st.Durable)
	}
	if got := b.Status().Durable; got != st.Durable {
		t.Fatalf("backup durable = %d, want the old history (%d bytes) reset and re-shipped to %d", got, divergent, st.Durable)
	}
	// The shipped copy is the real history: a takeover recovers it.
	g2, err := b.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := guardian.CheckRecovered(g2); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, g2); got != 12 {
		t.Fatalf("promoted counter = %d, want 12", got)
	}
	checkClean(t, f)
}

// A heartbeat ack reveals the replica's tail but proves nothing about
// the content behind it, so it may only rewind the cursor — adopting a
// longer tail would let a rejoined replica's old-history bytes satisfy
// the quorum without a single shipped frame.
func TestHeartbeatNeverAdvancesQuorumCoverage(t *testing.T) {
	b := newBackup(t, 101, nil, nil)
	divergent := preloadDivergent(t, b, 64)
	vol := stablelog.NewMemVolume(512)
	site, err := stablelog.CreateSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := site.Log().ForceWrite([]byte("local-only entry")); err != nil {
		t.Fatal(err)
	}
	durable, _ := site.Log().TailInfo()
	p, err := NewPrimary(Config{Self: primaryID, Site: site, Quorum: 2, Net: netsim.New(), Replicas: []Replica{b}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	st := p.Status()
	if st.Alive != 1 {
		t.Fatalf("alive = %d after heartbeat, want 1", st.Alive)
	}
	if st.QuorumBytes != 0 {
		t.Fatalf("heartbeat turned the replica's %d divergent bytes into %d quorum-covered bytes (primary durable %d) without shipping anything", divergent, st.QuorumBytes, durable)
	}
}

// A replication round that never contacts a replica must not mark it
// alive or emit rep.catchup for it: a caught-up-but-down replica used
// to flip back to alive whenever the round target matched its cursor.
func TestRoundWithoutContactLeavesReplicaDead(t *testing.T) {
	f := newFixture(t, 3) // every copy must ack: rounds always run
	f.net.SetDown(backupIDs[1], true)
	log := f.g.Site().Log()
	if _, err := log.ForceWrite([]byte("entry")); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("force with backup %d down = %v, want ErrQuorumLost", backupIDs[1], err)
	}
	// Backup 101 acked the whole prefix; now it goes down too.
	f.net.SetDown(backupIDs[0], true)
	if err := f.p.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if alive := f.p.Status().Alive; alive != 0 {
		t.Fatalf("alive = %d after heartbeat with both backups down, want 0", alive)
	}
	mark := f.rec.Len()
	// 101's cursor equals the round target: the round has nothing to
	// ship it and must not resurrect it without a call.
	if err := f.p.WaitQuorum(stablelog.LSN(0)); !errors.Is(err, ErrQuorumLost) {
		t.Fatalf("WaitQuorum = %v, want ErrQuorumLost", err)
	}
	if alive := f.p.Status().Alive; alive != 0 {
		t.Fatalf("alive = %d after a no-contact round, want 0", alive)
	}
	for _, e := range f.rec.Events()[mark:] {
		if e.Kind == obs.KindRepCatchup {
			t.Fatalf("no-contact round emitted rep.catchup: %+v", e)
		}
	}
	checkClean(t, f)
}

// MaxEntry exists for replication: ReadRaw ships whole frames and can
// never split one across rep.appends, so the largest possible frame
// plus the message envelopes must fit a single wire frame. This pins
// the arithmetic against wire.MaxPayload.
func TestMaxEntryFrameFitsWirePayload(t *testing.T) {
	vol := stablelog.NewMemVolume(4096)
	site, err := stablelog.CreateSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	log := site.Log()
	if _, err := log.ForceWrite(make([]byte, stablelog.MaxEntry)); err != nil {
		t.Fatal(err)
	}
	durable, _ := log.TailInfo()
	raw, prevLen, err := log.ReadRaw(0, 1) // at least one frame: the whole max-size frame
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(raw)) != durable {
		t.Fatalf("ReadRaw returned %d of %d durable bytes", len(raw), durable)
	}
	app := wire.RepAppend{Epoch: ^uint64(0), Start: ^uint64(0), PrevLen: prevLen, Frames: raw}
	payload := wire.EncodeRequest(wire.Request{Op: wire.OpRepAppend, Arg: wire.EncodeRepAppend(app)})
	if len(payload) > wire.MaxPayload {
		t.Fatalf("a max-entry rep.append request is %d bytes, over wire.MaxPayload %d: no such entry could ever replicate", len(payload), wire.MaxPayload)
	}
}

// Housekeeping switches the log generation: every replica cursor names
// discarded bytes, so the primary offers a snapshot reset and re-ships
// the compacted log — the ch. 5 machinery is the catch-up snapshot.
func TestHousekeepingSwitchSnapshotsReplicas(t *testing.T) {
	f := newFixture(t, 2)
	initCounter(t, f.g)
	for _, d := range []int64{5, 7, 9} {
		if err := addCommit(f.g, d); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.g.Housekeep(core.HousekeepCompact); err != nil {
		t.Fatal(err)
	}
	if err := addCommit(f.g, 2); err != nil {
		t.Fatalf("commit after switch: %v", err)
	}
	st := f.p.Status()
	for _, b := range f.backups {
		if got := b.Status().Durable; got != st.Durable {
			t.Fatalf("backup %d durable = %d after switch, want %d", b.ID(), got, st.Durable)
		}
	}
	reset := 0
	for _, e := range f.rec.Events() {
		if e.Kind == obs.KindRepCatchup && e.Durable == 0 && e.Gid != uint64(primaryID) {
			reset++
		}
	}
	if reset != 2 {
		t.Fatalf("%d snapshot resets, want one per backup", reset)
	}
	// The promoted copy of the compacted log still recovers the state.
	g2, err := f.backups[1].Promote()
	if err != nil {
		t.Fatal(err)
	}
	if err := guardian.CheckRecovered(g2); err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, g2); got != 23 {
		t.Fatalf("promoted counter = %d, want 23", got)
	}
	checkClean(t, f)
}
