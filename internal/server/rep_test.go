package server

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/stablelog"
	"repro/internal/value"
	"repro/internal/wire"
)

// These tests close the replication loop over real sockets: a
// replog.Primary ships through client.Transport + RemoteReplica to
// rosd servers hosting Backups, and the rep.* event stream must be
// byte-identical to the same history run over the deterministic
// simulation — the package's determinism contract, proven end to end.

// repSig renders one replication or network event exactly as the
// replog partition matrix does; other kinds render empty and are
// dropped.
func repSig(e obs.Event) string {
	switch e.Kind {
	case obs.KindNetCall:
		if e.OK {
			return fmt.Sprintf("call %d->%d", e.From, e.To)
		}
		return fmt.Sprintf("call %d->%d refused", e.From, e.To)
	case obs.KindRepSend:
		return fmt.Sprintf("send %d->%d @%d", e.From, e.To, e.Durable)
	case obs.KindRepAck:
		return fmt.Sprintf("ack %d->%d =%d", e.From, e.To, e.Durable)
	case obs.KindRepRecv:
		return fmt.Sprintf("recv[%d] =%d", e.Gid, e.Durable)
	case obs.KindRepQuorum:
		word := "short"
		if e.OK {
			word = "ok"
		}
		return fmt.Sprintf("quorum =%d %s", e.Durable, word)
	case obs.KindRepCatchup:
		if e.From != 0 {
			return fmt.Sprintf("catchup %d->%d =%d", e.From, e.To, e.Durable)
		}
		return fmt.Sprintf("reset[%d]", e.Gid)
	case obs.KindRepPromote:
		return fmt.Sprintf("promote[%d] =%d", e.Gid, e.Durable)
	default:
		return ""
	}
}

func repSigText(rec *obs.Recorder) []byte {
	var buf bytes.Buffer
	for _, e := range rec.Events() {
		if s := repSig(e); s != "" {
			buf.WriteString(s)
			buf.WriteByte('\n')
		}
	}
	return buf.Bytes()
}

// repHistEnv is one side of the netsim/TCP mirror: a bare replicated
// log plus the partition controls, with every component tracing into
// rec.
type repHistEnv struct {
	log     *stablelog.Log
	setDown func(ids.GuardianID, bool)
	cut     func(a, b ids.GuardianID, cut bool)
	rec     *obs.Recorder
}

// driveRepHistory runs the scripted partition history — forces under
// single-node and double-node outages, a heal with backlog catch-up, a
// cut link — and returns the rendered rep.* stream.
func driveRepHistory(t *testing.T, env *repHistEnv) []byte {
	t.Helper()
	force := func(s string, wantErr error) {
		t.Helper()
		if len(s) != 3 {
			t.Fatalf("payload %q: the mirror uses 3-byte payloads", s)
		}
		lsn, err := env.log.Write([]byte(s))
		if err != nil {
			t.Fatal(err)
		}
		if err := env.log.ForceTo(lsn); !errors.Is(err, wantErr) {
			t.Fatalf("ForceTo(%q) = %v, want %v", s, err, wantErr)
		}
	}
	force("h-0", nil)
	env.setDown(101, true)
	force("h-1", nil)
	env.setDown(102, true)
	force("h-2", replog.ErrQuorumLost)
	env.setDown(101, false)
	force("h-3", nil)
	env.setDown(102, false)
	env.cut(1, 101, true)
	force("h-4", nil)
	env.cut(1, 101, false)
	force("h-5", nil)
	return repSigText(env.rec)
}

// newRepSite builds a bare primary log site for the mirror.
func newRepSite(t *testing.T) *stablelog.Site {
	t.Helper()
	site, err := stablelog.CreateSite(stablelog.NewMemVolume(512))
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func newNetsimEnv(t *testing.T) *repHistEnv {
	t.Helper()
	rec := &obs.Recorder{}
	net := netsim.New()
	net.SetTracer(rec)
	site := newRepSite(t)
	var reps []replog.Replica
	for _, id := range []ids.GuardianID{101, 102} {
		b, err := replog.NewBackup(replog.BackupConfig{ID: id, Primary: 1, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, b)
	}
	p, err := replog.NewPrimary(replog.Config{
		Self: 1, Site: site, Quorum: 2, Net: net, Replicas: reps, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	site.SetReplicator(p)
	return &repHistEnv{log: site.Log(), setDown: net.SetDown, cut: net.Cut, rec: rec}
}

func newTCPEnv(t *testing.T) *repHistEnv {
	t.Helper()
	rec := &obs.Recorder{}
	tp := client.NewTransport()
	tp.SetTracer(rec)
	t.Cleanup(func() {
		if err := tp.Close(); err != nil {
			t.Errorf("transport close: %v", err)
		}
	})
	site := newRepSite(t)
	var reps []replog.Replica
	for _, id := range []ids.GuardianID{101, 102} {
		b, err := replog.NewBackup(replog.BackupConfig{ID: id, Primary: 1, Tracer: rec})
		if err != nil {
			t.Fatal(err)
		}
		_, addr := startServer(t, nil, Config{Backup: b})
		tp.Register(id, client.New(addr, client.Options{}))
		r, err := tp.Replica(id)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, r)
	}
	p, err := replog.NewPrimary(replog.Config{
		Self: 1, Site: site, Quorum: 2, Net: tp, Replicas: reps, Tracer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	site.SetReplicator(p)
	return &repHistEnv{log: site.Log(), setDown: tp.SetDown, cut: tp.Cut, rec: rec}
}

// The partition matrix runs byte-identically over netsim and loopback
// TCP: same scripted history, same rendered rep.* stream.
func TestRepPartitionMatrixTCPMirror(t *testing.T) {
	sim := driveRepHistory(t, newNetsimEnv(t))
	tcp := driveRepHistory(t, newTCPEnv(t))
	if len(sim) == 0 {
		t.Fatal("the history produced no rep events")
	}
	if !bytes.Equal(sim, tcp) {
		t.Fatalf("TCP stream diverged from netsim:\n--- netsim\n%s--- tcp\n%s", sim, tcp)
	}
}

// Failover over real sockets: a guardian's commits replicate through
// TCP backups, an operator-style Promote on a backup server installs
// the recovered guardian, the recovered state serves reads, and the
// deposed primary's next commit is fenced by the bumped epoch.
func TestRepFailoverOverTCP(t *testing.T) {
	g := newCounterGuardian(t, 1)
	g.SetSynchronousForces(true)

	tp := client.NewTransport()
	t.Cleanup(func() {
		if err := tp.Close(); err != nil {
			t.Errorf("transport close: %v", err)
		}
	})
	register := func(ng *guardian.Guardian) {
		ng.RegisterHandler("get", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
			c, ok := ng.VarAtomic("counter")
			if !ok {
				return nil, errors.New("counter lost")
			}
			return sub.Read(c)
		})
	}
	var reps []replog.Replica
	var srvs []*Server
	for _, id := range []ids.GuardianID{101, 102} {
		b, err := replog.NewBackup(replog.BackupConfig{ID: id, Primary: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, addr := startServer(t, nil, Config{Backup: b, OnAdopt: func(_ uint32, g *guardian.Guardian) { register(g) }})
		srvs = append(srvs, srv)
		tp.Register(id, client.New(addr, client.Options{}))
		r, err := tp.Replica(id)
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, r)
	}
	p, err := replog.NewPrimary(replog.Config{
		Self: 1, Site: g.Site(), Quorum: 2, Net: tp, Replicas: reps,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.SetReplicator(p)

	incr := func(delta int64) error {
		a := g.Begin()
		c, ok := g.VarAtomic("counter")
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
	if err := incr(7); err != nil {
		t.Fatalf("replicated commit: %v", err)
	}

	// Both backups hold the primary's durable prefix.
	durable, _ := g.Site().Log().TailInfo()
	c101 := tp.Peer(101)
	st, err := c101.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Rep.Role != wire.RoleBackup || st.Rep.Durable != durable {
		t.Fatalf("backup status = %+v, want role backup at %d durable bytes", st, durable)
	}

	// An unpromoted backup serves no guardian ops.
	impatient := client.New(c101.Addr(), client.Options{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	t.Cleanup(func() { impatient.Close() })
	if _, err := impatient.Invoke("get", nil); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("pre-promote invoke err = %v, want ErrBusy", err)
	}

	// Promote backup 101 and read the recovered counter over the wire.
	pst, err := c101.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if pst.Role != wire.RolePrimary || pst.Epoch != 2 {
		t.Fatalf("post-promote status = %+v, want primary at epoch 2", pst)
	}
	got, err := c101.Invoke("get", nil)
	if err != nil {
		t.Fatalf("promoted read: %v", err)
	}
	if int64(got.(value.Int)) != 7 {
		t.Fatalf("promoted counter = %v, want 7", got)
	}
	if srvs[0].Guardian() == nil || srvs[0].ID() != 1 {
		t.Fatalf("promoted server serves guardian %v, want the replicated identity 1", srvs[0].ID())
	}

	// The deposed primary is fenced by the promoted epoch, over the wire.
	if err := incr(1); !errors.Is(err, replog.ErrStaleReplica) {
		t.Fatalf("deposed commit err = %v, want ErrStaleReplica", err)
	}

	// Promote is idempotent and keeps serving the same guardian.
	again, err := c101.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if again.Role != wire.RolePrimary || again.Epoch != pst.Epoch {
		t.Fatalf("second promote status = %+v, want %+v", again, pst)
	}
}

// A promotion carrying the deposed primary's quorum-acked floor must
// refuse a backup whose received log is shorter: somewhere a longer
// copy holds an acknowledged commit this one would silently drop.
func TestPromoteFloorRefusesLaggingBackup(t *testing.T) {
	b, err := replog.NewBackup(replog.BackupConfig{ID: 101, Primary: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, nil, Config{Backup: b})
	c := client.New(addr, client.Options{})
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	})

	// The empty backup holds 0 durable bytes; any positive floor refuses.
	if _, err := c.PromoteMin(1); err == nil {
		t.Fatal("PromoteMin(1) on an empty backup succeeded; an acked commit on a longer copy would be lost")
	} else if !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("PromoteMin(1) err = %v, want a remote status error", err)
	}
	if b.Promoted() {
		t.Fatal("refused promotion still promoted the backup")
	}

	// A floor the backup meets promotes it (the non-empty-arg path).
	st, err := c.PromoteMin(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Role != wire.RolePrimary {
		t.Fatalf("post-promote status = %+v, want primary", st)
	}

	// The floor only gates the takeover itself: re-promoting an already
	// promoted backup stays idempotent whatever floor rides along.
	if _, err := c.PromoteMin(1 << 30); err != nil {
		t.Fatalf("idempotent re-promote with a floor: %v", err)
	}
}

// OpStatus on a plain server reports standalone with its own log
// boundary; the Config.Status hook overrides the report wholesale.
func TestStatusOverTCP(t *testing.T) {
	g := newCounterGuardian(t, 9)
	_, addr := startServer(t, g, Config{})
	c := client.New(addr, client.Options{})
	t.Cleanup(func() { c.Close() })
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	durable, _ := g.Site().Log().TailInfo()
	if st.Rep.Role != wire.RoleStandalone || st.Rep.Durable != durable || st.Rep.QuorumBytes != durable {
		t.Fatalf("standalone status = %+v, want standalone at %d durable bytes", st, durable)
	}
	if len(st.Shards) != 0 {
		t.Fatalf("unsharded server reports %d shard rows, want none", len(st.Shards))
	}

	// A rep op against a server with no hosted backup is a protocol
	// error, not a retry.
	if _, err := c.RepHeartbeat(wire.RepHeartbeat{Epoch: 1}); !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("rep op on non-backup err = %v, want ErrRemote", err)
	}

	want := wire.RepStatus{Role: wire.RolePrimary, Epoch: 3, Durable: 48, QuorumBytes: 32, Quorum: 2, Replicas: 2, Alive: 1}
	g2 := newCounterGuardian(t, 10)
	_, addr2 := startServer(t, g2, Config{
		Status: func() wire.RepStatus { return want },
	})
	c2 := client.New(addr2, client.Options{})
	t.Cleanup(func() { c2.Close() })
	st2, err := c2.Status()
	if err != nil {
		t.Fatal(err)
	}
	// The hook answers the replication fields; the server stamps the
	// served guardian's index counters on top.
	if idx, ok := g2.IndexStats(); ok {
		want.IdxHits = idx.Hits
		want.IdxMisses = idx.Misses
		want.IdxEntries = uint64(idx.Entries)
		want.IdxBytes = idx.Bytes
	}
	if st2.Rep != want {
		t.Fatalf("hooked status = %+v, want %+v", st2.Rep, want)
	}
}
