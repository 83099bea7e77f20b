package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

// fastOpts keeps test clients snappy: tight backoff, few attempts.
func fastOpts() client.Options {
	return client.Options{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
}

// shipVia returns a HandoffShip hook that delivers chunks to the
// target over a fresh TCP client, the same wiring rosd uses.
func shipVia(t *testing.T) func(target string, hf wire.HandoffFrames) (wire.RepAck, error) {
	t.Helper()
	return func(target string, hf wire.HandoffFrames) (wire.RepAck, error) {
		c := client.New(target, fastOpts())
		defer c.Close()
		return c.HandoffInstall(hf)
	}
}

// TestShardDispatchAndWrongShard: requests carrying a shard id reach
// the registered guardian; an unhosted shard is refused with the
// server's routing table in-band.
func TestShardDispatchAndWrongShard(t *testing.T) {
	g1 := newCounterGuardian(t, 1)
	g2 := newCounterGuardian(t, 2)
	s, addr := startServer(t, g1, Config{})
	s.AddShard(2, g2)
	tbl := shard.Table{Version: 1, Kind: shard.KindHash, Shards: []shard.Shard{
		{ID: 2, Addr: addr}, {ID: 3, Addr: "127.0.0.1:1"},
	}}
	if err := s.InstallTable(tbl); err != nil {
		t.Fatal(err)
	}

	c := dialRaw(t, addr)
	// Shard 0 is the guardian New was handed; shard 2 its own.
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "incr", Arg: flatInt(1)}).Result); got != 1 {
		t.Fatalf("shard-0 incr = %d, want 1", got)
	}
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Shard: 2, Handler: "incr", Arg: flatInt(5)}).Result); got != 5 {
		t.Fatalf("shard-2 incr = %d, want 5", got)
	}
	// The two counters are distinct guardians.
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "get"}).Result); got != 1 {
		t.Fatalf("shard-0 counter = %d, want 1", got)
	}

	// Unhosted shards — in the table or not — refuse with the table.
	for _, sh := range []uint32{3, 5} {
		resp, err := c.call(wire.Request{Op: wire.OpInvoke, Shard: sh, Handler: "get"})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != wire.StatusWrongShard {
			t.Fatalf("shard %d status = %s, want wrong-shard", sh, resp.Status)
		}
		got, err := shard.Decode(resp.Result)
		if err != nil {
			t.Fatalf("in-band table: %v", err)
		}
		if got.Version != 1 || len(got.Shards) != 2 {
			t.Fatalf("in-band table = %+v, want v1 with 2 shards", got)
		}
	}

	// Shard 0 is an entry like any other: a node that hosts only routed
	// shards refuses it the same way, so an unrouted client learns the
	// table at once instead of spending its retry budget on StatusRetry.
	only, onlyAddr := startServer(t, nil, Config{})
	only.AddShard(2, newCounterGuardian(t, 2))
	if err := only.InstallTable(tbl); err != nil {
		t.Fatal(err)
	}
	plain := client.New(onlyAddr, fastOpts())
	t.Cleanup(func() { plain.Close() })
	_, err := plain.Invoke("get", nil)
	var wse *client.WrongShardError
	if !errors.As(err, &wse) {
		t.Fatalf("shard-0 invoke on a shards-only node err = %v, want the wrong-shard refusal", err)
	}
	if got, err := wse.Table(); err != nil || got.Version != 1 || len(got.Shards) != 2 {
		t.Fatalf("shard-0 refusal carries table %+v (%v), want v1 with 2 shards", got, err)
	}
}

// TestRouteRPC: OpRoute serves the table, OpRouteInstall adopts newer
// tables and answers the current one either way.
func TestRouteRPC(t *testing.T) {
	s, addr := startServer(t, newCounterGuardian(t, 1), Config{})
	c := client.New(addr, fastOpts())
	t.Cleanup(func() { c.Close() })

	if _, err := c.Route(); !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("route on unsharded server err = %v, want remote error", err)
	}
	v1 := shard.Table{Version: 1, Kind: shard.KindHash, Shards: []shard.Shard{{ID: 2, Addr: addr}}}
	if err := s.InstallTable(v1); err != nil {
		t.Fatal(err)
	}
	got, err := c.Route()
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 {
		t.Fatalf("route version = %d, want 1", got.Version)
	}

	// A newer offer installs and is echoed back.
	v2, err := v1.WithAddr(2, "127.0.0.1:9")
	if err != nil {
		t.Fatal(err)
	}
	cur, err := c.RouteInstall(v2)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 {
		t.Fatalf("post-install version = %d, want 2", cur.Version)
	}
	// A stale offer is not an error; the answer teaches the newer table.
	cur, err = c.RouteInstall(v1)
	if err != nil {
		t.Fatal(err)
	}
	if cur.Version != 2 {
		t.Fatalf("stale install answered v%d, want v2", cur.Version)
	}
	// Server-side install of an older table is refused as stale.
	if err := s.InstallTable(v1); !errors.Is(err, transport.ErrStaleRoute) {
		t.Fatalf("stale InstallTable err = %v, want ErrStaleRoute", err)
	}
}

// TestStatusShardRows: the status report carries one row per hosted
// shard in ascending id order.
func TestStatusShardRows(t *testing.T) {
	s, addr := startServer(t, newCounterGuardian(t, 1), Config{})
	g3 := newCounterGuardian(t, 3)
	g2 := newCounterGuardian(t, 2)
	s.AddShard(3, g3)
	s.AddShard(2, g2)

	c := client.New(addr, fastOpts())
	t.Cleanup(func() { c.Close() })
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 2 || st.Shards[0].ID != 2 || st.Shards[1].ID != 3 {
		t.Fatalf("shard rows = %+v, want ids [2 3]", st.Shards)
	}
	for _, row := range st.Shards {
		if row.Durable == 0 {
			t.Fatalf("shard %d reports 0 durable bytes; its boot commit is on disk", row.ID)
		}
	}
}

// TestBeginCommittingDoneOutcome drives the client-side coordinator
// records over the wire: Begin mints the action at the shard, a joined
// invoke does work, Committing forces the point of no return (outcome
// queries now answer committed), Commit applies, Done releases the
// durable record (§2.2.2).
func TestBeginCommittingDoneOutcome(t *testing.T) {
	g2 := newCounterGuardian(t, 2)
	s, addr := startServer(t, newCounterGuardian(t, 1), Config{})
	s.AddShard(2, g2)
	c := client.New(addr, fastOpts())
	t.Cleanup(func() { c.Close() })

	aid, err := c.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if aid.Coordinator != 2 {
		t.Fatalf("begin minted coordinator %d, want shard 2's guardian", aid.Coordinator)
	}
	if _, err := c.InvokeJoinShard(2, aid, "incr", value.Int(4)); err != nil {
		t.Fatal(err)
	}
	v, err := c.PrepareShard(2, aid)
	if err != nil {
		t.Fatal(err)
	}
	if v != twopc.VotePrepared {
		t.Fatalf("vote = %v, want prepared", v)
	}
	if err := c.Committing(2, aid, []ids.GuardianID{2}); err != nil {
		t.Fatal(err)
	}
	out, err := c.OutcomeShard(2, aid)
	if err != nil {
		t.Fatal(err)
	}
	if out != twopc.OutcomeCommitted {
		t.Fatalf("outcome after committing = %v, want committed", out)
	}
	if err := c.CommitShard(2, aid); err != nil {
		t.Fatal(err)
	}
	if err := c.Done(2, aid); err != nil {
		t.Fatal(err)
	}
	// In-memory the done entry still answers committed (a late query
	// gets the truth); only after recovery does the released record
	// fall back to presumed abort.
	out, err = c.OutcomeShard(2, aid)
	if err != nil {
		t.Fatal(err)
	}
	if out != twopc.OutcomeCommitted {
		t.Fatalf("outcome after done = %v, want committed", out)
	}
	if got := unflatInt(t, mustInvoke(t, c, 2, "get")); got != 4 {
		t.Fatalf("counter = %d after committed 2PC, want 4", got)
	}
}

// mustInvoke runs a complete owned action on a shard and returns the
// flattened result.
func mustInvoke(t *testing.T, c *client.Client, sh uint32, handler string) []byte {
	t.Helper()
	v, err := c.InvokeShard(sh, handler, nil)
	if err != nil {
		t.Fatal(err)
	}
	return value.Flatten(v, func(value.Obj) {})
}

// TestHandoffMovesShard is the oracle-verified handoff path: commit
// state into a shard on the source node, hand it to the target over
// the real ship path, and require the committed value to be served by
// the target while the source refuses with the rehomed table.
func TestHandoffMovesShard(t *testing.T) {
	srcRec, dstRec := &obs.Recorder{}, &obs.Recorder{}
	src, srcAddr := startServer(t, newCounterGuardian(t, 1), Config{HandoffShip: shipVia(t), Tracer: srcRec})
	_, dstAddr := startServer(t, newCounterGuardian(t, 10), Config{
		OnAdopt: func(id uint32, g2 *guardian.Guardian) { registerCounter(g2) },
		Tracer:  dstRec,
	})

	g2 := newCounterGuardian(t, 2)
	src.AddShard(2, g2)
	tbl := shard.Table{Version: 1, Kind: shard.KindHash, Shards: []shard.Shard{{ID: 2, Addr: srcAddr}}}
	if err := src.InstallTable(tbl); err != nil {
		t.Fatal(err)
	}

	c := client.New(srcAddr, fastOpts())
	t.Cleanup(func() { c.Close() })
	const commits = 5
	for i := 0; i < commits; i++ {
		if _, err := c.InvokeShard(2, "incr", value.Int(3)); err != nil {
			t.Fatal(err)
		}
	}

	newTbl, err := c.Handoff(2, dstAddr)
	if err != nil {
		t.Fatal(err)
	}
	if newTbl.Version != 2 {
		t.Fatalf("published table v%d, want v2", newTbl.Version)
	}
	if owner, ok := newTbl.Lookup(2); !ok || owner.Addr != dstAddr {
		t.Fatalf("published owner of shard 2 = %+v, want %s", owner, dstAddr)
	}

	// Oracle: the target serves the exact committed value.
	cd := client.New(dstAddr, fastOpts())
	t.Cleanup(func() { cd.Close() })
	got, err := cd.InvokeShard(2, "get", nil)
	if err != nil {
		t.Fatalf("post-handoff read at target: %v", err)
	}
	if int64(got.(value.Int)) != commits*3 {
		t.Fatalf("moved counter = %v, want %d", got, commits*3)
	}

	// The source now refuses shard 2, teaching the rehomed table.
	_, err = c.InvokeShard(2, "get", nil)
	var wse *client.WrongShardError
	if !errors.As(err, &wse) {
		t.Fatalf("post-handoff source err = %v, want wrong-shard", err)
	}
	if !errors.Is(err, transport.ErrWrongShard) {
		t.Fatalf("wrong-shard error does not wrap the sentinel: %v", err)
	}
	inband, err := wse.Table()
	if err != nil {
		t.Fatal(err)
	}
	if inband.Version != 2 {
		t.Fatalf("in-band table v%d, want v2", inband.Version)
	}

	// The trace tells the story: begin and publish at the source, adopt
	// at the target.
	notes := map[string]bool{}
	for _, e := range srcRec.Events() {
		if e.Kind == obs.KindShardHandoff {
			notes[e.Note] = true
		}
	}
	if !notes["begin"] || !notes["publish"] {
		t.Fatalf("source handoff notes = %v, want begin and publish", notes)
	}
	adopted := false
	for _, e := range dstRec.Events() {
		if e.Kind == obs.KindShardHandoff && e.Note == "adopt" {
			adopted = true
		}
	}
	if !adopted {
		t.Fatal("target trace has no shard.handoff adopt event")
	}

	// A resent Done (a retry after a lost ack) re-acks the adopted shard.
	again := wire.HandoffFrames{Shard: 2, Done: true, App: wire.RepAppend{Epoch: 1}}
	ack, err := cd.HandoffInstall(again)
	if err != nil {
		t.Fatalf("resent done: %v", err)
	}
	if !ack.Applied || ack.Durable == 0 {
		t.Fatalf("resent done ack = %+v, want applied at the adopted tail", ack)
	}
}
