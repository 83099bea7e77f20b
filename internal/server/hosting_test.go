package server

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/wire"
)

// TestOneGuardianThreeHostings: the registry is the only hosting model,
// so the same guardian answers the same request sequence with the same
// bytes — and the node traces the same rpc.* lines — whether it was
// handed to New, registered as shard 0, or registered as a routed shard
// and addressed by its id. What may differ is pinned per row: the gid
// New stamps on the node's events, and where OpStatus reports the
// guardian (the node-level row for shard 0, a shard row otherwise).
func TestOneGuardianThreeHostings(t *testing.T) {
	joined := ids.ActionID{Coordinator: 9, Seq: 1}
	script := []wire.Request{
		{Op: wire.OpInvoke, Handler: "incr", Arg: flatInt(5)},
		{Op: wire.OpGet, Handler: "counter"},
		{Op: wire.OpInvoke, AID: joined, Handler: "incr", Arg: flatInt(3)},
		{Op: wire.OpPrepare, AID: joined},
		{Op: wire.OpCommit, AID: joined},
		{Op: wire.OpOutcome, AID: ids.ActionID{Coordinator: 1, Seq: 999}},
		{Op: wire.OpInvoke, Handler: "get"},
	}
	hostings := []struct {
		name  string
		shard uint32
		gid   uint64
		host  func(g *guardian.Guardian, cfg Config) *Server
	}{
		{"New(g)", 0, 1, func(g *guardian.Guardian, cfg Config) *Server { return New(g, cfg) }},
		{"New(nil)+AddShard(0,g)", 0, 0, func(g *guardian.Guardian, cfg Config) *Server {
			s := New(nil, cfg)
			s.AddShard(0, g)
			return s
		}},
		{"New(nil)+AddShard(7,g)", 7, 0, func(g *guardian.Guardian, cfg Config) *Server {
			s := New(nil, cfg)
			s.AddShard(7, g)
			return s
		}},
	}

	var refReplies [][]byte
	var refTrace string
	var refStatus wire.StatusReport
	for i, h := range hostings {
		rec := &obs.Recorder{}
		s := h.host(newCounterGuardian(t, 1), Config{Tracer: rec})
		addr := serve(t, s)
		c := dialRaw(t, addr)

		var replies [][]byte
		for n, req := range script {
			req.Shard = h.shard
			resp, err := c.call(req)
			if err != nil {
				t.Fatalf("%s: %s: %v", h.name, req.Op, err)
			}
			replies = append(replies, wire.EncodeResponse(resp))
			awaitReplies(t, rec, n+1)
		}
		status, err := wire.DecodeStatusReport(c.mustOK(t, wire.Request{Op: wire.OpStatus}).Result)
		if err != nil {
			t.Fatalf("%s: status: %v", h.name, err)
		}
		awaitReplies(t, rec, len(script)+1)

		var trace strings.Builder
		for _, e := range rec.Events() {
			if !strings.HasPrefix(e.Kind.String(), "rpc.") {
				continue
			}
			if e.Gid != h.gid {
				t.Errorf("%s: %s stamped gid %d, want %d", h.name, e.Kind, e.Gid, h.gid)
			}
			e.Gid = 0
			trace.WriteString(e.Text() + "\n")
		}

		if i == 0 {
			refReplies, refTrace, refStatus = replies, trace.String(), status
			if got := unflatInt(t, mustDecode(t, replies[len(replies)-1]).Result); got != 8 {
				t.Fatalf("reference counter = %d after the script, want 8", got)
			}
			continue
		}
		for n := range script {
			if !bytes.Equal(replies[n], refReplies[n]) {
				t.Errorf("%s: reply %d (%s) = %+v, New(g) answered %+v", h.name, n, script[n].Op,
					mustDecode(t, replies[n]), mustDecode(t, refReplies[n]))
			}
		}
		if trace.String() != refTrace {
			t.Errorf("%s: rpc trace diverged from New(g):\n--- New(g)\n%s--- %s\n%s", h.name, refTrace, h.name, trace.String())
		}
		want := refStatus
		if h.shard != 0 {
			// A routed shard reports in its own row; the node-level row
			// keeps the aggregated idx.* counters and no log of its own.
			want.Shards = []wire.ShardStatus{{ID: h.shard, Role: wire.RoleStandalone,
				Durable: refStatus.Rep.Durable, IdxHits: refStatus.Rep.IdxHits, IdxMisses: refStatus.Rep.IdxMisses}}
			want.Rep.Durable, want.Rep.QuorumBytes = 0, 0
		}
		if !reflect.DeepEqual(status, want) {
			t.Errorf("%s: status = %+v, want %+v", h.name, status, want)
		}
	}
}

// awaitReplies waits until the trace holds n rpc.reply events: the
// server emits the event after the response is on the wire, so without
// the wait the next request's dispatch could overtake it in the trace.
func awaitReplies(t *testing.T, rec *obs.Recorder, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
		got := 0
		for _, e := range rec.Events() {
			if e.Kind == obs.KindRPCReply {
				got++
			}
		}
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace holds %d rpc.reply events, want %d", got, n)
		}
	}
}

func mustDecode(t *testing.T, b []byte) wire.Response {
	t.Helper()
	resp, err := wire.DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestAdoptFiresOnce: OpPromote and the Done step of an inbound handoff
// are the same receiver → guardian transition. Repeating either fires
// OnAdopt exactly once and re-acks the same durable boundary.
func TestAdoptFiresOnce(t *testing.T) {
	t.Run("promote", func(t *testing.T) {
		b, err := replog.NewBackup(replog.BackupConfig{ID: 101, Primary: 1})
		if err != nil {
			t.Fatal(err)
		}
		adopted := make(chan uint32, 8) // one slot per promote sent, and spare
		srv, addr := startServer(t, nil, Config{Backup: b,
			OnAdopt: func(id uint32, g *guardian.Guardian) { adopted <- id }})
		c := client.New(addr, fastOpts())
		t.Cleanup(func() { c.Close() })

		first, err := c.Promote()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			again, err := c.Promote()
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("repeated promote answered %+v, first answered %+v", again, first)
			}
		}
		if n := len(adopted); n != 1 || <-adopted != 0 {
			t.Fatalf("OnAdopt fired %d times, want exactly once, for shard 0", n)
		}
		if g, ok := srv.Shard(0); !ok || g != b.Guardian() {
			t.Fatal("shard 0 does not serve the guardian the receiver recovered")
		}
	})

	t.Run("handoff done", func(t *testing.T) {
		src, srcAddr := startServer(t, nil, Config{HandoffShip: shipVia(t)})
		adopted := make(chan uint32, 8) // one slot per Done sent, and spare
		dst, dstAddr := startServer(t, nil, Config{OnAdopt: func(id uint32, g *guardian.Guardian) {
			adopted <- id
			registerCounter(g)
		}})
		src.AddShard(2, newCounterGuardian(t, 2))
		if err := src.InstallTable(shard.Table{Version: 1, Kind: shard.KindHash,
			Shards: []shard.Shard{{ID: 2, Addr: srcAddr}}}); err != nil {
			t.Fatal(err)
		}
		c := client.New(srcAddr, fastOpts())
		t.Cleanup(func() { c.Close() })
		if _, err := c.InvokeShard(2, "incr", value.Int(4)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Handoff(2, dstAddr); err != nil {
			t.Fatal(err)
		}
		g, ok := dst.Shard(2)
		if !ok {
			t.Fatal("target does not serve the adopted shard")
		}
		durable, _ := g.Site().Log().TailInfo()
		for i := 0; i < 2; i++ {
			ack, err := dst.ApplyHandoff(wire.HandoffFrames{Shard: 2, Done: true, App: wire.RepAppend{Epoch: 1}})
			if err != nil {
				t.Fatalf("resent done: %v", err)
			}
			if !ack.Applied || ack.Durable != durable {
				t.Fatalf("resent done ack = %+v, want applied at the adopted tail %d", ack, durable)
			}
		}
		if n := len(adopted); n != 1 || <-adopted != 2 {
			t.Fatalf("OnAdopt fired %d times, want exactly once, for shard 2", n)
		}

		// Shard 0 is unrouted: neither end of a handoff accepts it, so a
		// peer cannot install an unaddressable guardian on this node.
		if _, err := dst.ApplyHandoff(wire.HandoffFrames{Shard: 0, Done: true}); err == nil {
			t.Fatal("ApplyHandoff adopted shard 0")
		}
		if _, ok := dst.Shard(0); ok {
			t.Fatal("refused shard-0 handoff still registered an entry")
		}
		src.AddShard(0, newCounterGuardian(t, 1))
		if _, err := c.Handoff(0, dstAddr); err == nil {
			t.Fatal("handoff moved shard 0")
		}
		if _, ok := src.Shard(0); !ok {
			t.Fatal("refused shard-0 handoff unregistered the shard")
		}
	})
}
