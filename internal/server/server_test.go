package server

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

// newCounterGuardian builds a guardian with a committed "counter"
// atomic and incr/get handlers over it.
func newCounterGuardian(t *testing.T, id ids.GuardianID) *guardian.Guardian {
	t.Helper()
	g, err := guardian.New(id)
	if err != nil {
		t.Fatal(err)
	}
	boot := g.Begin()
	counter, err := boot.NewAtomic(value.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.SetVar("counter", counter); err != nil {
		t.Fatal(err)
	}
	if err := boot.Commit(); err != nil {
		t.Fatal(err)
	}
	registerCounter(g)
	return g
}

// registerCounter installs the counter handlers on g; split out so an
// adopted (handoff-recovered) guardian gets the same handlers.
func registerCounter(g *guardian.Guardian) {
	g.RegisterHandler("incr", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		c, _ := g.VarAtomic("counter")
		delta := int64(1)
		if arg != nil {
			delta = int64(arg.(value.Int))
		}
		if err := sub.Update(c, func(cur value.Value) value.Value {
			return value.Int(int64(cur.(value.Int)) + delta)
		}); err != nil {
			return nil, err
		}
		return sub.Read(c)
	})
	g.RegisterHandler("get", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		c, _ := g.VarAtomic("counter")
		return sub.Read(c)
	})
	g.RegisterHandler("fail", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		return nil, errors.New("handler says no")
	})
}

// startServer runs a server over g on a loopback listener and returns
// it with its address.
func startServer(t *testing.T, g *guardian.Guardian, cfg Config) (*Server, string) {
	t.Helper()
	s := New(g, cfg)
	return s, serve(t, s)
}

// serve runs an already-built server on a loopback listener, closing it
// when the test ends.
func serve(t *testing.T, s *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := s.Serve(ln); !errors.Is(err, ErrClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return ln.Addr().String()
}

// raw is a test client speaking the wire protocol directly; the real
// client package rides on top of the same frames.
type raw struct {
	nc   net.Conn
	corr uint64
}

func dialRaw(t *testing.T, addr string) *raw {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &raw{nc: nc}
}

func (r *raw) call(req wire.Request) (wire.Response, error) {
	r.corr++
	if err := r.nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return wire.Response{}, err
	}
	if err := wire.WriteFrame(r.nc, wire.Frame{Type: wire.TypeRequest, CorrID: r.corr, Payload: wire.EncodeRequest(req)}); err != nil {
		return wire.Response{}, err
	}
	f, err := wire.ReadFrame(r.nc)
	if err != nil {
		return wire.Response{}, err
	}
	if f.Type != wire.TypeResponse || f.CorrID != r.corr {
		return wire.Response{}, fmt.Errorf("frame type %d corr %d, want response corr %d", f.Type, f.CorrID, r.corr)
	}
	return wire.DecodeResponse(f.Payload)
}

func (r *raw) mustOK(t *testing.T, req wire.Request) wire.Response {
	t.Helper()
	resp, err := r.call(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("%s: status %s (%s)", req.Op, resp.Status, resp.Err)
	}
	return resp
}

func flatInt(n int64) []byte {
	return value.Flatten(value.Int(n), func(value.Obj) {})
}

func unflatInt(t *testing.T, b []byte) int64 {
	t.Helper()
	v, err := value.Unflatten(b)
	if err != nil {
		t.Fatal(err)
	}
	return int64(v.(value.Int))
}

func TestPingAndInvoke(t *testing.T) {
	g := newCounterGuardian(t, 1)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	c.mustOK(t, wire.Request{Op: wire.OpPing})
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "incr", Arg: flatInt(5)}).Result); got != 5 {
		t.Fatalf("incr returned %d, want 5", got)
	}
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "incr", Arg: flatInt(2)}).Result); got != 7 {
		t.Fatalf("incr returned %d, want 7", got)
	}
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "get"}).Result); got != 7 {
		t.Fatalf("get returned %d, want 7", got)
	}
	// The owned action committed: nothing is left live server-side.
	if live := g.LiveActions(); len(live) != 0 {
		t.Fatalf("live actions after owned invokes: %v", live)
	}
}

func TestInvokeErrors(t *testing.T) {
	g := newCounterGuardian(t, 1)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	resp, err := c.call(wire.Request{Op: wire.OpInvoke, Handler: "no-such-handler"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusError {
		t.Fatalf("unknown handler: status %s", resp.Status)
	}
	resp, err = c.call(wire.Request{Op: wire.OpInvoke, Handler: "fail"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusError || resp.Err == "" {
		t.Fatalf("failing handler: %+v", resp)
	}
	// The failed owned action was aborted, not leaked.
	if live := g.LiveActions(); len(live) != 0 {
		t.Fatalf("live actions after failed invoke: %v", live)
	}
	// Counter untouched by the failures.
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "get"}).Result); got != 0 {
		t.Fatalf("counter %d after failed invokes, want 0", got)
	}
}

// TestLockConflictIsRetry: a write lock held by a live local action
// turns a wire invoke into StatusRetry — the transient class the
// client's backoff loop consumes.
func TestLockConflictIsRetry(t *testing.T) {
	g := newCounterGuardian(t, 1)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	holder := g.Begin()
	counter, _ := g.VarAtomic("counter")
	if err := holder.Update(counter, func(v value.Value) value.Value { return v }); err != nil {
		t.Fatal(err)
	}
	resp, err := c.call(wire.Request{Op: wire.OpInvoke, Handler: "incr"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusRetry {
		t.Fatalf("status %s (%s), want retry", resp.Status, resp.Err)
	}
	if err := holder.Abort(); err != nil {
		t.Fatal(err)
	}
	c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "incr"})
}

// TestJoinedInvokeTwoPhase drives the participant path over the wire:
// invoke joining a remote coordinator's action, then prepare and
// commit by explicit 2PC messages.
func TestJoinedInvokeTwoPhase(t *testing.T) {
	g := newCounterGuardian(t, 2)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	coord, err := guardian.New(1)
	if err != nil {
		t.Fatal(err)
	}
	a := coord.Begin()
	aid := a.ID()

	c.mustOK(t, wire.Request{Op: wire.OpInvoke, AID: aid, Handler: "incr", Arg: flatInt(3)})
	// The action is live server-side, waiting for phase one.
	if live := g.LiveActions(); len(live) != 1 || live[0] != aid {
		t.Fatalf("live = %v, want [%v]", g.LiveActions(), aid)
	}
	resp := c.mustOK(t, wire.Request{Op: wire.OpPrepare, AID: aid})
	if twopc.Vote(resp.Vote) != twopc.VotePrepared {
		t.Fatalf("vote %d, want prepared", resp.Vote)
	}
	c.mustOK(t, wire.Request{Op: wire.OpCommit, AID: aid})
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "get"}).Result); got != 3 {
		t.Fatalf("counter %d after 2PC commit, want 3", got)
	}
	if live := g.LiveActions(); len(live) != 0 {
		t.Fatalf("live actions after commit: %v", live)
	}
	// The coordinator-side action never spread here; drop it.
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
}

// TestJoinedInvokeAbort: the abort message undoes the joined work.
func TestJoinedInvokeAbort(t *testing.T) {
	g := newCounterGuardian(t, 2)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	coord, err := guardian.New(1)
	if err != nil {
		t.Fatal(err)
	}
	a := coord.Begin()
	c.mustOK(t, wire.Request{Op: wire.OpInvoke, AID: a.ID(), Handler: "incr", Arg: flatInt(9)})
	c.mustOK(t, wire.Request{Op: wire.OpAbort, AID: a.ID()})
	if got := unflatInt(t, c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "get"}).Result); got != 0 {
		t.Fatalf("counter %d after abort, want 0", got)
	}
	if live := g.LiveActions(); len(live) != 0 {
		t.Fatalf("live actions after abort: %v", live)
	}
	if err := a.Abort(); err != nil {
		t.Fatal(err)
	}
}

func TestOutcomeQuery(t *testing.T) {
	g := newCounterGuardian(t, 1)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	// Commit one owned action at the server, then ask its coordinator
	// (the server's own guardian) for an unknown action's outcome:
	// presumed abort.
	c.mustOK(t, wire.Request{Op: wire.OpInvoke, Handler: "incr"})
	resp := c.mustOK(t, wire.Request{Op: wire.OpOutcome, AID: ids.ActionID{Coordinator: 1, Seq: 999}})
	if twopc.Outcome(resp.Outcome) != twopc.OutcomeAborted {
		t.Fatalf("outcome %d, want aborted (presumed)", resp.Outcome)
	}
}

// TestBadRequestKeepsConnection: a malformed message inside a valid
// frame is answered StatusBadRequest and the connection stays usable;
// a frame that loses framing kills the connection.
func TestBadRequestKeepsConnection(t *testing.T) {
	g := newCounterGuardian(t, 1)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	if err := wire.WriteFrame(c.nc, wire.Frame{Type: wire.TypeRequest, CorrID: 99, Payload: []byte{0xFF, 0xFF}}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(c.nc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest || f.CorrID != 99 {
		t.Fatalf("got %+v corr %d", resp, f.CorrID)
	}
	c.mustOK(t, wire.Request{Op: wire.OpPing}) // still alive

	// Garbage bytes: the server drops the connection.
	if _, err := c.nc.Write([]byte("this is not a frame, not even close......")); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(c.nc); err == nil {
		t.Fatal("server answered a garbage stream")
	}
}

// TestResponseFrameRejected: a client must not send response frames.
func TestResponseFrameRejected(t *testing.T) {
	g := newCounterGuardian(t, 1)
	_, addr := startServer(t, g, Config{})
	c := dialRaw(t, addr)

	if err := wire.WriteFrame(c.nc, wire.Frame{Type: wire.TypeResponse, CorrID: 1}); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(c.nc)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != wire.StatusBadRequest {
		t.Fatalf("status %s, want bad-request", resp.Status)
	}
	// Terminal: the stream ends.
	if _, err := wire.ReadFrame(c.nc); !errors.Is(err, io.EOF) {
		t.Fatalf("after response frame: %v, want EOF", err)
	}
}

// TestConnLimit: accepts beyond MaxConns are refused and traced.
func TestConnLimit(t *testing.T) {
	g := newCounterGuardian(t, 1)
	rec := &obs.Recorder{}
	_, addr := startServer(t, g, Config{MaxConns: 1, Tracer: rec})

	c1 := dialRaw(t, addr)
	c1.mustOK(t, wire.Request{Op: wire.OpPing})

	c2 := dialRaw(t, addr)
	// The refused connection is closed without a frame.
	if err := c2.nc.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(c2.nc); !errors.Is(err, io.EOF) {
		t.Fatalf("refused conn read: %v, want EOF", err)
	}
	var accepted, refused int
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRPCAccept {
			if e.OK {
				accepted++
			} else {
				refused++
			}
		}
	}
	if accepted != 1 || refused != 1 {
		t.Fatalf("accept events: %d ok, %d refused; want 1/1", accepted, refused)
	}
}

// TestIdleTimeout: an idle connection is reaped and traced.
func TestIdleTimeout(t *testing.T) {
	g := newCounterGuardian(t, 1)
	rec := &obs.Recorder{}
	_, addr := startServer(t, g, Config{IdleTimeout: 50 * time.Millisecond, Tracer: rec})

	c := dialRaw(t, addr)
	if err := c.nc.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(c.nc); !errors.Is(err, io.EOF) {
		t.Fatalf("idle conn read: %v, want EOF", err)
	}
	found := false
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRPCTimeout {
			found = true
		}
	}
	if !found {
		t.Fatal("no rpc.timeout event for the reaped connection")
	}
}

// TestEventLifecycle checks the trace for one simple exchange:
// accept, dispatch, reply, then the drain pair.
func TestEventLifecycle(t *testing.T) {
	g := newCounterGuardian(t, 1)
	rec := &obs.Recorder{}
	s, addr := startServer(t, g, Config{Tracer: rec})

	c := dialRaw(t, addr)
	c.mustOK(t, wire.Request{Op: wire.OpPing})
	// The server emits rpc.reply once the response is on the wire, so
	// the client can hold the reply first: wait for the event before
	// draining, or the drain can overtake it in the trace.
	replied := func() bool {
		for _, e := range rec.Events() {
			if e.Kind == obs.KindRPCReply {
				return true
			}
		}
		return false
	}
	for deadline := time.Now().Add(5 * time.Second); !replied(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("no rpc.reply event for an answered ping")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var kinds []obs.Kind
	for _, e := range rec.Events() {
		switch e.Kind {
		case obs.KindRPCAccept, obs.KindRPCDispatch, obs.KindRPCReply, obs.KindRPCDrain:
			kinds = append(kinds, e.Kind)
		}
	}
	want := []obs.Kind{obs.KindRPCAccept, obs.KindRPCDispatch, obs.KindRPCReply, obs.KindRPCDrain, obs.KindRPCDrain}
	if len(kinds) != len(want) {
		t.Fatalf("rpc events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("rpc events %v, want %v", kinds, want)
		}
	}
}

func TestServeAfterClose(t *testing.T) {
	g := newCounterGuardian(t, 1)
	s, _ := startServer(t, g, Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := s.Serve(ln); !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve after Close: %v, want ErrClosed", err)
	}
}

// TestDrainUnderLoad is the shutdown-safety test: Close mid-load must
// leak no goroutines and no in-flight actions, and every acknowledged
// commit must be durable. Run with -race.
func TestDrainUnderLoad(t *testing.T) {
	g := newCounterGuardian(t, 1)
	// A write delay widens the force window so Close always lands on
	// in-flight commits.
	g.Volume().SetWriteDelay(200 * time.Microsecond)

	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := New(g, Config{Workers: 4, DrainTimeout: 10 * time.Second})
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	const clients = 8
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			nc, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
			if err != nil {
				return // raced with Close; nothing sent
			}
			defer nc.Close()
			r := &raw{nc: nc}
			for {
				resp, err := r.call(wire.Request{Op: wire.OpInvoke, Handler: "incr", Arg: flatInt(1)})
				if err != nil {
					return // connection torn down by the drain: clean stop
				}
				switch resp.Status {
				case wire.StatusOK:
					acked.Add(1)
				case wire.StatusRetry:
					// draining or lock conflict; loop (the conn dies soon)
				default:
					t.Errorf("unexpected status %s: %s", resp.Status, resp.Err)
					return
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond) // let load build
	if err := s.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	wg.Wait()
	if err := <-serveDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("Serve: %v, want ErrClosed", err)
	}

	// No in-flight action survived the drain.
	if live := g.LiveActions(); len(live) != 0 {
		t.Fatalf("live actions after drain: %v", live)
	}
	// Every acknowledged increment is in the committed state. The
	// counter may exceed acked if a commit's reply was cut off by the
	// drain — committed-but-unacked is the allowed ambiguity, the
	// reverse (acked-but-lost) is the bug.
	counter, _ := g.VarAtomic("counter")
	got := int64(counter.Base().(value.Int))
	if got < acked.Load() {
		t.Fatalf("counter %d < %d acknowledged commits: acked work was lost", got, acked.Load())
	}
	if acked.Load() == 0 {
		t.Log("warning: no commit acknowledged before the drain; load window too small")
	}

	// All server goroutines exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before, %d after drain\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseRacesServe closes servers whose Serve goroutine has barely
// started, half of them with a connection arriving: the drain's waits
// on the worker and reader groups must be ordered after the Adds that
// Serve performs (both happen under mu), and a reader that re-arms its
// idle deadline after the drain's kick must still see the drain. Run
// with -race: the misuse shows as a data race on the WaitGroup, the
// lost kick as a two-minute stall.
func TestCloseRacesServe(t *testing.T) {
	for i := 0; i < 1000; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s := New(nil, Config{})
		done := make(chan error, 1)
		go func() { done <- s.Serve(ln) }()
		if i%2 == 0 {
			if nc, err := net.Dial("tcp", ln.Addr().String()); err == nil {
				defer nc.Close()
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		ln.Close() // Serve never reached Accept's listener if Close won the race
		if err := <-done; !errors.Is(err, ErrClosed) {
			t.Fatalf("Serve: %v, want ErrClosed", err)
		}
	}
}
