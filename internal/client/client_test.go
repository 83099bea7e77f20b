package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeClock anchors far in the future so real connections given
// Clock-derived deadlines never spuriously time out; Sleep records
// and advances without pausing.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	sleeps []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1<<40, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Sleep(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	f.sleeps = append(f.sleeps, d)
}

func (f *fakeClock) slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.sleeps...)
}

// fakeRand returns a scripted sequence (then zeros).
type fakeRand struct {
	mu   sync.Mutex
	vals []int64
}

func (f *fakeRand) Int63n(n int64) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.vals) == 0 {
		return 0
	}
	v := f.vals[0] % n
	f.vals = f.vals[1:]
	return v
}

// script serves wire responses over in-process pipes: each dial yields
// a connection answered by respond, which may return a nil response to
// drop the connection instead.
type script struct {
	mu      sync.Mutex
	dials   int
	respond func(req wire.Request) *wire.Response
}

func (s *script) dial(addr string, timeout time.Duration) (net.Conn, error) {
	s.mu.Lock()
	s.dials++
	s.mu.Unlock()
	cli, srv := net.Pipe()
	go func() {
		defer srv.Close()
		for {
			f, err := wire.ReadFrame(srv)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(f.Payload)
			if err != nil {
				return
			}
			resp := s.respond(req)
			if resp == nil {
				return // drop: the client sees the conn die
			}
			if err := wire.WriteFrame(srv, wire.Frame{Type: wire.TypeResponse, CorrID: f.CorrID, Payload: wire.EncodeResponse(*resp)}); err != nil {
				return
			}
		}
	}()
	return cli, nil
}

func (s *script) dialCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dials
}

func newTestClient(sc *script, clk *fakeClock, r Rand, tr obs.Tracer) *Client {
	return New("script", Options{
		MaxAttempts: 4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Clock:       clk,
		Rand:        r,
		Dial:        sc.dial,
		Tracer:      tr,
	})
}

func ok() *wire.Response { return &wire.Response{Status: wire.StatusOK} }

func TestDoSuccessNoRetry(t *testing.T) {
	sc := &script{respond: func(wire.Request) *wire.Response { return ok() }}
	clk := newFakeClock()
	c := newTestClient(sc, clk, &fakeRand{}, nil)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if len(clk.slept()) != 0 {
		t.Fatalf("slept %v on a clean call", clk.slept())
	}
}

// TestRetryBackoffSchedule: with scripted jitter, the sleep sequence
// is exactly the doubling schedule — injected clock and rand are the
// only time/randomness sources.
func TestRetryBackoffSchedule(t *testing.T) {
	fails := 0
	sc := &script{respond: func(req wire.Request) *wire.Response {
		fails++
		if fails <= 3 {
			return &wire.Response{Status: wire.StatusRetry, Err: "busy"}
		}
		return ok()
	}}
	clk := newFakeClock()
	rec := &obs.Recorder{}
	// Jitter draws 0, half, half: sleeps d/2, d, then capped-d.
	c := newTestClient(sc, clk, &fakeRand{vals: []int64{0, 10 * int64(time.Millisecond), 40 * int64(time.Millisecond)}}, rec)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		5 * time.Millisecond,  // base 10ms: half + 0
		20 * time.Millisecond, // doubled to 20ms: half + half
		60 * time.Millisecond, // doubled to 40ms: half + half... drawn 40ms%21ms
	}
	// Third draw: d=40ms, half=20ms, Int63n(20ms+1) of scripted 40ms →
	// 40ms % (20ms+1ns). Compute exactly as backoff does.
	want[2] = 20*time.Millisecond + time.Duration(40*int64(time.Millisecond)%(int64(20*time.Millisecond)+1))
	got := clk.slept()
	if len(got) != len(want) {
		t.Fatalf("sleeps %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sleep %d = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
	// One rpc.retry per failed attempt, Code = attempt number.
	var codes []uint8
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRPCRetry {
			codes = append(codes, e.Code)
		}
	}
	if len(codes) != 3 || codes[0] != 1 || codes[1] != 2 || codes[2] != 3 {
		t.Fatalf("retry codes %v, want [1 2 3]", codes)
	}
}

func TestRetryExhaustionBusy(t *testing.T) {
	sc := &script{respond: func(wire.Request) *wire.Response {
		return &wire.Response{Status: wire.StatusRetry, Err: "still busy"}
	}}
	clk := newFakeClock()
	c := newTestClient(sc, clk, &fakeRand{}, nil)
	if err := c.Ping(); !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if len(clk.slept()) != 3 {
		t.Fatalf("slept %d times, want 3 (4 attempts)", len(clk.slept()))
	}
}

func TestConnDropRetriesThenUnreachable(t *testing.T) {
	sc := &script{respond: func(wire.Request) *wire.Response { return nil }} // every conn drops
	clk := newFakeClock()
	c := newTestClient(sc, clk, &fakeRand{}, nil)
	err := c.Ping()
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want transport.ErrUnreachable", err)
	}
	if sc.dialCount() != 4 {
		t.Fatalf("dialed %d times, want 4", sc.dialCount())
	}
}

func TestDialFailureClassified(t *testing.T) {
	c := New("nowhere", Options{
		MaxAttempts: 2,
		Clock:       newFakeClock(),
		Rand:        &fakeRand{},
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return nil, fmt.Errorf("connection refused")
		},
	})
	if err := c.Ping(); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want transport.ErrUnreachable", err)
	}
}

// TestConnDropHalfwayRecovers: a drop on the first attempt is healed
// by a fresh dial on the second.
func TestConnDropHalfwayRecovers(t *testing.T) {
	n := 0
	var mu sync.Mutex
	sc := &script{}
	sc.respond = func(wire.Request) *wire.Response {
		mu.Lock()
		defer mu.Unlock()
		n++
		if n == 1 {
			return nil
		}
		return ok()
	}
	clk := newFakeClock()
	c := newTestClient(sc, clk, &fakeRand{}, nil)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if sc.dialCount() != 2 {
		t.Fatalf("dialed %d times, want 2", sc.dialCount())
	}
}

// TestPoolReuse: sequential calls ride one pooled connection.
func TestPoolReuse(t *testing.T) {
	sc := &script{respond: func(wire.Request) *wire.Response { return ok() }}
	c := newTestClient(sc, newFakeClock(), &fakeRand{}, nil)
	for i := 0; i < 5; i++ {
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	if sc.dialCount() != 1 {
		t.Fatalf("dialed %d times for 5 sequential calls, want 1", sc.dialCount())
	}
}

func TestRemoteErrorNotRetried(t *testing.T) {
	calls := 0
	var mu sync.Mutex
	sc := &script{respond: func(wire.Request) *wire.Response {
		mu.Lock()
		defer mu.Unlock()
		calls++
		return &wire.Response{Status: wire.StatusError, Err: "no such handler"}
	}}
	c := newTestClient(sc, newFakeClock(), &fakeRand{}, nil)
	_, err := c.Invoke("nope", nil)
	if !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("err = %v, want wire.ErrRemote", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("application error retried: %d calls", calls)
	}
}

// TestClosedClient: ErrClosed is permanent, so it returns from the
// first attempt — no backoff sleep, no rpc.retry event.
func TestClosedClient(t *testing.T) {
	sc := &script{respond: func(wire.Request) *wire.Response { return ok() }}
	clk := newFakeClock()
	rec := &obs.Recorder{}
	c := newTestClient(sc, clk, &fakeRand{}, rec)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if got := clk.slept(); len(got) != 0 {
		t.Fatalf("slept %v before reporting ErrClosed", got)
	}
	if rec.Len() != 0 {
		t.Fatalf("events on a closed client: %s", rec.Text())
	}
}

// TestOversizeRequestNotRetried: a request too large to frame fails
// before a connection is taken. Nothing was sent, so the error must not
// claim "may have executed" (ErrUnreachable), and no retry can cure it.
func TestOversizeRequestNotRetried(t *testing.T) {
	sc := &script{respond: func(wire.Request) *wire.Response { return ok() }}
	clk := newFakeClock()
	rec := &obs.Recorder{}
	c := newTestClient(sc, clk, &fakeRand{}, rec)
	_, err := c.Do(wire.Request{Op: wire.OpInvoke, Handler: "put", Arg: make([]byte, wire.MaxPayload+1)})
	if !errors.Is(err, wire.ErrOversize) || errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want wire.ErrOversize and not ErrUnreachable", err)
	}
	if sc.dialCount() != 0 || len(clk.slept()) != 0 || rec.Len() != 0 {
		t.Fatalf("oversize request dialed %d times, slept %v, emitted %d events; want one attempt that sends nothing",
			sc.dialCount(), clk.slept(), rec.Len())
	}
}

func TestBackoffCaps(t *testing.T) {
	c := New("x", Options{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Clock:       newFakeClock(),
		Rand:        &fakeRand{}, // always 0: backoff is exactly half the delay
	})
	for _, tc := range []struct {
		n    int
		want time.Duration
	}{
		{1, 5 * time.Millisecond},
		{2, 10 * time.Millisecond},
		{3, 20 * time.Millisecond},
		{4, 40 * time.Millisecond},
		{5, 40 * time.Millisecond}, // capped
		{9, 40 * time.Millisecond},
	} {
		if got := c.opt.backoff(tc.n); got != tc.want {
			t.Fatalf("backoff(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}
