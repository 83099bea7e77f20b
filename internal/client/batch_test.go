package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// roundScript is a frame-level scripted server for the pipelined path:
// every client Write is one round, parsed into its request frames and
// answered by answer with whatever response frames the test chooses —
// any order, any correlation ids, fewer than asked. It runs inside the
// client's own Write and Read calls, so a test is single-threaded.
type roundScript struct {
	t      *testing.T
	conns  []*roundConn
	rounds [][]wire.Request // the requests of every round, in wire order
	answer func(round int, frames []wire.Frame) []wire.Frame
}

func (s *roundScript) dial(string, time.Duration) (net.Conn, error) {
	nc := &roundConn{s: s}
	s.conns = append(s.conns, nc)
	return nc, nil
}

// roundConn is one scripted connection. A Read past the frames the
// script answered reports io.EOF: the server hung up mid-round.
type roundConn struct {
	net.Conn // nil: the client uses only the methods below
	s        *roundScript
	writes   [][]byte
	rd       bytes.Buffer
	closed   bool
}

func (nc *roundConn) SetDeadline(time.Time) error { return nil }
func (nc *roundConn) Close() error                { nc.closed = true; return nil }

func (nc *roundConn) Write(p []byte) (int, error) {
	nc.writes = append(nc.writes, append([]byte(nil), p...))
	var frames []wire.Frame
	var reqs []wire.Request
	for b := p; len(b) > 0; {
		f, n, err := wire.DecodeFrame(b)
		if err != nil {
			nc.s.t.Fatalf("client wrote a bad frame: %v", err)
		}
		req, err := wire.DecodeRequest(f.Payload)
		if err != nil || f.Type != wire.TypeRequest {
			nc.s.t.Fatalf("client wrote a bad request (type %d): %v", f.Type, err)
		}
		frames, reqs, b = append(frames, f), append(reqs, req), b[n:]
	}
	nc.s.rounds = append(nc.s.rounds, reqs)
	for _, f := range nc.s.answer(len(nc.s.rounds), frames) {
		b, err := wire.AppendFrame(nil, f)
		if err != nil {
			nc.s.t.Fatal(err)
		}
		nc.rd.Write(b)
	}
	return len(p), nil
}

func (nc *roundConn) Read(p []byte) (int, error) {
	if nc.rd.Len() == 0 {
		return 0, io.EOF
	}
	return nc.rd.Read(p)
}

// reply answers one request frame: status st, the request's Handler
// echoed as the result so a test can see which row an answer landed in.
func reply(f wire.Frame, st wire.Status) wire.Frame {
	req, _ := wire.DecodeRequest(f.Payload)
	resp := wire.Response{Status: st, Result: []byte(req.Handler)}
	if st == wire.StatusRetry {
		resp.Err = "busy"
	}
	return wire.Frame{Type: wire.TypeResponse, CorrID: f.CorrID, Payload: wire.EncodeResponse(resp)}
}

func replyAll(frames []wire.Frame) []wire.Frame {
	out := make([]wire.Frame, len(frames))
	for i, f := range frames {
		out[i] = reply(f, wire.StatusOK)
	}
	return out
}

func gets(keys ...string) []wire.Request {
	reqs := make([]wire.Request, len(keys))
	for i, k := range keys {
		reqs[i] = wire.Request{Op: wire.OpGet, Handler: k}
	}
	return reqs
}

// sent lists the keys of each round, in wire order.
func (s *roundScript) sent() [][]string {
	out := make([][]string, len(s.rounds))
	for i, reqs := range s.rounds {
		for _, r := range reqs {
			out[i] = append(out[i], r.Handler)
		}
	}
	return out
}

// newRoundClient is newTestClient — the same retry options, so the same
// schedule — dialing the round script.
func newRoundClient(t *testing.T, s *roundScript, clk *fakeClock, r Rand, tr obs.Tracer) *Client {
	s.t = t
	c := newTestClient(&script{}, clk, r, tr)
	c.opt.Dial = s.dial
	return c
}

// TestBatchOutOfOrder: the server may answer a batch in any order; the
// responses come back position-matched to the requests.
func TestBatchOutOfOrder(t *testing.T) {
	s := &roundScript{answer: func(_ int, frames []wire.Frame) []wire.Frame {
		out := replyAll(frames)
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
		return out
	}}
	c := newRoundClient(t, s, newFakeClock(), &fakeRand{}, nil)
	for round := 0; round < 2; round++ {
		resps, err := c.DoBatch(gets("a", "b", "c", "d"))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range []string{"a", "b", "c", "d"} {
			if resps[i].Status != wire.StatusOK || string(resps[i].Result) != want {
				t.Fatalf("row %d = %v %q, want ok %q", i, resps[i].Status, resps[i].Result, want)
			}
		}
	}
	if len(s.conns) != 1 || len(s.conns[0].writes) != 2 {
		t.Fatalf("%d connections, want 1 carrying both batches in one write each", len(s.conns))
	}
}

// TestBatchPartialRetry: a StatusRetry verdict re-sends only the rows
// that drew it, on the schedule TestRetryBackoffSchedule pins for Do.
func TestBatchPartialRetry(t *testing.T) {
	s := &roundScript{answer: func(round int, frames []wire.Frame) []wire.Frame {
		out := replyAll(frames)
		if round <= 3 {
			// The last row of every round stays busy; round 1 also
			// refuses "b".
			out[len(out)-1] = reply(frames[len(frames)-1], wire.StatusRetry)
		}
		if round == 1 {
			out[1] = reply(frames[1], wire.StatusRetry)
		}
		return out
	}}
	clk := newFakeClock()
	rec := &obs.Recorder{}
	c := newRoundClient(t, s, clk, &fakeRand{vals: []int64{0, 10 * int64(time.Millisecond), 40 * int64(time.Millisecond)}}, rec)
	resps, err := c.DoBatch(gets("a", "b", "c", "d"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if resps[i].Status != wire.StatusOK || string(resps[i].Result) != want {
			t.Fatalf("row %d = %v %q, want ok %q", i, resps[i].Status, resps[i].Result, want)
		}
	}
	if got, want := s.sent(), [][]string{{"a", "b", "c", "d"}, {"b", "d"}, {"d"}, {"d"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rounds sent %v, want %v", got, want)
	}
	wantSleeps := []time.Duration{
		5 * time.Millisecond,
		20 * time.Millisecond,
		20*time.Millisecond + time.Duration(40*int64(time.Millisecond)%(int64(20*time.Millisecond)+1)),
	}
	if got := clk.slept(); !reflect.DeepEqual(got, wantSleeps) {
		t.Fatalf("sleeps %v, want %v", got, wantSleeps)
	}
	var codes []uint8
	for _, e := range rec.Events() {
		if e.Kind == obs.KindRPCRetry {
			codes = append(codes, e.Code)
		}
	}
	if !reflect.DeepEqual(codes, []uint8{1, 2, 3}) {
		t.Fatalf("retry codes %v, want [1 2 3]", codes)
	}
	if len(s.conns) != 1 {
		t.Fatalf("%d connections, want 1: a busy verdict leaves the stream healthy", len(s.conns))
	}
}

// TestBatchBusyThroughBudget: rows still StatusRetry when the budget
// runs out come back as they stand, with no error — the caller sees
// which requests never landed. Do maps the same residue to ErrBusy.
func TestBatchBusyThroughBudget(t *testing.T) {
	s := &roundScript{answer: func(_ int, frames []wire.Frame) []wire.Frame {
		out := replyAll(frames)
		out[0] = reply(frames[0], wire.StatusRetry)
		return out
	}}
	c := newRoundClient(t, s, newFakeClock(), &fakeRand{}, nil)
	resps, err := c.DoBatch(gets("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].Status != wire.StatusRetry || resps[1].Status != wire.StatusOK {
		t.Fatalf("statuses %v %v, want retry ok", resps[0].Status, resps[1].Status)
	}
	if got, want := s.sent(), [][]string{{"a", "b"}, {"a"}, {"a"}, {"a"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rounds sent %v, want %v", got, want)
	}
	if _, err := c.Do(gets("a")[0]); !errors.Is(err, ErrBusy) {
		t.Fatalf("Do err = %v, want ErrBusy", err)
	}
}

// TestBatchConnDropMidBatch: a connection that dies after answering
// part of a batch re-sends the whole outstanding set on a fresh
// connection, and the broken one is closed, never pooled.
func TestBatchConnDropMidBatch(t *testing.T) {
	s := &roundScript{answer: func(round int, frames []wire.Frame) []wire.Frame {
		if round == 1 {
			return replyAll(frames[:1]) // then EOF
		}
		return replyAll(frames)
	}}
	clk := newFakeClock()
	c := newRoundClient(t, s, clk, &fakeRand{}, nil)
	resps, err := c.DoBatch(gets("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if string(resps[i].Result) != want {
			t.Fatalf("row %d = %q, want %q", i, resps[i].Result, want)
		}
	}
	if got, want := s.sent(), [][]string{{"a", "b", "c"}, {"a", "b", "c"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rounds sent %v, want %v", got, want)
	}
	if len(clk.slept()) != 1 {
		t.Fatalf("slept %v, want one backoff", clk.slept())
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if len(s.conns) != 2 || !s.conns[0].closed || s.conns[1].closed || len(s.conns[1].writes) != 2 {
		t.Fatalf("want the broken connection closed and the second one reused from the pool (%d connections)", len(s.conns))
	}
}

// TestBatchDesync: a frame the round did not ask for — an unknown
// correlation id, one answered twice, one naming the previous round, a
// request-typed frame — means the stream has lost its framing. The
// failure is below the reply (ErrUnreachable) and the connection is
// discarded.
func TestBatchDesync(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(out []wire.Frame)
	}{
		{"unknown id", func(out []wire.Frame) { out[1].CorrID += 100 }},
		{"duplicate id", func(out []wire.Frame) { out[2] = out[0] }},
		{"previous round's id", func(out []wire.Frame) { out[0].CorrID -= 3 }},
		{"request frame", func(out []wire.Frame) { out[1].Type = wire.TypeRequest }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := &roundScript{answer: func(round int, frames []wire.Frame) []wire.Frame {
				out := replyAll(frames)
				if round == 2 {
					tc.mangle(out)
				}
				return out
			}}
			c := newRoundClient(t, s, newFakeClock(), &fakeRand{}, nil)
			c.opt.MaxAttempts = 1
			if _, err := c.DoBatch(gets("a", "b", "c")); err != nil {
				t.Fatal(err)
			}
			_, err := c.DoBatch(gets("a", "b", "c"))
			if !errors.Is(err, transport.ErrUnreachable) {
				t.Fatalf("err = %v, want transport.ErrUnreachable", err)
			}
			if !s.conns[0].closed {
				t.Fatal("desynchronized connection was not closed")
			}
		})
	}
}

// TestDoIsTheBatchOfOne: Do puts exactly one frame on the wire, in one
// Write — the bytes WriteFrame would have produced.
func TestDoIsTheBatchOfOne(t *testing.T) {
	s := &roundScript{answer: func(_ int, frames []wire.Frame) []wire.Frame { return replyAll(frames) }}
	c := newRoundClient(t, s, newFakeClock(), &fakeRand{}, nil)
	req := wire.Request{Op: wire.OpInvoke, Shard: 3, Handler: "incr", Arg: []byte{1, 2, 3}}
	for corr := uint64(1); corr <= 2; corr++ {
		resp, err := c.Do(req)
		if err != nil || string(resp.Result) != "incr" {
			t.Fatalf("Do = %v, %v", resp, err)
		}
		want, err := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeRequest, CorrID: corr, Payload: wire.EncodeRequest(req)})
		if err != nil {
			t.Fatal(err)
		}
		writes := s.conns[0].writes
		if len(writes) != int(corr) || !bytes.Equal(writes[corr-1], want) {
			t.Fatalf("call %d: %d writes, last % x\nwant % x", corr, len(writes), writes[len(writes)-1], want)
		}
	}
}
