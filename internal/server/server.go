// Package server implements rosd, the networked serving layer: a TCP
// front door over the guardians a node hosts, speaking the
// internal/wire protocol. A node is one registry from shard id to
// either a serving guardian or a replication receiver that becomes one
// (shard.go); a standalone or replicated guardian is shard 0, a
// failover backup is shard 0 in receiver role, and every request
// resolves through that one map.
//
// The ROADMAP's north star is a store "serving heavy traffic from
// millions of users"; until this package, nothing could reach a
// guardian except in-process callers and the simulated network. The
// runtime is deliberately boring: one reader goroutine per accepted
// connection decodes frames and feeds a bounded worker pool; workers
// execute guardian operations (handler invocations, two-phase-commit
// messages) and write responses back under a per-connection write
// lock, so responses from concurrent workers never interleave
// mid-frame. A pipelining client (several requests written before any
// response is read) gets its responses coalesced: the reader counts
// in-flight dispatches and the worker answering the last one flushes
// every buffered frame in one write, amortizing syscalls the way group
// commit amortizes forces. Group commit (PR 3) is what makes this compose: N
// concurrent client commits coalesce into a fraction of N log forces,
// so the serving layer rides the force scheduler instead of defeating
// it (experiment E12).
//
// Failure handling follows the transport contract: a request the
// server cannot run safely is answered StatusRetry (lock conflicts,
// drain) for the client's backoff loop, StatusError for application
// failures, and a connection that loses framing (bad magic/CRC) is
// dropped — the client re-dials and retries.
//
// Shutdown is a drain, not an axe: Close stops accepting, kicks the
// readers, lets queued work finish (bounded by DrainTimeout), then
// closes connections. The drain test proves no goroutine and no
// in-flight action survives a mid-load Close.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// ErrClosed is returned by Serve after Close stops the server.
var ErrClosed = errors.New("server: closed")

// Config tunes a Server. The zero value picks the defaults.
type Config struct {
	// MaxConns bounds concurrently open connections; excess accepts
	// are closed immediately (the client's dial succeeds, its first
	// read fails, its retry loop backs off). Default 64.
	MaxConns int
	// Workers is the size of the request-execution pool. Default 8.
	Workers int
	// QueueDepth bounds requests decoded but not yet executing; a
	// full queue blocks the connection's reader (backpressure on that
	// client) without stalling other connections. Default 2×Workers.
	QueueDepth int
	// IdleTimeout is the per-connection read deadline between
	// requests; an idle connection is closed when it expires.
	// Default 2m.
	IdleTimeout time.Duration
	// WriteTimeout is the per-response write deadline. Default 10s.
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Close waits for queued requests to
	// finish before closing connections under them. Default 5s.
	DrainTimeout time.Duration
	// Tracer, when non-nil, receives the RPC lifecycle events:
	// rpc.accept, rpc.dispatch, rpc.reply, rpc.timeout, rpc.drain.
	Tracer obs.Tracer
	// Backup, when non-nil, is hosted as shard 0 in receiver role: the
	// rep.* ops (append, heartbeat, snapshot) are dispatched to it,
	// guardian ops answer StatusRetry, and OpPromote adopts the guardian
	// it recovers as the one shard 0 serves.
	Backup *replog.Backup
	// Status, when non-nil, answers OpStatus — a primary's rosd wires
	// its replog.Primary.Status here. Defaults to shard 0's receiver
	// status, or a standalone report from shard 0's guardian's log.
	Status func() wire.RepStatus
	// HandoffShip, when non-nil, delivers one OpHandoffInstall step to
	// the receiving node during an outbound shard handoff (a routed
	// client wires a TCP call here; tests wire a loopback into another
	// server's ApplyHandoff). A nil hook refuses OpHandoff.
	HandoffShip func(target string, hf wire.HandoffFrames) (wire.RepAck, error)
	// OnAdopt, when non-nil, is called once with the guardian a hosted
	// receiver recovered — by OpPromote (a failover) or by the last step
	// of an inbound handoff — before shard id starts serving it: the
	// hook registers the application's handlers.
	OnAdopt func(id uint32, g *guardian.Guardian)
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 64
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// Server serves the guardians one node hosts over TCP.
type Server struct {
	cfg Config
	tr  obs.Tracer

	// smu guards the registry — the map, each entry's serving guardian —
	// and the routing table. It is a leaf lock: held only to read or
	// swap those, never across Backup.Promote, a guardian call, a device
	// write, or an emission — so it can never participate in a cycle
	// with guardian, receiver or log locks.
	smu    sync.Mutex
	shards map[uint32]*hosted
	table  *shard.Table

	work chan task

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]bool
	serial  uint64
	closing bool

	closed    chan struct{} // closed once when Close begins
	closeOnce sync.Once
	closeErr  error

	readers sync.WaitGroup
	workers sync.WaitGroup
}

// task is one dispatched request.
type task struct {
	c      *conn
	corrID uint64
	req    wire.Request
}

// conn is one accepted connection.
type conn struct {
	nc     net.Conn
	serial uint64

	// inflight counts requests dispatched from this connection whose
	// responses have not yet been handed to replyTracked. While it is
	// above zero the client is pipelining (it wrote another request
	// before reading the previous answer), so response frames coalesce
	// in wbuf and go out in one write when the count reaches zero.
	inflight atomic.Int64

	wmu  sync.Mutex // serializes response frames; guards wbuf
	wbuf []byte     // coalesced response frames awaiting flush

	closeOnce sync.Once
}

func (c *conn) close() {
	//roslint:besteffort double-close and teardown races are expected; the reader observes the first error
	c.closeOnce.Do(func() { _ = c.nc.Close() })
}

// New returns a Server hosting g, cfg.Backup, or both as shard 0 —
// New(nil, cfg) followed by AddShard(0, g), but for the node's rpc.*
// events carrying shard 0's guardian id. A guardian's handlers
// (registered with RegisterHandler) are its external interface; the
// server adds only the network in front of them.
func New(g *guardian.Guardian, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		shards: make(map[uint32]*hosted),
		work:   make(chan task, cfg.QueueDepth),
		conns:  make(map[*conn]bool),
		closed: make(chan struct{}),
	}
	if g != nil || cfg.Backup != nil {
		s.shards[0] = &hosted{g: g, b: cfg.Backup}
	}
	s.tr = obs.WithGuardian(cfg.Tracer, uint64(s.ID()))
	return s
}

func (s *Server) emit(e obs.Event) {
	if s.tr != nil {
		s.tr.Emit(e)
	}
}

// Serve accepts connections on ln until Close. It blocks; run it in
// its own goroutine. After Close it returns ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return ErrClosed
	}
	s.ln = ln
	// Both WaitGroups grow under mu: the drain sets closing there
	// before it waits on either.
	s.workers.Add(s.cfg.Workers)
	s.mu.Unlock()

	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}

	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return ErrClosed
			default:
			}
			return fmt.Errorf("server: accept: %w", err)
		}
		s.mu.Lock()
		s.serial++
		c := &conn{nc: nc, serial: s.serial}
		if s.closing || len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.emit(obs.Event{Kind: obs.KindRPCAccept, From: c.serial})
			c.close()
			continue
		}
		s.conns[c] = true
		s.readers.Add(1)
		s.mu.Unlock()
		s.emit(obs.Event{Kind: obs.KindRPCAccept, From: c.serial, OK: true})
		go s.readLoop(c)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Close drains and stops the server: stop accepting, unblock the
// connection readers, finish dispatched requests (up to
// DrainTimeout), then close every connection. It is idempotent;
// every call returns the first drain's result.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.drain() })
	return s.closeErr
}

func (s *Server) drain() error {
	s.mu.Lock()
	s.closing = true
	ln := s.ln
	open := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.mu.Unlock()
	close(s.closed)
	s.emit(obs.Event{Kind: obs.KindRPCDrain, Bytes: len(open)})
	if ln != nil {
		//roslint:besteffort listener teardown; Serve observes the accept error and exits via the closed channel
		_ = ln.Close()
	}
	// Kick every reader out of its blocking read. In-flight responses
	// still need the connections writable, so this only expires the
	// read side.
	for _, c := range open {
		//roslint:besteffort a connection torn down concurrently is already kicked
		_ = c.nc.SetReadDeadline(time.Unix(0, 1))
	}
	s.readers.Wait()
	// No reader is left to enqueue: close the pool's feed and let the
	// workers finish what was dispatched.
	close(s.work)
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		err = fmt.Errorf("server: drain timed out after %v", s.cfg.DrainTimeout)
	}
	s.mu.Lock()
	for c := range s.conns {
		c.close()
		delete(s.conns, c)
	}
	s.mu.Unlock()
	if err != nil {
		// The conns are gone; stragglers fail their writes and exit.
		<-done
	}
	s.emit(obs.Event{Kind: obs.KindRPCDrain, OK: true})
	return err
}

// readLoop is the per-connection reader: decode frames, answer
// malformed ones, dispatch the rest to the worker pool.
func (s *Server) readLoop(c *conn) {
	defer s.readers.Done()
	defer s.forget(c)
	for {
		//roslint:besteffort a dead connection surfaces in the following read
		_ = c.nc.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		select {
		case <-s.closed:
			return // the deadline above may have replaced the drain's kick
		default:
		}
		f, err := wire.ReadFrame(c.nc)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				select {
				case <-s.closed: // drain kick, not a real timeout
				default:
					s.emit(obs.Event{Kind: obs.KindRPCTimeout, From: c.serial})
				}
			}
			// EOF, timeout, teardown, or lost framing (bad magic/CRC):
			// all terminal for the connection.
			return
		}
		if f.Type != wire.TypeRequest {
			s.reply(c, f.CorrID, wire.Response{Status: wire.StatusBadRequest, Err: "not a request frame"})
			return
		}
		req, err := wire.DecodeRequest(f.Payload)
		if err != nil {
			// The frame passed its CRC, so this is a malformed message,
			// not line noise: answer and keep the connection.
			s.reply(c, f.CorrID, wire.Response{Status: wire.StatusBadRequest, Err: err.Error()})
			continue
		}
		s.emit(obs.Event{Kind: obs.KindRPCDispatch, From: c.serial, Code: uint8(req.Op), Bytes: len(f.Payload)})
		// Count the dispatch before handing it off: exactly one
		// replyTracked call (the worker's, or the drain refusal below)
		// balances this increment.
		c.inflight.Add(1)
		select {
		case s.work <- task{c: c, corrID: f.CorrID, req: req}:
		case <-s.closed:
			s.replyTracked(c, f.CorrID, wire.Response{Status: wire.StatusRetry, Err: "server draining"})
			return
		}
	}
}

// forget unregisters and closes a connection.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.close()
}

// worker executes dispatched requests until the feed closes.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.work {
		s.replyTracked(t.c, t.corrID, s.execute(t.req))
	}
}

// coalesceLimit bounds the per-connection response buffer: a deeply
// pipelined batch flushes early once this many bytes accumulate, so
// the buffer never grows with batch depth.
const coalesceLimit = 32 << 10

// reply writes one response frame under the connection's write lock,
// flushing immediately — the path for responses that never entered the
// dispatch count (malformed frames, protocol errors).
func (s *Server) reply(c *conn, corrID uint64, resp wire.Response) {
	s.replyFrame(c, corrID, resp, false)
}

// replyTracked answers one dispatched request: the frame joins the
// connection's coalescing buffer and the write goes out when this was
// the last in-flight request (or the buffer outgrew coalesceLimit).
// Exactly one replyTracked call balances each inflight increment the
// reader performed at dispatch.
func (s *Server) replyTracked(c *conn, corrID uint64, resp wire.Response) {
	s.replyFrame(c, corrID, resp, true)
}

func (s *Server) replyFrame(c *conn, corrID uint64, resp wire.Response, tracked bool) {
	payload := wire.EncodeResponse(resp)
	c.wmu.Lock()
	buf, err := wire.AppendFrame(c.wbuf, wire.Frame{Type: wire.TypeResponse, CorrID: corrID, Payload: payload})
	if err != nil {
		c.wmu.Unlock()
		if tracked {
			c.inflight.Add(-1)
		}
		// An unencodable response (oversized payload) can never reach
		// the client; drop the connection so it re-dials and retries.
		c.close()
		return
	}
	c.wbuf = buf
	// The decrement happens here — inside wmu, after the append. Were
	// it outside, a sibling worker could observe the count hit zero and
	// flush between this frame's decrement and its append, stranding
	// the frame in the buffer with nobody left to write it.
	flush := true
	if tracked {
		flush = c.inflight.Add(-1) == 0 || len(c.wbuf) >= coalesceLimit
	}
	if flush {
		//roslint:besteffort a dead connection surfaces in the following write
		_ = c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		_, err = c.nc.Write(c.wbuf)
		c.wbuf = c.wbuf[:0]
	}
	c.wmu.Unlock()
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			s.emit(obs.Event{Kind: obs.KindRPCTimeout, From: c.serial})
		}
		// A connection that cannot carry the response is dead; the
		// client sees the drop and retries idempotently.
		c.close()
		return
	}
	s.emit(obs.Event{Kind: obs.KindRPCReply, From: c.serial, Code: uint8(resp.Status), OK: resp.Status == wire.StatusOK})
}

// execute runs one request against the guardian serving req.Shard
// (or, for the rep.* ops and OpPromote, the receiver hosted there).
func (s *Server) execute(req wire.Request) wire.Response {
	switch req.Op {
	case wire.OpPing:
		return wire.Response{Status: wire.StatusOK}
	case wire.OpRepAppend, wire.OpRepHeartbeat, wire.OpRepSnapshot:
		return s.replicate(req)
	case wire.OpStatus:
		return wire.Response{Status: wire.StatusOK, Result: wire.EncodeStatusReport(s.statusReport())}
	case wire.OpPromote:
		return s.promote(req)
	case wire.OpRoute:
		return s.route()
	case wire.OpRouteInstall:
		return s.routeInstall(req)
	case wire.OpHandoff:
		return s.handoff(req)
	case wire.OpHandoffInstall:
		return s.handoffInstall(req)
	}
	g, miss := s.resolve(req.Shard)
	if miss != nil {
		return *miss
	}
	switch req.Op {
	case wire.OpInvoke:
		return s.invoke(g, req)
	case wire.OpGet:
		return s.get(g, req)
	case wire.OpPrepare:
		vote, err := g.HandlePrepare(req.AID)
		if err != nil {
			return failure(err)
		}
		return wire.Response{Status: wire.StatusOK, Vote: uint8(vote)}
	case wire.OpCommit:
		if err := g.HandleCommit(req.AID); err != nil {
			return failure(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpAbort:
		if err := g.HandleAbort(req.AID); err != nil {
			return failure(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpOutcome:
		return wire.Response{Status: wire.StatusOK, Outcome: uint8(g.OutcomeOf(req.AID))}
	case wire.OpBegin:
		return wire.Response{Status: wire.StatusOK, Result: wire.EncodeActionID(g.Begin().ID())}
	case wire.OpCommitting:
		gids, err := wire.DecodeGuardianIDs(req.Arg)
		if err != nil {
			return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
		}
		if err := g.Committing(req.AID, gids); err != nil {
			return failure(err)
		}
		return wire.Response{Status: wire.StatusOK}
	case wire.OpDone:
		if err := g.Done(req.AID); err != nil {
			return failure(err)
		}
		return wire.Response{Status: wire.StatusOK}
	default:
		return wire.Response{Status: wire.StatusBadRequest, Err: fmt.Sprintf("unknown op %d", req.Op)}
	}
}

// replicate dispatches one rep.* op to the receiver hosted at
// req.Shard. The ack — including the in-band refusal, which is an ack
// that did not advance — is a StatusOK response carrying the encoded
// RepAck; only an apply/force failure on the receiver's own log is an
// error.
func (s *Server) replicate(req wire.Request) wire.Response {
	h, _ := s.lookup(req.Shard)
	if h == nil || h.b == nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not a backup"}
	}
	b := h.b
	var ack wire.RepAck
	var err error
	switch req.Op {
	case wire.OpRepAppend:
		var app wire.RepAppend
		if app, err = wire.DecodeRepAppend(req.Arg); err == nil {
			ack, err = b.Append(app)
		}
	case wire.OpRepHeartbeat:
		var hb wire.RepHeartbeat
		if hb, err = wire.DecodeRepHeartbeat(req.Arg); err == nil {
			ack, err = b.Heartbeat(hb)
		}
	case wire.OpRepSnapshot:
		var snap wire.RepSnapshot
		if snap, err = wire.DecodeRepSnapshot(req.Arg); err == nil {
			ack, err = b.Snapshot(snap)
		}
	}
	if err != nil {
		if errors.Is(err, wire.ErrBadMessage) {
			return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
		}
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	return wire.Response{Status: wire.StatusOK, Result: wire.EncodeRepAck(ack)}
}

// status answers the node-level row of OpStatus: the Config.Status hook
// when set (a primary's rosd wires replog.Primary.Status there), else
// shard 0's receiver's report, else a standalone report from shard 0's
// guardian's own log.
func (s *Server) status() wire.RepStatus {
	if s.cfg.Status != nil {
		return s.cfg.Status()
	}
	h, g := s.lookup(0)
	if h != nil && h.b != nil {
		return h.b.Status()
	}
	durable := durableOf(g)
	return wire.RepStatus{Role: wire.RoleStandalone, Durable: durable, QuorumBytes: durable}
}

// promote makes the receiver hosted at req.Shard take over: bump its
// epoch (fencing the deposed primary), run crash recovery over the
// received prefix, and adopt the recovered guardian as the one the
// shard serves. Idempotent — a repeated promote re-answers the
// post-takeover status. A request carrying a RepPromote floor is
// refused when the receiver's prefix falls short of it: the operator is
// naming the deposed primary's last quorum-acked boundary, and
// promoting a shorter candidate would silently discard an acknowledged
// commit that lives only on some other copy.
func (s *Server) promote(req wire.Request) wire.Response {
	h, _ := s.lookup(req.Shard)
	if h == nil || h.b == nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not a backup"}
	}
	floor, err := wire.DecodeRepPromote(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	if !h.b.Promoted() {
		if durable := h.b.Status().Durable; durable < floor.MinDurable {
			return wire.Response{Status: wire.StatusError,
				Err: fmt.Sprintf("refusing promotion: candidate holds %d durable bytes, below the required quorum-acked %d; a longer copy exists elsewhere (promote without a floor to force)", durable, floor.MinDurable)}
		}
	}
	if _, err := s.adopt(req.Shard, h); err != nil {
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	return wire.Response{Status: wire.StatusOK, Result: wire.EncodeRepStatus(s.status())}
}

// invoke runs a handler call. With a zero AID the call is a complete
// client-owned atomic action (begin, handler, commit); with a caller
// AID the guardian joins that action and runs the handler as a
// subaction, staying live as a participant for the caller's eventual
// prepare/commit/abort.
func (s *Server) invoke(g *guardian.Guardian, req wire.Request) wire.Response {
	var argv value.Value
	if len(req.Arg) > 0 {
		v, err := value.Unflatten(req.Arg)
		if err != nil {
			return wire.Response{Status: wire.StatusBadRequest, Err: fmt.Sprintf("argument: %v", err)}
		}
		argv = v
	}
	owned := req.AID.IsZero()
	var a *guardian.Action
	if owned {
		a = g.Begin()
	} else {
		a = g.Join(req.AID)
	}
	// The network hop already happened; the in-process delivery is a
	// loopback.
	result, err := guardian.Call(transport.Loopback{}, a, g, req.Handler, argv)
	if err != nil {
		if owned {
			if aerr := a.Abort(); aerr != nil {
				return failure(fmt.Errorf("%v; abort: %w", err, aerr))
			}
		}
		return failure(err)
	}
	if owned {
		if err := a.Commit(); err != nil {
			return failure(err)
		}
	}
	var flat []byte
	if result != nil {
		flat = value.Flatten(result, func(value.Obj) {})
	}
	return wire.Response{Status: wire.StatusOK, Result: flat}
}

// get answers OpGet: the committed value bound to the stable variable
// named by Handler, flattened — served from the guardian's live-version
// index when it holds the key, else through the guardian's read-only
// action fallback (which takes a read lock and releases it force-free).
func (s *Server) get(g *guardian.Guardian, req wire.Request) wire.Response {
	flat, err := g.ReadKey(req.Handler)
	if err != nil {
		return failure(err)
	}
	return wire.Response{Status: wire.StatusOK, Result: flat}
}

// failure classifies an execution error: lock conflicts and timeouts
// left no effects and are safe to retry; everything else is an
// application-level no.
func failure(err error) wire.Response {
	if errors.Is(err, object.ErrLockConflict) || errors.Is(err, object.ErrLockTimeout) {
		return wire.Response{Status: wire.StatusRetry, Err: err.Error()}
	}
	return wire.Response{Status: wire.StatusError, Err: err.Error()}
}

// Guardian returns the guardian shard 0 serves (nil when the node
// hosts none there, or a backup not yet promoted).
func (s *Server) Guardian() *guardian.Guardian { _, g := s.lookup(0); return g }

// ID returns the id of shard 0's guardian — for an unpromoted backup,
// the receiver's own id; zero on a node that hosts nothing there.
func (s *Server) ID() ids.GuardianID {
	switch h, g := s.lookup(0); {
	case g != nil:
		return g.ID()
	case h != nil:
		return h.b.ID()
	}
	return 0
}
