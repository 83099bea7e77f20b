// Package client is the rosd client: a connection-pooled, retrying
// caller of one server over the internal/wire protocol.
//
// There is one call path. roundTrip (batch.go) is the only exchange:
// a set of requests in one write on one pooled connection, answers
// matched by correlation id, the connection discarded on any failure.
// doBatch is the only retry loop; DoBatch and Do — the batch of one —
// are its exported faces. call is Do plus the one mapping from a non-OK
// verdict to an error, and every typed method is a request literal
// handed to call, or to decoded when the reply carries a result to
// parse. The typed methods are shard-addressed (shard.go); Invoke,
// InvokeJoin, Get and GetBatch remain as shard-0 shorthands because
// they have callers. Routed (routed.go) adds the key-addressed layer
// on top: pick the owning shard from the routing table, call, and
// correct the route on a wrong-shard refusal.
//
// Retry policy follows the transport contract (internal/transport):
// a failure below the reply — dial refused, connection reset, deadline
// missed, stream desynchronized — means the request MAY have executed,
// so only requests that are safe to repeat should ride the retry loop;
// every rosd operation is (ping and outcome are reads, invoke commits
// a complete atomic action whose repeat is a new action, and the 2PC
// messages are idempotent by protocol design, §2.2.2). Transient
// server verdicts (StatusRetry: lock conflicts, drain) retry the same
// way; a failure no retry can cure — the client is closed, the request
// is too large to frame — returns at once, and not as "may have
// executed", since nothing was sent. Backoff is capped exponential
// with jitter in [d/2, d], and all time and randomness flow through the
// injected Clock and Rand — the determinism analyzer enforces that this
// package never reads the wall clock or the global rand source
// directly, so backoff schedules are replayable in tests.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("client: closed")

// ErrUnreachable wraps transport.ErrUnreachable for every
// below-the-reply failure: dial, write, read, deadline, or a
// desynchronized stream. errors.Is(err, transport.ErrUnreachable)
// matches it alongside netsim's refusals.
var ErrUnreachable = fmt.Errorf("client: %w", transport.ErrUnreachable)

// ErrBusy is returned when every attempt drew StatusRetry: the server
// was reachable but transiently unable (lock conflicts, drain) for the
// whole retry budget.
var ErrBusy = errors.New("client: server busy through all retries")

// Options tunes a Client. The zero value picks the defaults.
type Options struct {
	// PoolSize bounds idle connections kept for reuse. Default 2.
	PoolSize int
	// DialTimeout bounds connection establishment. Default 2s.
	DialTimeout time.Duration
	// CallTimeout is the per-attempt deadline covering write and read.
	// Default 5s.
	CallTimeout time.Duration
	// MaxAttempts is the total number of tries per Do (first attempt
	// included). Default 4.
	MaxAttempts int
	// BaseBackoff is the backoff before the second attempt; it doubles
	// per failure up to MaxBackoff. Defaults 10ms / 500ms.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Clock and Rand supply all time and jitter. Defaults: SystemClock,
	// a fresh SystemRand.
	Clock Clock
	Rand  Rand
	// Dial opens connections; tests inject scripted ones. Default:
	// net.DialTimeout over TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Tracer, when non-nil, receives rpc.retry and rpc.timeout events.
	Tracer obs.Tracer
}

func (o Options) withDefaults() Options {
	if o.PoolSize <= 0 {
		o.PoolSize = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 5 * time.Second
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 4
	}
	if o.BaseBackoff <= 0 {
		o.BaseBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = SystemClock{}
	}
	if o.Rand == nil {
		o.Rand = NewSystemRand()
	}
	if o.Dial == nil {
		o.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	return o
}

// Client calls one server. It is safe for concurrent use; each
// in-flight request owns one connection.
type Client struct {
	addr string
	opt  Options

	corr atomic.Uint64

	mu     sync.Mutex
	idle   []net.Conn
	closed bool
}

// New returns a client for the server at addr.
func New(addr string, opt Options) *Client {
	return &Client{addr: addr, opt: opt.withDefaults()}
}

// Addr returns the server address this client calls.
func (c *Client) Addr() string { return c.addr }

// Close releases the pooled connections and fails future calls.
// In-flight calls finish on their own connections.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, nc := range idle {
		//roslint:besteffort pool teardown; an idle connection carries no outstanding request
		_ = nc.Close()
	}
	return nil
}

func (c *Client) emit(e obs.Event) {
	if c.opt.Tracer != nil {
		c.opt.Tracer.Emit(e)
	}
}

// conn returns a pooled idle connection or dials a fresh one.
func (c *Client) conn() (net.Conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		nc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return nc, nil
	}
	c.mu.Unlock()
	nc, err := c.opt.Dial(c.addr, c.opt.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, c.addr, err)
	}
	return nc, nil
}

// release returns a healthy connection to the pool.
func (c *Client) release(nc net.Conn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opt.PoolSize {
		c.idle = append(c.idle, nc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	//roslint:besteffort surplus connection; nothing is in flight on it
	_ = nc.Close()
}

// backoff returns the pause after the n-th failed attempt (n ≥ 1):
// BaseBackoff doubling per failure, capped at MaxBackoff, jittered
// uniformly into [d/2, d] so synchronized clients spread out without
// ever retrying immediately.
func (o Options) backoff(n int) time.Duration {
	d := o.BaseBackoff
	for i := 1; i < n && d < o.MaxBackoff; i++ {
		d *= 2
	}
	if d > o.MaxBackoff {
		d = o.MaxBackoff
	}
	half := d / 2
	return half + time.Duration(o.Rand.Int63n(int64(half)+1))
}

// remoteErr maps a non-OK verdict to an error wrapping wire.ErrRemote.
// A wrong-shard refusal maps to a WrongShardError (wrapping
// transport.ErrWrongShard) carrying the refusing server's routing
// table, so the routed layer re-routes without a second round trip.
func remoteErr(resp wire.Response) error {
	if resp.Status == wire.StatusOK {
		return nil
	}
	if resp.Status == wire.StatusWrongShard {
		return &WrongShardError{Msg: resp.Err, TableBytes: resp.Result}
	}
	return fmt.Errorf("%w: %s: %s", wire.ErrRemote, resp.Status, resp.Err)
}

// call is Do plus the one verdict mapping: every typed method here, in
// shard.go and in rep.go, and the routed layer, sends through it.
func (c *Client) call(req wire.Request) (wire.Response, error) {
	resp, err := c.Do(req)
	if err == nil {
		err = remoteErr(resp)
	}
	if err != nil {
		return wire.Response{}, err
	}
	return resp, nil
}

// decoded is call plus the reply's Result parsed by decode; what names
// the reply in a parse failure.
func decoded[T any](c *Client, req wire.Request, what string, decode func([]byte) (T, error)) (T, error) {
	var zero T
	resp, err := c.call(req)
	if err != nil {
		return zero, err
	}
	v, err := decode(resp.Result)
	if err != nil {
		return zero, fmt.Errorf("client: %s: %w", what, err)
	}
	return v, nil
}

// unflatten parses a reply's flattened value; an empty result is nil.
func unflatten(b []byte) (value.Value, error) {
	if len(b) == 0 {
		return nil, nil
	}
	return value.Unflatten(b)
}

// Ping checks the server is reachable and serving.
func (c *Client) Ping() error {
	_, err := c.call(wire.Request{Op: wire.OpPing})
	return err
}

// The shard-0 shorthands. The shard-addressed methods in shard.go are
// the methods; these four stay because they have callers (the chaos
// driver against unsharded nodes, the server and TCP-matrix tests).

// Invoke calls a handler on the node's shard 0 as a complete
// server-side atomic action and returns its result.
func (c *Client) Invoke(handler string, arg value.Value) (value.Value, error) {
	return c.InvokeShard(0, handler, arg)
}

// InvokeJoin calls a handler on the node's shard 0 as a subaction of
// the caller's action aid.
func (c *Client) InvokeJoin(aid ids.ActionID, handler string, arg value.Value) (value.Value, error) {
	return c.InvokeJoinShard(0, aid, handler, arg)
}

// Get reads the committed value bound to a stable-variable key on the
// node's shard 0.
func (c *Client) Get(key string) (value.Value, error) { return c.GetShard(0, key) }

// GetBatch pipelines reads of several keys (shard 0) and returns one
// value per key, position-matched. Any per-key failure — including a
// key that stayed StatusRetry through the budget — fails the call,
// naming the key.
func (c *Client) GetBatch(keys []string) ([]value.Value, error) {
	reqs := make([]wire.Request, len(keys))
	for i, k := range keys {
		reqs[i] = wire.Request{Op: wire.OpGet, Handler: k}
	}
	resps, err := c.DoBatch(reqs)
	if err != nil {
		return nil, err
	}
	vals := make([]value.Value, len(keys))
	for i, resp := range resps {
		if resp.Status == wire.StatusRetry {
			return nil, fmt.Errorf("client: get %q: %w: %s", keys[i], ErrBusy, resp.Err)
		}
		if err := remoteErr(resp); err != nil {
			return nil, fmt.Errorf("client: get %q: %w", keys[i], err)
		}
		if vals[i], err = unflatten(resp.Result); err != nil {
			return nil, fmt.Errorf("client: get %q: result: %w", keys[i], err)
		}
	}
	return vals, nil
}
