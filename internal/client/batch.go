// The transport: the pipelined exchange is the only way a request
// leaves this package. roundTrip writes a set of requests to one
// connection in a single buffered write and collects the answers by
// correlation id; doBatch is the one retry loop around it; DoBatch and
// Do (the batch of one, byte-identical on the wire to a lone frame) are
// its two exported faces. The server counts the dispatches and
// coalesces the response frames into one write of its own, so a batch
// of N requests costs two syscalls on each side instead of 2N — the
// wire-level analogue of group commit.
//
// Batching changes no semantics: each request is still one independent
// operation with the transport contract's retry rules. A batch is NOT
// atomic — requests land as separate actions, and a partial outcome
// (some OK, some retried) is normal under contention.
package client

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// connErr classifies an I/O failure, emitting rpc.timeout for a
// missed deadline.
func (c *Client) connErr(op string, err error) error {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		c.emit(obs.Event{Kind: obs.KindRPCTimeout, Note: op + " " + c.addr})
	}
	return fmt.Errorf("%w: %s %s: %v", ErrUnreachable, op, c.addr, err)
}

// roundTrip runs one pipelined exchange on one connection: reqs[i] for
// every i in rows goes out in a single write, and the answers — which
// the server may send in any order — land in out[i], matched by
// correlation id. The round reserves len(rows) consecutive ids, so the
// j-th frame's id names rows[j] without a lookup table, and a zeroed
// out row (no status is zero on the wire) marks "not yet answered",
// which is what catches a duplicate. Any failure once a connection is
// taken wraps ErrUnreachable and discards the connection; an oversized
// request fails before one is taken, with no byte sent.
func (c *Client) roundTrip(reqs []wire.Request, rows []int, out []wire.Response) (err error) {
	n := uint64(len(rows))
	base := c.corr.Add(n) - n
	var buf []byte
	for j, i := range rows {
		payload := wire.EncodeRequest(reqs[i])
		if buf == nil {
			// Exact for a batch of one, a close guess for a batch of
			// like requests.
			buf = make([]byte, 0, len(rows)*(wire.HeaderSize+len(payload)+wire.TrailerSize))
		}
		buf, err = wire.AppendFrame(buf, wire.Frame{Type: wire.TypeRequest, CorrID: base + 1 + uint64(j), Payload: payload})
		if err != nil {
			return fmt.Errorf("client: request %d: %w", i, err)
		}
		out[i] = wire.Response{}
	}
	nc, err := c.conn()
	if err != nil {
		return err
	}
	defer func() {
		if err == nil {
			c.release(nc)
			return
		}
		// The stream's state is unknown: never pool it.
		//roslint:besteffort the connection is already being discarded for the observed exchange error
		_ = nc.Close()
	}()
	// One deadline covers the whole round: the server answers each
	// request as a worker finishes it, so a batch completes in about one
	// round trip plus the slowest execution.
	if err := nc.SetDeadline(c.opt.Clock.Now().Add(c.opt.CallTimeout)); err != nil {
		return fmt.Errorf("%w: deadline: %v", ErrUnreachable, err)
	}
	if _, err := nc.Write(buf); err != nil {
		return c.connErr("write", err)
	}
	for range rows {
		f, err := wire.ReadFrame(nc)
		if err != nil {
			return c.connErr("read", err)
		}
		j := f.CorrID - base - 1
		if f.Type != wire.TypeResponse || j >= n || out[rows[j]].Status != 0 {
			return fmt.Errorf("%w: %s: stream desynchronized (frame type %d, corr %d unexpected)",
				ErrUnreachable, c.addr, f.Type, f.CorrID)
		}
		if out[rows[j]], err = wire.DecodeResponse(f.Payload); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrUnreachable, c.addr, err)
		}
	}
	return nil
}

// doBatch is the client's one retry loop: it runs roundTrip until every
// row of out holds a verdict other than StatusRetry or the attempt
// budget is spent, backing off between rounds. rows arrives as the
// identity over reqs and is filtered in place: a connection-level
// failure re-sends every row still in it, a StatusRetry verdict keeps
// only the rows that drew one. A spent budget returns nil when the last
// round was answered — the StatusRetry rows left in out say which
// requests never landed — and the connection-level error when it was
// not. An error no retry can cure (ErrClosed, an oversized request)
// returns at once.
func (c *Client) doBatch(reqs []wire.Request, rows []int, out []wire.Response) error {
	for attempt := 1; ; attempt++ {
		err := c.roundTrip(reqs, rows, out)
		if err != nil && !errors.Is(err, transport.ErrUnreachable) {
			return err
		}
		last := err
		if err == nil {
			busy := rows[:0]
			for _, i := range rows {
				if out[i].Status == wire.StatusRetry {
					busy = append(busy, i)
				}
			}
			if rows = busy; len(rows) == 0 {
				return nil
			}
			last = fmt.Errorf("%w: %s", ErrBusy, out[rows[0]].Err)
		}
		if attempt >= c.opt.MaxAttempts {
			return err
		}
		c.emit(obs.Event{Kind: obs.KindRPCRetry, Code: uint8(attempt), Note: last.Error()})
		c.opt.Clock.Sleep(c.opt.backoff(attempt))
	}
}

// DoBatch pipelines reqs over one pooled connection and returns one
// response per request, position-matched. Exhausting the attempt
// budget on transient verdicts returns the responses as they stand —
// StatusRetry rows included — so the caller sees exactly which requests
// never landed; only a final connection-level failure, or a permanent
// local one, returns an error.
func (c *Client) DoBatch(reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]wire.Response, len(reqs))
	rows := make([]int, len(reqs))
	for i := range rows {
		rows[i] = i
	}
	if err := c.doBatch(reqs, rows, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Do sends one request as the batch of one. The returned response never
// has StatusRetry: exhausting the budget yields an error wrapping
// ErrBusy (the last verdict was StatusRetry) or transport.ErrUnreachable
// (the last failure was below the reply).
func (c *Client) Do(req wire.Request) (wire.Response, error) {
	var out [1]wire.Response
	if err := c.doBatch([]wire.Request{req}, []int{0}, out[:]); err != nil {
		return wire.Response{}, err
	}
	if out[0].Status == wire.StatusRetry {
		return wire.Response{}, fmt.Errorf("%w: %s", ErrBusy, out[0].Err)
	}
	return out[0], nil
}
