// Pipelined batching: several requests written to one connection in a
// single buffered write, answers collected by correlation id. The
// server counts the dispatches and coalesces the response frames into
// one write of its own, so a batch of N requests costs two syscalls on
// each side instead of 2N — the wire-level analogue of group commit
// (experiment E16 measures the effect on read throughput).
//
// Batching changes no semantics: each request is still one independent
// operation with the transport contract's retry rules. A batch is NOT
// atomic — requests land as separate actions, and a partial outcome
// (some OK, some retried) is normal under contention.
package client

import (
	"fmt"
	"net"

	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/wire"
)

// Get reads the committed value bound to a stable-variable key on the
// node's shard 0: the index-served read path (OpGet). A key no
// variable binds fails wrapping wire.ErrRemote ("no such key").
func (c *Client) Get(key string) (value.Value, error) { return c.GetShard(0, key) }

// GetShard is Get addressed to a shard's guardian.
func (c *Client) GetShard(sh uint32, key string) (value.Value, error) {
	resp, err := c.Do(wire.Request{Op: wire.OpGet, Shard: sh, Handler: key})
	if err != nil {
		return nil, err
	}
	if err := remoteErr(resp); err != nil {
		return nil, err
	}
	if len(resp.Result) == 0 {
		return nil, nil
	}
	v, err := value.Unflatten(resp.Result)
	if err != nil {
		return nil, fmt.Errorf("client: result: %w", err)
	}
	return v, nil
}

// DoBatch pipelines reqs over one pooled connection: all requests go
// out in a single write, and responses (which the server may answer
// out of order) are matched back by correlation id. Connection-level
// failures retry the whole outstanding batch; StatusRetry verdicts
// retry only the requests that drew them. Exhausting the attempt
// budget on transient verdicts returns the responses as they stand —
// StatusRetry rows included, position-matched to reqs — so the caller
// sees exactly which requests never landed; only a final
// connection-level failure returns an error.
func (c *Client) DoBatch(reqs []wire.Request) ([]wire.Response, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]wire.Response, len(reqs))
	pending := make([]int, len(reqs)) // indices into reqs/out awaiting a verdict
	for i := range pending {
		pending[i] = i
	}
	var last error
	for attempt := 1; ; attempt++ {
		batch := make([]wire.Request, len(pending))
		for j, i := range pending {
			batch[j] = reqs[i]
		}
		resps, err := c.attemptBatch(batch)
		if err == nil {
			var retry []int
			for j, i := range pending {
				out[i] = resps[j]
				if resps[j].Status == wire.StatusRetry {
					retry = append(retry, i)
				}
			}
			if len(retry) == 0 {
				return out, nil
			}
			pending = retry
			last = fmt.Errorf("%w: %s", ErrBusy, out[retry[0]].Err)
		} else {
			last = err
		}
		if attempt >= c.opt.MaxAttempts {
			if err != nil {
				return nil, last
			}
			// Transient verdicts exhausted the budget: the per-request
			// StatusRetry rows tell the caller which requests never ran.
			return out, nil
		}
		c.emit(obs.Event{Kind: obs.KindRPCRetry, Code: uint8(attempt), Note: last.Error()})
		c.opt.Clock.Sleep(c.backoff(attempt))
	}
}

// attemptBatch runs one pipelined exchange on one connection.
func (c *Client) attemptBatch(reqs []wire.Request) ([]wire.Response, error) {
	nc, err := c.conn()
	if err != nil {
		return nil, err
	}
	resps, err := c.exchangeBatch(nc, reqs)
	if err != nil {
		// The stream's state is unknown: never pool it.
		//roslint:besteffort the connection is already being discarded for the observed exchange error
		_ = nc.Close()
		return nil, err
	}
	c.release(nc)
	return resps, nil
}

func (c *Client) exchangeBatch(nc net.Conn, reqs []wire.Request) ([]wire.Response, error) {
	want := make(map[uint64]int, len(reqs))
	var buf []byte
	for i, req := range reqs {
		corr := c.corr.Add(1)
		want[corr] = i
		b, err := wire.AppendFrame(buf, wire.Frame{Type: wire.TypeRequest, CorrID: corr, Payload: wire.EncodeRequest(req)})
		if err != nil {
			return nil, fmt.Errorf("client: batch request %d: %w", i, err)
		}
		buf = b
	}
	// One deadline covers the whole batch: the server answers each
	// request as a worker finishes it, so the batch completes in about
	// one round trip plus the slowest execution.
	if err := nc.SetDeadline(c.opt.Clock.Now().Add(c.opt.CallTimeout)); err != nil {
		return nil, fmt.Errorf("%w: deadline: %v", ErrUnreachable, err)
	}
	if _, err := nc.Write(buf); err != nil {
		return nil, c.connErr("write", err)
	}
	out := make([]wire.Response, len(reqs))
	for n := 0; n < len(reqs); n++ {
		f, err := wire.ReadFrame(nc)
		if err != nil {
			return nil, c.connErr("read", err)
		}
		i, ok := want[f.CorrID]
		if f.Type != wire.TypeResponse || !ok {
			return nil, fmt.Errorf("%w: %s: stream desynchronized (frame type %d, corr %d unexpected)",
				ErrUnreachable, c.addr, f.Type, f.CorrID)
		}
		delete(want, f.CorrID)
		resp, err := wire.DecodeResponse(f.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, c.addr, err)
		}
		out[i] = resp
	}
	return out, nil
}

// GetBatch pipelines reads of several keys (shard 0) and
// returns one value per key, position-matched. Any per-key failure —
// including a key that stayed StatusRetry through the budget — fails
// the call, naming the key.
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
		if len(resp.Result) == 0 {
			continue
		}
		v, err := value.Unflatten(resp.Result)
		if err != nil {
			return nil, fmt.Errorf("client: get %q: result: %w", keys[i], err)
		}
		vals[i] = v
	}
	return vals, nil
}
