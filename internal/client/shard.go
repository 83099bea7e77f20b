package client

// Shard-addressed calls. Every request carries a shard id; the server
// dispatches it to the owning guardian in its registry and refuses
// with StatusWrongShard — carrying its routing table in-band — when it
// does not host the shard. Shard zero is the node's one unrouted entry,
// which keeps every pre-sharding call site working unchanged.

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

// WrongShardError is the client-side form of a StatusWrongShard
// refusal. It wraps transport.ErrWrongShard (so errors.Is matches) and
// carries the refusing server's routing-table encoding, letting the
// routed layer refresh its view without a second round trip.
type WrongShardError struct {
	// Msg is the server's human-readable refusal.
	Msg string
	// TableBytes is the refusing server's shard.Table encoding.
	TableBytes []byte
}

// Error implements error.
func (e *WrongShardError) Error() string {
	return fmt.Sprintf("%v: %s", transport.ErrWrongShard, e.Msg)
}

// Unwrap makes errors.Is(err, transport.ErrWrongShard) hold.
func (e *WrongShardError) Unwrap() error { return transport.ErrWrongShard }

// Table decodes the refusing server's routing table.
func (e *WrongShardError) Table() (shard.Table, error) {
	return shard.Decode(e.TableBytes)
}

// InvokeShard is Invoke addressed to a shard's guardian.
func (c *Client) InvokeShard(sh uint32, handler string, arg value.Value) (value.Value, error) {
	return c.invoke(sh, ids.ActionID{}, handler, arg)
}

// InvokeJoinShard is InvokeJoin addressed to a shard's guardian.
func (c *Client) InvokeJoinShard(sh uint32, aid ids.ActionID, handler string, arg value.Value) (value.Value, error) {
	return c.invoke(sh, aid, handler, arg)
}

// Begin asks a shard's guardian to mint a live top-level action and
// returns its id. The guardian stays the action's coordinator of
// record: Committing and Done store its 2PC decisions, and in-doubt
// participants resolve through OutcomeShard against it.
func (c *Client) Begin(sh uint32) (ids.ActionID, error) {
	resp, err := c.Do(wire.Request{Op: wire.OpBegin, Shard: sh})
	if err != nil {
		return ids.ActionID{}, err
	}
	if err := remoteErr(resp); err != nil {
		return ids.ActionID{}, err
	}
	aid, err := wire.DecodeActionID(resp.Result)
	if err != nil {
		return ids.ActionID{}, fmt.Errorf("client: begin: %w", err)
	}
	return aid, nil
}

// Committing asks the coordinating shard's guardian to force aid's
// committing record — the 2PC point of no return — naming the
// prepared participants.
func (c *Client) Committing(sh uint32, aid ids.ActionID, gids []ids.GuardianID) error {
	resp, err := c.Do(wire.Request{
		Op: wire.OpCommitting, AID: aid, Shard: sh,
		Arg: wire.EncodeGuardianIDs(gids),
	})
	if err != nil {
		return err
	}
	return remoteErr(resp)
}

// Done asks the coordinating shard's guardian to record that every
// participant learned aid's outcome, releasing the committing record.
func (c *Client) Done(sh uint32, aid ids.ActionID) error {
	resp, err := c.Do(wire.Request{Op: wire.OpDone, AID: aid, Shard: sh})
	if err != nil {
		return err
	}
	return remoteErr(resp)
}

// Route fetches the server's routing table.
func (c *Client) Route() (shard.Table, error) {
	resp, err := c.Do(wire.Request{Op: wire.OpRoute})
	if err != nil {
		return shard.Table{}, err
	}
	if err := remoteErr(resp); err != nil {
		return shard.Table{}, err
	}
	t, err := shard.Decode(resp.Result)
	if err != nil {
		return shard.Table{}, fmt.Errorf("client: route: %w", err)
	}
	return t, nil
}

// RouteInstall offers the server a routing table. The server installs
// it only when strictly newer than its own and answers its current
// table either way.
func (c *Client) RouteInstall(t shard.Table) (shard.Table, error) {
	resp, err := c.Do(wire.Request{Op: wire.OpRouteInstall, Arg: t.Encode()})
	if err != nil {
		return shard.Table{}, err
	}
	if err := remoteErr(resp); err != nil {
		return shard.Table{}, err
	}
	cur, err := shard.Decode(resp.Result)
	if err != nil {
		return shard.Table{}, fmt.Errorf("client: route install: %w", err)
	}
	return cur, nil
}

// Handoff asks the server to transfer a hosted shard to the node at
// target, returning the version-bumped routing table it published.
func (c *Client) Handoff(sh uint32, target string) (shard.Table, error) {
	resp, err := c.Do(wire.Request{
		Op:  wire.OpHandoff,
		Arg: wire.EncodeHandoffReq(wire.HandoffReq{Shard: sh, Target: target}),
	})
	if err != nil {
		return shard.Table{}, err
	}
	if err := remoteErr(resp); err != nil {
		return shard.Table{}, err
	}
	t, err := shard.Decode(resp.Result)
	if err != nil {
		return shard.Table{}, fmt.Errorf("client: handoff: %w", err)
	}
	return t, nil
}

// HandoffInstall ships one handoff chunk to the receiving server.
func (c *Client) HandoffInstall(hf wire.HandoffFrames) (wire.RepAck, error) {
	resp, err := c.Do(wire.Request{
		Op:  wire.OpHandoffInstall,
		Arg: wire.EncodeHandoffFrames(hf),
	})
	if err != nil {
		return wire.RepAck{}, err
	}
	if err := remoteErr(resp); err != nil {
		return wire.RepAck{}, err
	}
	ack, err := wire.DecodeRepAck(resp.Result)
	if err != nil {
		return wire.RepAck{}, fmt.Errorf("client: handoff install: %w", err)
	}
	return ack, nil
}

// CoordLog returns a twopc.CoordinatorLog that stores the committing
// and done records at a shard's guardian through this client — the
// stable half of a client-driven coordinator.
func (c *Client) CoordLog(sh uint32) twopc.CoordinatorLog {
	return &remoteCoordLog{c: c, sh: sh}
}

var _ twopc.CoordinatorLog = (*remoteCoordLog)(nil)

// remoteCoordLog stores a client-driven coordinator's 2PC decisions in
// the coordinating shard's guardian, so the committing record survives
// the client and in-doubt participants can resolve against the shard.
type remoteCoordLog struct {
	c  *Client
	sh uint32
}

// Committing implements twopc.CoordinatorLog over the wire.
func (l *remoteCoordLog) Committing(aid ids.ActionID, gids []ids.GuardianID) error {
	return l.c.Committing(l.sh, aid, gids)
}

// Done implements twopc.CoordinatorLog over the wire.
func (l *remoteCoordLog) Done(aid ids.ActionID) error {
	return l.c.Done(l.sh, aid)
}
