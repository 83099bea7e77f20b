package client

// The typed calls, shard-addressed: each builds one wire.Request and
// hands it to call (or decoded, when the reply carries a result to
// parse). Every request names the guardian it is for by shard id; the
// server dispatches it to that entry of its registry and refuses with
// StatusWrongShard — carrying its routing table in-band — when it does
// not host the shard. Shard zero is an id like any other: an unsharded
// rosd registers its one guardian under it, and the node-level calls
// (Route, RouteInstall, Handoff, HandoffInstall) leave the field zero
// because the server ignores it for them.

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

// invokeReq builds an OpInvoke request, shard left for the sender to
// address; a zero aid makes the call a complete atomic action, a
// non-zero one a subaction the guardian joins.
func invokeReq(aid ids.ActionID, handler string, arg value.Value) wire.Request {
	req := wire.Request{Op: wire.OpInvoke, AID: aid, Handler: handler}
	if arg != nil {
		req.Arg = value.Flatten(arg, func(value.Obj) {})
	}
	return req
}

// InvokeShard calls a handler at a shard's guardian as a complete
// server-side atomic action and returns its result.
func (c *Client) InvokeShard(sh uint32, handler string, arg value.Value) (value.Value, error) {
	return c.InvokeJoinShard(sh, ids.ActionID{}, handler, arg)
}

// InvokeJoinShard calls a handler at a shard's guardian as a subaction
// of the caller's action aid; the guardian joins the action and stays a
// participant for its two-phase commit.
func (c *Client) InvokeJoinShard(sh uint32, aid ids.ActionID, handler string, arg value.Value) (value.Value, error) {
	req := invokeReq(aid, handler, arg)
	req.Shard = sh
	return decoded(c, req, "result", unflatten)
}

// GetShard reads the committed value bound to a stable-variable key at
// a shard's guardian: the index-served read path (OpGet). A key no
// variable binds fails wrapping wire.ErrRemote ("no such key").
func (c *Client) GetShard(sh uint32, key string) (value.Value, error) {
	return decoded(c, wire.Request{Op: wire.OpGet, Shard: sh, Handler: key}, "result", unflatten)
}

// PrepareShard delivers a prepare message for aid to a shard's guardian
// and returns the vote.
func (c *Client) PrepareShard(sh uint32, aid ids.ActionID) (twopc.Vote, error) {
	resp, err := c.call(wire.Request{Op: wire.OpPrepare, AID: aid, Shard: sh})
	return twopc.Vote(resp.Vote), err
}

// CommitShard delivers a commit message for aid to a shard's guardian.
func (c *Client) CommitShard(sh uint32, aid ids.ActionID) error {
	_, err := c.call(wire.Request{Op: wire.OpCommit, AID: aid, Shard: sh})
	return err
}

// AbortShard delivers an abort message for aid to a shard's guardian.
func (c *Client) AbortShard(sh uint32, aid ids.ActionID) error {
	_, err := c.call(wire.Request{Op: wire.OpAbort, AID: aid, Shard: sh})
	return err
}

// OutcomeShard asks a shard's guardian, as coordinator of aid, for the
// action's fate.
func (c *Client) OutcomeShard(sh uint32, aid ids.ActionID) (twopc.Outcome, error) {
	resp, err := c.call(wire.Request{Op: wire.OpOutcome, AID: aid, Shard: sh})
	return twopc.Outcome(resp.Outcome), err
}

// Begin asks a shard's guardian to mint a live top-level action and
// returns its id. The guardian stays the action's coordinator of
// record: Committing and Done store its 2PC decisions, and in-doubt
// participants resolve through OutcomeShard against it.
func (c *Client) Begin(sh uint32) (ids.ActionID, error) {
	return decoded(c, wire.Request{Op: wire.OpBegin, Shard: sh}, "begin", wire.DecodeActionID)
}

// Committing asks the coordinating shard's guardian to force aid's
// committing record — the 2PC point of no return — naming the
// prepared participants.
func (c *Client) Committing(sh uint32, aid ids.ActionID, gids []ids.GuardianID) error {
	_, err := c.call(wire.Request{Op: wire.OpCommitting, AID: aid, Shard: sh, Arg: wire.EncodeGuardianIDs(gids)})
	return err
}

// Done asks the coordinating shard's guardian to record that every
// participant learned aid's outcome, releasing the committing record.
func (c *Client) Done(sh uint32, aid ids.ActionID) error {
	_, err := c.call(wire.Request{Op: wire.OpDone, AID: aid, Shard: sh})
	return err
}

// Route fetches the server's routing table.
func (c *Client) Route() (shard.Table, error) {
	return decoded(c, wire.Request{Op: wire.OpRoute}, "route", shard.Decode)
}

// RouteInstall offers the server a routing table. The server installs
// it only when strictly newer than its own and answers its current
// table either way.
func (c *Client) RouteInstall(t shard.Table) (shard.Table, error) {
	return decoded(c, wire.Request{Op: wire.OpRouteInstall, Arg: t.Encode()}, "route install", shard.Decode)
}

// Handoff asks the server to transfer a hosted shard to the node at
// target, returning the version-bumped routing table it published.
func (c *Client) Handoff(sh uint32, target string) (shard.Table, error) {
	arg := wire.EncodeHandoffReq(wire.HandoffReq{Shard: sh, Target: target})
	return decoded(c, wire.Request{Op: wire.OpHandoff, Arg: arg}, "handoff", shard.Decode)
}

// HandoffInstall ships one handoff chunk to the receiving server.
func (c *Client) HandoffInstall(hf wire.HandoffFrames) (wire.RepAck, error) {
	return decoded(c, wire.Request{Op: wire.OpHandoffInstall, Arg: wire.EncodeHandoffFrames(hf)}, "handoff install", wire.DecodeRepAck)
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
