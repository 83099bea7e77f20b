// Request/response messages carried in frame payloads. The encoding
// is explicit little-endian fields plus uvarint length-prefixed byte
// strings — the same primitives as the log record codec
// (internal/logrec), chosen over reflection-driven serialization for
// the same reason: every byte is accounted for and every decoder
// bound is checked.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ids"
)

// Op identifies a request's operation: the guardian's external
// interface (handler calls, §2.1) plus the two-phase commit messages
// (§2.2.2) so a remote coordinator can drive this server's guardian
// as a participant.
type Op uint8

const (
	// OpPing checks liveness; it touches no guardian state.
	OpPing Op = iota + 1
	// OpInvoke calls a named handler. With a zero AID the server runs
	// it inside a fresh top-level action and commits (a complete
	// client-owned atomic read/create/update); with a non-zero AID the
	// server joins that action and runs the handler as a subaction,
	// leaving the action live for a later prepare/commit/abort — the
	// guardian becomes a participant in the caller's two-phase commit.
	OpInvoke
	// OpPrepare delivers a prepare message for AID.
	OpPrepare
	// OpCommit delivers a commit message for AID.
	OpCommit
	// OpAbort delivers an abort message for AID.
	OpAbort
	// OpOutcome asks the server's guardian, as coordinator of AID, for
	// the action's fate (the §2.2.2 completion-phase query).
	OpOutcome
	// OpRepAppend ships a run of raw stable-log frames from a primary
	// to a backup replica (rep.go); Arg is a RepAppend, Result a
	// RepAck.
	OpRepAppend
	// OpRepHeartbeat probes a replica's liveness and durable offset
	// without shipping data; Arg is a RepHeartbeat, Result a RepAck.
	OpRepHeartbeat
	// OpRepSnapshot tells a lagging or diverged replica to discard its
	// received log and restart from offset zero of the primary's
	// current generation; Arg is a RepSnapshot, Result a RepAck.
	OpRepSnapshot
	// OpStatus asks a server for its replication role, durable offset,
	// and quorum health; Result is a RepStatus. Works on primaries,
	// backups, and standalone servers alike.
	OpStatus
	// OpPromote orders a backup replica to take over as primary:
	// recover over its received log prefix and begin serving. The
	// failover decision is explicit and external (an operator or a
	// controller), never taken by the replica itself. Arg optionally
	// carries a RepPromote safety floor: the promotion is refused when
	// the candidate's durable prefix falls short of it, so an operator
	// cannot silently discard a quorum-acknowledged commit by
	// promoting a lagging backup (an empty Arg imposes no floor).
	OpPromote
	// OpRoute asks a server for its current routing table; Result is a
	// shard.Table encoding. Any node of a sharded cluster answers —
	// tables are versioned, and a client merging answers keeps the
	// newest.
	OpRoute
	// OpRouteInstall offers a server a routing table (Arg, a
	// shard.Table encoding); the server installs it when strictly
	// newer and answers its current table either way, so the install
	// is idempotent and a stale offer teaches the offerer.
	OpRouteInstall
	// OpBegin mints a fresh top-level action at the addressed shard's
	// guardian — the coordinator of a client-driven cross-shard
	// two-phase commit. Result is the 12-byte ActionID encoding; the
	// action stays live for later OpInvoke joins and 2PC messages.
	OpBegin
	// OpCommitting writes the coordinator's committing record for AID
	// at the addressed shard's guardian — the point of no return
	// (§2.2.3) of a client-driven cross-shard commit. Arg is the
	// prepared participant list (a GuardianIDs encoding).
	OpCommitting
	// OpDone writes the coordinator's done record for AID, retiring
	// the committing entry after every participant acknowledged.
	OpDone
	// OpHandoff orders the addressed node to move a shard to another
	// node: snapshot via housekeeping, ship the compacted log, publish
	// a new table. Arg is a HandoffReq; Result the new shard.Table
	// encoding.
	OpHandoff
	// OpHandoffInstall carries one step of an inbound handoff to the
	// receiving node: a run of log frames, or the final "done" that
	// recovers and adopts the guardian. Arg is a HandoffFrames.
	OpHandoffInstall
	// OpGet reads the committed value bound to a stable-variable key
	// (Handler carries the key) at the addressed shard's guardian,
	// served from the live-version index when warm — no action, no
	// locks, no device reads. Result is the flattened value. A key no
	// variable binds answers StatusError ("no such key").
	OpGet
)

var opNames = [...]string{
	OpPing:           "ping",
	OpInvoke:         "invoke",
	OpPrepare:        "prepare",
	OpCommit:         "commit",
	OpAbort:          "abort",
	OpOutcome:        "outcome",
	OpRepAppend:      "rep.append",
	OpRepHeartbeat:   "rep.heartbeat",
	OpRepSnapshot:    "rep.snapshot",
	OpStatus:         "status",
	OpPromote:        "promote",
	OpRoute:          "route",
	OpRouteInstall:   "route.install",
	OpBegin:          "begin",
	OpCommitting:     "committing",
	OpDone:           "done",
	OpHandoff:        "handoff",
	OpHandoffInstall: "handoff.install",
	OpGet:            "get",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Status classifies a response.
type Status uint8

const (
	// StatusOK: the operation succeeded; Result/Vote/Outcome carry the
	// answer.
	StatusOK Status = iota + 1
	// StatusRetry: the operation failed transiently (lock conflict,
	// lock timeout, server draining) and left no effects; the client
	// may safely retry it.
	StatusRetry
	// StatusError: the operation failed at the application level
	// (handler error, unknown handler, aborted action); Err carries
	// the message. Retrying will not help.
	StatusError
	// StatusBadRequest: the request itself was malformed (unknown op,
	// undecodable payload).
	StatusBadRequest
	// StatusWrongShard: the request named a shard this node does not
	// host. The operation left no effects; Result carries the node's
	// current routing table (a shard.Table encoding) so the caller can
	// refresh and retry against the owner without a separate route
	// fetch.
	StatusWrongShard
)

var statusNames = [...]string{
	StatusOK:         "ok",
	StatusRetry:      "retry",
	StatusError:      "error",
	StatusBadRequest: "bad-request",
	StatusWrongShard: "wrong-shard",
}

func (s Status) String() string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Message decode errors.
var (
	// ErrBadMessage: a request or response payload does not decode.
	ErrBadMessage = errors.New("wire: bad message")
)

// ErrRemote is the base sentinel for application-level failures
// reported by a server (StatusError): the call was delivered and
// answered, the answer is "no". Distinct from transport failures,
// which wrap transport.ErrUnreachable.
var ErrRemote = errors.New("wire: remote error")

// Request is a client-to-server message.
type Request struct {
	// Op selects the operation.
	Op Op
	// AID names the acted-on action for OpPrepare/Commit/Abort/
	// Outcome, and optionally for OpInvoke (join instead of a fresh
	// top-level action).
	AID ids.ActionID
	// Shard addresses the registry entry that must execute the request:
	// a nonzero id is a routed keyspace slice, zero the node's one
	// unrouted shard (a standalone or replicated guardian, a failover
	// backup) — what every pre-sharding client sends. A node that does
	// not host the named shard, zero included, answers StatusWrongShard
	// without touching state.
	Shard uint32
	// Handler names the invoked handler (OpInvoke), or the read key
	// (OpGet).
	Handler string
	// Arg is the handler argument as a flattened value (OpInvoke
	// only; see value.Flatten).
	Arg []byte
}

// Response is a server-to-client message.
type Response struct {
	// Status classifies the outcome.
	Status Status
	// Vote is the participant's vote for OpPrepare (a twopc.Vote).
	Vote uint8
	// Outcome is the coordinator's answer for OpOutcome (a
	// twopc.Outcome).
	Outcome uint8
	// Result is the handler's result as a flattened value (OpInvoke).
	Result []byte
	// Err is the failure message for StatusError/StatusBadRequest.
	Err string
}

// appendBytes appends a uvarint length prefix and the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// takeBytes consumes a uvarint-prefixed byte string from b. The
// length is validated against what remains before any slicing, so a
// corrupt prefix cannot read out of bounds (the result aliases b).
func takeBytes(b []byte) ([]byte, []byte, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, nil, fmt.Errorf("%w: bad length prefix", ErrBadMessage)
	}
	// Reject non-minimal varints (a zero final byte carries no bits),
	// so every message has exactly one valid encoding.
	if used > 1 && b[used-1] == 0 {
		return nil, nil, fmt.Errorf("%w: non-minimal length prefix", ErrBadMessage)
	}
	rest := b[used:]
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: length %d beyond %d remaining", ErrBadMessage, n, len(rest))
	}
	return rest[:n], rest[n:], nil
}

// EncodeRequest renders r as a frame payload.
func EncodeRequest(r Request) []byte {
	out := make([]byte, 0, 1+16+len(r.Handler)+len(r.Arg)+4)
	out = append(out, byte(r.Op))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.AID.Coordinator))
	out = binary.LittleEndian.AppendUint64(out, r.AID.Seq)
	out = binary.LittleEndian.AppendUint32(out, r.Shard)
	out = appendBytes(out, []byte(r.Handler))
	out = appendBytes(out, r.Arg)
	return out
}

// DecodeRequest parses a frame payload as a Request. Trailing bytes
// are an error: a request that decodes but has leftovers was framed
// by a peer speaking something else.
func DecodeRequest(b []byte) (Request, error) {
	if len(b) < 1+16 {
		return Request{}, fmt.Errorf("%w: request of %d bytes", ErrBadMessage, len(b))
	}
	var r Request
	r.Op = Op(b[0])
	if int(r.Op) >= len(opNames) || opNames[r.Op] == "" {
		return Request{}, fmt.Errorf("%w: unknown op %d", ErrBadMessage, b[0])
	}
	r.AID.Coordinator = ids.GuardianID(binary.LittleEndian.Uint32(b[1:5]))
	r.AID.Seq = binary.LittleEndian.Uint64(b[5:13])
	r.Shard = binary.LittleEndian.Uint32(b[13:17])
	handler, rest, err := takeBytes(b[17:])
	if err != nil {
		return Request{}, err
	}
	r.Handler = string(handler)
	arg, rest, err := takeBytes(rest)
	if err != nil {
		return Request{}, err
	}
	if len(arg) > 0 {
		r.Arg = arg
	}
	if len(rest) != 0 {
		return Request{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return r, nil
}

// EncodeResponse renders r as a frame payload.
func EncodeResponse(r Response) []byte {
	out := make([]byte, 0, 3+len(r.Result)+len(r.Err)+4)
	out = append(out, byte(r.Status), r.Vote, r.Outcome)
	out = appendBytes(out, r.Result)
	out = appendBytes(out, []byte(r.Err))
	return out
}

// DecodeResponse parses a frame payload as a Response.
func DecodeResponse(b []byte) (Response, error) {
	if len(b) < 3 {
		return Response{}, fmt.Errorf("%w: response of %d bytes", ErrBadMessage, len(b))
	}
	var r Response
	r.Status = Status(b[0])
	if int(r.Status) >= len(statusNames) || statusNames[r.Status] == "" {
		return Response{}, fmt.Errorf("%w: unknown status %d", ErrBadMessage, b[0])
	}
	r.Vote, r.Outcome = b[1], b[2]
	result, rest, err := takeBytes(b[3:])
	if err != nil {
		return Response{}, err
	}
	if len(result) > 0 {
		r.Result = result
	}
	errMsg, rest, err := takeBytes(rest)
	if err != nil {
		return Response{}, err
	}
	r.Err = string(errMsg)
	if len(rest) != 0 {
		return Response{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return r, nil
}
