// Sharding and cross-shard coordination messages (OpRoute,
// OpRouteInstall, OpBegin, OpCommitting, OpDone, OpHandoff,
// OpHandoffInstall) plus the per-shard status report that OpStatus
// answers with. Same codec rules as message.go: explicit little-endian
// fields, uvarint byte strings, exactly one valid encoding, every
// bound checked before slicing.
//
// The routing table itself is defined and encoded by internal/shard
// (the one structure shared verbatim by servers, clients, and the
// CLI); this layer carries its encoding as an opaque byte string in
// Request.Arg / Response.Result, so wire stays independent of the
// routing policy.
package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ids"
)

// HandoffReq is the argument of OpHandoff: move one shard from the
// addressed node to Target.
type HandoffReq struct {
	// Shard is the shard to move; the addressed node must host it.
	Shard uint32
	// Target is the receiving node's address (host:port), which must
	// accept OpHandoffInstall.
	Target string
}

// HandoffFrames is the argument of OpHandoffInstall: one step of an
// inbound shard handoff. The source drains the shard's guardian,
// compacts its log via housekeeping, then ships the compacted log as
// append runs (reusing the replication codec and its refusal
// semantics) followed by a final Done step that recovers the guardian
// on the receiver and publishes the rehomed routing table.
type HandoffFrames struct {
	// Shard is the shard being received.
	Shard uint32
	// Backend is the record layout of the shipped log (a core.Backend
	// value), fixed by the first step; the receiver recovers with it.
	Backend uint8
	// BlockSize is the source volume's block size in bytes.
	BlockSize uint32
	// Done marks the final step: no frames, recover and adopt the
	// guardian, install Table.
	Done bool
	// App carries a contiguous run of raw stable-log frames, exactly
	// as replication ships them (empty on the Done step). The
	// receiver's ack/refusal semantics are RepAppend's: a mismatched
	// Start acks the unchanged tail and the source rewinds.
	App RepAppend
	// Table is the rehomed routing table's encoding (Done step only):
	// the source's table with this shard's address rewritten to the
	// receiver, version bumped.
	Table []byte
}

// ShardStatus is one shard's row in a StatusReport.
type ShardStatus struct {
	// ID is the shard id.
	ID uint32
	// Role is the hosting guardian's replication role (standalone
	// unless the shard's log is replicated).
	Role Role
	// Durable is the shard's durable log prefix in bytes.
	Durable uint64
	// IdxHits / IdxMisses are the shard guardian's live-version index
	// counters (zero with the index disabled).
	IdxHits   uint64
	IdxMisses uint64
}

// StatusReport answers OpStatus: the node-level replication report
// plus one row per routed shard the node serves. A node hosting only
// shard 0 reports no shard rows — the pre-sharding report, extended.
type StatusReport struct {
	// Rep is shard 0's replication role and health (a standalone row
	// with no log on a node that hosts nothing there); its idx.*
	// counters aggregate every guardian the node serves.
	Rep RepStatus
	// Shards lists every served nonzero shard in ascending id order.
	Shards []ShardStatus
}

const shardStatusSize = 29

// takeUvarint consumes a minimally-encoded uvarint from b.
func takeUvarint(b []byte) (uint64, []byte, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return 0, nil, fmt.Errorf("%w: bad uvarint", ErrBadMessage)
	}
	if used > 1 && b[used-1] == 0 {
		return 0, nil, fmt.Errorf("%w: non-minimal uvarint", ErrBadMessage)
	}
	return n, b[used:], nil
}

// EncodeHandoffReq renders h as a request argument.
func EncodeHandoffReq(h HandoffReq) []byte {
	out := make([]byte, 0, 4+len(h.Target)+2)
	out = binary.LittleEndian.AppendUint32(out, h.Shard)
	return appendBytes(out, []byte(h.Target))
}

// DecodeHandoffReq parses a request argument as a HandoffReq.
func DecodeHandoffReq(b []byte) (HandoffReq, error) {
	if len(b) < 4 {
		return HandoffReq{}, fmt.Errorf("%w: handoff of %d bytes", ErrBadMessage, len(b))
	}
	var h HandoffReq
	h.Shard = binary.LittleEndian.Uint32(b[0:4])
	target, rest, err := takeBytes(b[4:])
	if err != nil {
		return HandoffReq{}, err
	}
	h.Target = string(target)
	if len(rest) != 0 {
		return HandoffReq{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return h, nil
}

// EncodeHandoffFrames renders f as a request argument.
func EncodeHandoffFrames(f HandoffFrames) []byte {
	app := EncodeRepAppend(f.App)
	out := make([]byte, 0, 4+1+4+1+len(app)+len(f.Table)+8)
	out = binary.LittleEndian.AppendUint32(out, f.Shard)
	out = append(out, f.Backend)
	out = binary.LittleEndian.AppendUint32(out, f.BlockSize)
	done := byte(0)
	if f.Done {
		done = 1
	}
	out = append(out, done)
	out = appendBytes(out, app)
	return appendBytes(out, f.Table)
}

// DecodeHandoffFrames parses a request argument as a HandoffFrames.
func DecodeHandoffFrames(b []byte) (HandoffFrames, error) {
	if len(b) < 4+1+4+1 {
		return HandoffFrames{}, fmt.Errorf("%w: handoff.install of %d bytes", ErrBadMessage, len(b))
	}
	var f HandoffFrames
	f.Shard = binary.LittleEndian.Uint32(b[0:4])
	f.Backend = b[4]
	f.BlockSize = binary.LittleEndian.Uint32(b[5:9])
	if b[9] > 1 {
		return HandoffFrames{}, fmt.Errorf("%w: handoff.install done byte %d", ErrBadMessage, b[9])
	}
	f.Done = b[9] == 1
	app, rest, err := takeBytes(b[10:])
	if err != nil {
		return HandoffFrames{}, err
	}
	f.App, err = DecodeRepAppend(app)
	if err != nil {
		return HandoffFrames{}, err
	}
	table, rest, err := takeBytes(rest)
	if err != nil {
		return HandoffFrames{}, err
	}
	if len(table) > 0 {
		f.Table = table
	}
	if len(rest) != 0 {
		return HandoffFrames{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return f, nil
}

// EncodeShardStatus renders s as one fixed-size row.
func EncodeShardStatus(s ShardStatus) []byte {
	out := make([]byte, 0, shardStatusSize)
	out = binary.LittleEndian.AppendUint32(out, s.ID)
	out = append(out, byte(s.Role))
	out = binary.LittleEndian.AppendUint64(out, s.Durable)
	out = binary.LittleEndian.AppendUint64(out, s.IdxHits)
	return binary.LittleEndian.AppendUint64(out, s.IdxMisses)
}

// DecodeShardStatus parses one fixed-size row as a ShardStatus.
func DecodeShardStatus(b []byte) (ShardStatus, error) {
	if len(b) != shardStatusSize {
		return ShardStatus{}, fmt.Errorf("%w: shard status of %d bytes", ErrBadMessage, len(b))
	}
	var s ShardStatus
	s.ID = binary.LittleEndian.Uint32(b[0:4])
	s.Role = Role(b[4])
	if int(s.Role) >= len(roleNames) || roleNames[s.Role] == "" {
		return ShardStatus{}, fmt.Errorf("%w: unknown role %d", ErrBadMessage, b[4])
	}
	s.Durable = binary.LittleEndian.Uint64(b[5:13])
	s.IdxHits = binary.LittleEndian.Uint64(b[13:21])
	s.IdxMisses = binary.LittleEndian.Uint64(b[21:29])
	return s, nil
}

// EncodeStatusReport renders r as a response result.
func EncodeStatusReport(r StatusReport) []byte {
	out := make([]byte, 0, 2+repStatusSize+len(r.Shards)*shardStatusSize+2)
	out = appendBytes(out, EncodeRepStatus(r.Rep))
	out = binary.AppendUvarint(out, uint64(len(r.Shards)))
	for _, s := range r.Shards {
		out = append(out, EncodeShardStatus(s)...)
	}
	return out
}

// DecodeStatusReport parses a response result as a StatusReport. Shard
// rows must arrive in strictly ascending id order — the one canonical
// encoding of a shard set.
func DecodeStatusReport(b []byte) (StatusReport, error) {
	rep, rest, err := takeBytes(b)
	if err != nil {
		return StatusReport{}, err
	}
	var r StatusReport
	r.Rep, err = DecodeRepStatus(rep)
	if err != nil {
		return StatusReport{}, err
	}
	n, rest, err := takeUvarint(rest)
	if err != nil {
		return StatusReport{}, err
	}
	// Each row is exactly shardStatusSize bytes: bound the count by
	// what remains before allocating.
	if n > uint64(len(rest)/shardStatusSize) {
		return StatusReport{}, fmt.Errorf("%w: %d shard rows beyond %d remaining bytes", ErrBadMessage, n, len(rest))
	}
	if n > 0 {
		r.Shards = make([]ShardStatus, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		s, err := DecodeShardStatus(rest[:shardStatusSize])
		if err != nil {
			return StatusReport{}, err
		}
		if i > 0 && s.ID <= r.Shards[i-1].ID {
			return StatusReport{}, fmt.Errorf("%w: shard rows out of order", ErrBadMessage)
		}
		r.Shards = append(r.Shards, s)
		rest = rest[shardStatusSize:]
	}
	if len(rest) != 0 {
		return StatusReport{}, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return r, nil
}

// EncodeActionID renders an action id as a 12-byte result (OpBegin's
// answer): the same u32 coordinator + u64 seq layout the request
// header uses.
func EncodeActionID(aid ids.ActionID) []byte {
	out := make([]byte, 0, 12)
	out = binary.LittleEndian.AppendUint32(out, uint32(aid.Coordinator))
	return binary.LittleEndian.AppendUint64(out, aid.Seq)
}

// DecodeActionID parses a 12-byte action id.
func DecodeActionID(b []byte) (ids.ActionID, error) {
	if len(b) != 12 {
		return ids.ActionID{}, fmt.Errorf("%w: action id of %d bytes", ErrBadMessage, len(b))
	}
	return ids.ActionID{
		Coordinator: ids.GuardianID(binary.LittleEndian.Uint32(b[0:4])),
		Seq:         binary.LittleEndian.Uint64(b[4:12]),
	}, nil
}

// EncodeGuardianIDs renders a participant list as OpCommitting's
// argument: a uvarint count followed by one u32 per guardian, in the
// caller's order (the coordinator's sorted participant list).
func EncodeGuardianIDs(gids []ids.GuardianID) []byte {
	out := make([]byte, 0, 2+4*len(gids))
	out = binary.AppendUvarint(out, uint64(len(gids)))
	for _, g := range gids {
		out = binary.LittleEndian.AppendUint32(out, uint32(g))
	}
	return out
}

// DecodeGuardianIDs parses OpCommitting's argument.
func DecodeGuardianIDs(b []byte) ([]ids.GuardianID, error) {
	n, rest, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	// Each id is exactly 4 bytes: bound the count before allocating.
	if n > uint64(len(rest)/4) {
		return nil, fmt.Errorf("%w: %d guardian ids beyond %d remaining bytes", ErrBadMessage, n, len(rest))
	}
	var gids []ids.GuardianID
	if n > 0 {
		gids = make([]ids.GuardianID, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		gids = append(gids, ids.GuardianID(binary.LittleEndian.Uint32(rest[0:4])))
		rest = rest[4:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(rest))
	}
	return gids, nil
}
