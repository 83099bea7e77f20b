package client

import (
	"fmt"

	"repro/internal/ids"
	"repro/internal/replog"
	"repro/internal/wire"
)

// Replication and introspection calls. The rep.* requests are
// idempotent by construction — a re-sent append whose first delivery
// was applied is refused in-band (the ack's durable offset names the
// actual tail) and the primary adjusts its cursor — so the client's
// one retry loop is safe for them. None of them sets Request.Shard yet:
// the rep.* calls and Promote reach the receiver a node hosts as shard
// 0, and Status's replication half reports that shard.

// RepAppend ships a frame run to the server's hosted backup.
func (c *Client) RepAppend(app wire.RepAppend) (wire.RepAck, error) {
	return decoded(c, wire.Request{Op: wire.OpRepAppend, Arg: wire.EncodeRepAppend(app)}, "rep ack", wire.DecodeRepAck)
}

// RepHeartbeat probes the server's hosted backup.
func (c *Client) RepHeartbeat(hb wire.RepHeartbeat) (wire.RepAck, error) {
	return decoded(c, wire.Request{Op: wire.OpRepHeartbeat, Arg: wire.EncodeRepHeartbeat(hb)}, "rep ack", wire.DecodeRepAck)
}

// RepSnapshot offers the server's hosted backup a snapshot reset.
func (c *Client) RepSnapshot(snap wire.RepSnapshot) (wire.RepAck, error) {
	return decoded(c, wire.Request{Op: wire.OpRepSnapshot, Arg: wire.EncodeRepSnapshot(snap)}, "rep ack", wire.DecodeRepAck)
}

// Status reports the server's replication role and health plus one
// row per hosted shard.
func (c *Client) Status() (wire.StatusReport, error) {
	return decoded(c, wire.Request{Op: wire.OpStatus}, "status", wire.DecodeStatusReport)
}

// Promote tells the server's hosted backup to take over as the
// guardian unconditionally and returns the post-takeover status.
// Idempotent. Prefer PromoteMin during a failover: it refuses a
// candidate whose received prefix is shorter than the deposed
// primary's last quorum-acked boundary.
func (c *Client) Promote() (wire.RepStatus, error) {
	return decoded(c, wire.Request{Op: wire.OpPromote}, "promote", wire.DecodeRepStatus)
}

// PromoteMin is Promote with a safety floor: the server refuses the
// takeover when the backup's durable log prefix is below minDurable
// bytes. Operators pass the deposed primary's last quorum-acked
// boundary (Status().QuorumBytes), so an acknowledged commit that
// lives only on a longer, currently unreachable copy cannot be
// silently dropped by promoting the wrong survivor.
func (c *Client) PromoteMin(minDurable uint64) (wire.RepStatus, error) {
	arg := wire.EncodeRepPromote(wire.RepPromote{MinDurable: minDurable})
	return decoded(c, wire.Request{Op: wire.OpPromote, Arg: arg}, "promote", wire.DecodeRepStatus)
}

// RemoteReplica is a client-side stub presenting a rosd server's
// hosted backup as a replog.Replica: the primary's shipping calls
// become wire requests, exactly as RemoteParticipant does for 2PC.
// Wired together with the client Transport, a replog.Primary runs the
// identical replication protocol over loopback TCP that it runs over
// the deterministic simulation.
type RemoteReplica struct {
	// ID is the remote backup's id.
	ReplicaID ids.GuardianID
	// C is the client reaching the backup's server.
	C *Client
}

var _ replog.Replica = (*RemoteReplica)(nil)

// ID implements replog.Replica.
func (r *RemoteReplica) ID() ids.GuardianID { return r.ReplicaID }

// Append implements replog.Replica over the wire.
func (r *RemoteReplica) Append(app wire.RepAppend) (wire.RepAck, error) {
	return r.C.RepAppend(app)
}

// Heartbeat implements replog.Replica over the wire.
func (r *RemoteReplica) Heartbeat(hb wire.RepHeartbeat) (wire.RepAck, error) {
	return r.C.RepHeartbeat(hb)
}

// Snapshot implements replog.Replica over the wire.
func (r *RemoteReplica) Snapshot(snap wire.RepSnapshot) (wire.RepAck, error) {
	return r.C.RepSnapshot(snap)
}

// Replica returns a replog.Replica that ships to gid's server through
// this transport's registered client.
func (t *Transport) Replica(gid ids.GuardianID) (*RemoteReplica, error) {
	c := t.Peer(gid)
	if c == nil {
		return nil, fmt.Errorf("client: no peer registered for %v", gid)
	}
	return &RemoteReplica{ReplicaID: gid, C: c}, nil
}
