package client

import (
	"repro/internal/ids"
	"repro/internal/twopc"
)

// RemoteParticipant is a client-side stub presenting a served guardian
// as a twopc.Participant: the coordinator's prepare/commit/abort
// messages become wire requests. The coordinator invokes these methods
// inside Transport.Call, so the stub performs the I/O the simulated
// network only pretends to do.
type RemoteParticipant struct {
	// ID is the remote guardian's id.
	ID ids.GuardianID
	// Shard addresses the guardian on a node hosting several; zero is
	// the node's unrouted shard (the pre-sharding contract).
	Shard uint32
	// C is the client reaching the guardian's server.
	C *Client
}

var _ twopc.Participant = (*RemoteParticipant)(nil)

// GuardianID implements twopc.Participant.
func (p *RemoteParticipant) GuardianID() ids.GuardianID { return p.ID }

// HandlePrepare implements twopc.Participant over the wire.
func (p *RemoteParticipant) HandlePrepare(aid ids.ActionID) (twopc.Vote, error) {
	return p.C.PrepareShard(p.Shard, aid)
}

// HandleCommit implements twopc.Participant over the wire.
func (p *RemoteParticipant) HandleCommit(aid ids.ActionID) error {
	return p.C.CommitShard(p.Shard, aid)
}

// HandleAbort implements twopc.Participant over the wire.
func (p *RemoteParticipant) HandleAbort(aid ids.ActionID) error {
	return p.C.AbortShard(p.Shard, aid)
}

// RemoteCoordinator is a client-side stub presenting a served guardian
// as a twopc.OutcomeSource, for a prepared participant's completion
// query (§2.2.2).
type RemoteCoordinator struct {
	ID ids.GuardianID
	// Shard addresses the coordinating guardian on a node hosting
	// several; zero is the node's unrouted shard.
	Shard uint32
	C     *Client
}

var _ twopc.OutcomeSource = (*RemoteCoordinator)(nil)

// GuardianID implements twopc.OutcomeSource.
func (rc *RemoteCoordinator) GuardianID() ids.GuardianID { return rc.ID }

// OutcomeOf implements twopc.OutcomeSource over the wire. A failed
// query answers OutcomeUnknown — the participant stays in doubt and
// asks again later.
func (rc *RemoteCoordinator) OutcomeOf(aid ids.ActionID) twopc.Outcome {
	out, err := rc.C.OutcomeShard(rc.Shard, aid)
	if err != nil {
		return twopc.OutcomeUnknown
	}
	return out
}
