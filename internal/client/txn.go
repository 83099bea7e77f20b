package client

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/shard"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

// Txn is a client-driven cross-shard atomic action. Begin picks the
// coordinator shard (the owner of the first key) and asks its guardian
// to mint the action; each Invoke joins the owning shard's guardian as
// a participant; Commit drives the standard two-phase commit through
// twopc.Coordinator over the routed transport, with the coordinator
// shard's guardian storing the committing and done records — so the
// decision survives this client, and an in-doubt participant resolves
// through the coordinator shard exactly as in the single-node protocol
// (§2.2.2; the ActionID's Coordinator field names that guardian).
//
// Not safe for concurrent use; one Txn is one action's serial history.
type Txn struct {
	r   *Routed
	aid ids.ActionID
	// coord is the coordinator shard's id.
	coord shard.ID

	mu sync.Mutex
	// parts maps each joined shard to the address serving it at join
	// time. A joined shard cannot move before the action finishes — the
	// handoff path drains live actions first — so these stay valid for
	// the commit.
	parts map[shard.ID]string
	done  bool
}

// Begin starts a cross-shard action coordinated by the shard owning
// key (pass the first key the transaction will touch).
func (r *Routed) Begin(key string) (*Txn, error) {
	resp, owner, err := r.call(key, wire.Request{Op: wire.OpBegin})
	if err != nil {
		return nil, err
	}
	aid, err := wire.DecodeActionID(resp.Result)
	if err != nil {
		return nil, fmt.Errorf("client: begin: %w", err)
	}
	return &Txn{r: r, aid: aid, coord: owner.ID, parts: map[shard.ID]string{owner.ID: owner.Addr}}, nil
}

// AID returns the action's id.
func (t *Txn) AID() ids.ActionID { return t.aid }

// Invoke calls a handler on the shard owning key as a subaction of
// this action; the shard's guardian joins as a 2PC participant. The
// wrong-shard retry is safe here too: a refusal happens before the
// server dispatches to any guardian, so the join never half-happened.
func (t *Txn) Invoke(key, handler string, arg value.Value) (value.Value, error) {
	if t.finished() {
		return nil, fmt.Errorf("client: txn %v already finished", t.aid)
	}
	v, owner, err := t.r.callValue(key, invokeReq(t.aid, handler, arg))
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.parts[owner.ID] = owner.Addr
	t.mu.Unlock()
	return v, nil
}

func (t *Txn) finished() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// participants snapshots the joined shards in ascending shard order —
// a deterministic prepare order, like the simulated coordinator's
// sorted participant list.
func (t *Txn) participants() []twopc.Participant {
	t.mu.Lock()
	defer t.mu.Unlock()
	ids2 := make([]shard.ID, 0, len(t.parts))
	//roslint:nondet draining the participant set; sorted below before use
	for id := range t.parts {
		ids2 = append(ids2, id)
	}
	sort.Slice(ids2, func(i, j int) bool { return ids2[i] < ids2[j] })
	out := make([]twopc.Participant, 0, len(ids2))
	for _, id := range ids2 {
		out = append(out, &RemoteParticipant{
			ID:    ids.GuardianID(id),
			Shard: uint32(id),
			C:     t.r.client(t.parts[id]),
		})
	}
	return out
}

// coordinator returns the 2PC engine for this action: the routed
// transport as its network, and the coordinator shard's guardian —
// reached at the address it was joined at — as its stable log.
func (t *Txn) coordinator() twopc.Coordinator {
	t.mu.Lock()
	coordAddr := t.parts[t.coord]
	t.mu.Unlock()
	return twopc.Coordinator{
		Self:   ids.GuardianID(t.coord),
		Net:    t.r.tp,
		Log:    t.r.client(coordAddr).CoordLog(uint32(t.coord)),
		Tracer: t.r.opt.Tracer,
	}
}

// Commit runs two-phase commit across every joined shard and returns
// the coordinator's result. The committing record — the point of no
// return — is forced at the coordinator shard's guardian before any
// commit message goes out, so a crash between those steps leaves a
// record that answers in-doubt queries with "committed".
func (t *Txn) Commit() (twopc.Result, error) {
	if t.finished() {
		return twopc.Result{}, fmt.Errorf("client: txn %v already finished", t.aid)
	}
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
	co := t.coordinator()
	return co.Run(t.aid, t.participants())
}

// Complete re-drives phase two for a decided action — after a Commit
// whose Result listed unresponsive participants, call Complete once
// they are reachable again to deliver the remaining commit messages
// and retire the coordinator's committing record.
func (t *Txn) Complete() (twopc.Result, error) {
	co := t.coordinator()
	return co.Complete(t.aid, t.participants())
}

// Abort abandons the action, delivering best-effort aborts to every
// joined shard. Safe to call after a failed Commit attempt: abort of
// an already-decided action is a no-op at each guardian.
func (t *Txn) Abort() error {
	t.mu.Lock()
	t.done = true
	t.mu.Unlock()
	var first error
	for _, p := range t.participants() {
		rp := p.(*RemoteParticipant)
		if err := rp.C.AbortShard(rp.Shard, t.aid); err != nil && first == nil {
			first = err
		}
	}
	return first
}
