package crashtest

import (
	"fmt"

	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/stablelog"
	"repro/internal/twopc"
	"repro/internal/value"
)

// The sharded topology is the cross-shard analogue of the single one:
// a fixed two-shard transfer history runs with the coordinator shard's
// guardian crashed at every one of its device writes — before its
// prepare, inside the committing record, between the commit
// applications, inside the done record — and after every crash the
// coordinator recovers, the cluster settles (unfinished coordinators
// complete phase two, in-doubt participants query), and the result is
// checked against a serial oracle. The history takes no seed: transfer
// i moves 1<<i units from the coordinator shard to the participant
// shard, so the set of committed transfers reads directly off the
// balances; the checked properties are:
//
//   - conservation: the two vault balances always sum to the initial
//     total (all-or-nothing across shards);
//   - zero acked-but-lost: every transfer acknowledged committed
//     before the crash is present after recovery;
//   - serial order: the committed set is exactly the acknowledged
//     prefix, plus at most the interrupted transfer — never a later
//     one, never a gap.

// shardSweepIDs: the coordinator shard's guardian and the participant
// shard's guardian.
var shardSweepIDs = [2]ids.GuardianID{2, 4}

// gatedNet models the death of the node hosting the coordinator logic.
// Once the armed crash fires, the whole node is down — no message it
// was about to send (prepare, commit, or abort) leaves, and no message
// reaches its guardian. The gate matters for correctness, not just
// realism, in two ways:
//
//   - when the committing force errors but the record in fact survived
//     on one device copy, the presumed-abort path would notify the
//     participants of an abort that recovery later decides the other
//     way — a live coordinator never sees that ambiguity (a successful
//     force is durable) and a dead one cannot send the aborts;
//
//   - each post-crash device write tears another block, so letting the
//     abort path write an abort record can destroy both copies of a
//     page, which a fail-stop node cannot do.
type gatedNet struct {
	net *netsim.Network
	vol *stablelog.MemVolume
}

// Call implements transport.Transport, delivering only before the
// crash has fired.
func (n *gatedNet) Call(a, b ids.GuardianID, fn func() error) error {
	if n.vol.GlobalCrashFired() {
		return fmt.Errorf("crashtest: node %v is down", a)
	}
	return n.net.Call(a, b, fn)
}

// shardReplay holds one scenario's state.
type shardReplay struct {
	vol   *stablelog.MemVolume
	net   *netsim.Network
	coord *guardian.Guardian
	part  *guardian.Guardian
	// step is the interrupted transfer (-1 setup, Steps completed).
	step int
	// acked is the bitmask of transfers acknowledged committed.
	acked int64
}

// runShardHistory executes the transfer history on fresh guardians,
// with the coordinator's volume already armed (or not). It stops at
// the first fired crash.
func runShardHistory(cfg SweepConfig, vol *stablelog.MemVolume, chk *obs.Checker) (*shardReplay, error) {
	r := &shardReplay{vol: vol, net: netsim.New(), step: -1}
	r.net.SetTracer(chk)
	initial := int64(1) << uint(cfg.Steps)

	fired := func(err error) (bool, error) {
		if vol.GlobalCrashFired() {
			return true, nil
		}
		return false, err
	}

	coord, err := pinned(guardian.New(shardSweepIDs[0], guardian.WithBackend(cfg.Backend),
		guardian.WithVolume(vol), guardian.WithTracer(chk)))
	if f, err := fired(err); err != nil {
		return r, err
	} else if f {
		return r, nil
	}
	r.coord = coord

	part, err := pinned(guardian.New(shardSweepIDs[1], guardian.WithBackend(cfg.Backend), guardian.WithTracer(chk)))
	if err != nil {
		return r, err
	}
	r.part = part

	setup := func(g *guardian.Guardian) error {
		boot := g.Begin()
		v, err := boot.NewAtomic(value.Int(initial))
		if err != nil {
			return err
		}
		if err := boot.SetVar("vault", v); err != nil {
			return err
		}
		return boot.Commit()
	}
	if err := setup(part); err != nil {
		return r, err
	}
	if f, err := fired(setup(coord)); err != nil {
		return r, err
	} else if f {
		return r, nil
	}

	for i := 0; i < cfg.Steps; i++ {
		amount := int64(1) << uint(i)
		a := coord.Begin()
		branch := part.Join(a.ID())
		cv, ok := coord.VarAtomic("vault")
		if !ok {
			return r, fmt.Errorf("coordinator vault lost before step %d", i)
		}
		pv, ok := part.VarAtomic("vault")
		if !ok {
			return r, fmt.Errorf("participant vault lost before step %d", i)
		}
		debit := func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) - amount)
		}
		credit := func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + amount)
		}
		if err := a.Update(cv, debit); err != nil {
			if f, err := fired(err); err != nil {
				return r, fmt.Errorf("step %d debit: %w", i, err)
			} else if f {
				r.step = i
				return r, nil
			}
		}
		if err := branch.Update(pv, credit); err != nil {
			return r, fmt.Errorf("step %d credit: %w", i, err)
		}
		co := &twopc.Coordinator{
			Self: coord.ID(), Net: &gatedNet{net: r.net, vol: vol},
			Log: coord, Tracer: chk,
		}
		res, runErr := co.Run(a.ID(), []twopc.Participant{coord, part})
		if runErr == nil && res.Outcome == twopc.OutcomeCommitted {
			// The commit point was reached and observed: this transfer
			// must survive any crash from here on.
			r.acked |= int64(1) << uint(i)
		}
		if vol.GlobalCrashFired() {
			r.step = i
			return r, nil
		}
		if runErr != nil {
			return r, fmt.Errorf("step %d commit: %w", i, runErr)
		}
	}
	r.step = cfg.Steps
	return r, nil
}

// settleShards recovers the crashed coordinator from its volume and
// settles the two-shard cluster: the coordinator's own in-doubt
// branches resolve against its recovered CT, unfinished committing
// actions re-drive phase two, and the participant's in-doubt branches
// query the coordinator (§2.2.2/§2.2.3). It returns the recovered
// coordinator (nil if the site was never durably created).
func settleShards(cfg SweepConfig, r *shardReplay, chk *obs.Checker) (*guardian.Guardian, error) {
	r.vol.Crash()
	r.vol.Restart()
	ng, err := recovered(guardian.Open(shardSweepIDs[0], r.vol, cfg.Backend, guardian.WithTracer(chk)))
	if isNoSite(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// The coordinator's own prepared branches resolve against its CT.
	if err := resolve(ng, ownVerdict(ng)); err != nil {
		return nil, err
	}
	part := r.part
	if part == nil {
		// The crash preceded the participant's creation; no cross-shard
		// action can exist.
		if n := len(ng.Unfinished()); n != 0 {
			return nil, fmt.Errorf("%d unfinished actions with no participant guardian", n)
		}
		return ng, nil
	}
	// Re-drive phase two of actions whose committing record survived.
	for _, aid := range ng.Unfinished() {
		co := &twopc.Coordinator{Self: ng.ID(), Net: r.net, Log: ng, Tracer: chk}
		if _, err := co.Complete(aid, []twopc.Participant{ng, part}); err != nil {
			return nil, err
		}
	}
	// Prepared participant branches the completion pass did not reach
	// query the coordinator for the verdict.
	query := func(aid ids.ActionID) (twopc.Outcome, error) { return twopc.Query(r.net, part.ID(), ng, aid) }
	if err := resolve(part, query); err != nil {
		return nil, err
	}
	// Unprepared branches cannot belong to a committed action; abort
	// the leftovers once the coordinator confirms.
	for _, aid := range part.LiveActions() {
		if ng.OutcomeOf(aid) == twopc.OutcomeCommitted {
			continue
		}
		if err := part.HandleAbort(aid); err != nil {
			return nil, err
		}
	}
	return ng, nil
}

// verifyShards checks the oracle: conservation, zero acked-but-lost,
// and the committed set being exactly the acknowledged prefix plus at
// most the interrupted transfer.
func verifyShards(cfg SweepConfig, r *shardReplay, ng *guardian.Guardian) error {
	initial := int64(1) << uint(cfg.Steps)
	if ng == nil {
		// The coordinator's site was never durably created: legal only
		// for a setup-phase crash, and the participant must be untouched.
		if r.step != -1 {
			return fmt.Errorf("coordinator site vanished though setup had committed")
		}
		if r.part != nil {
			if got := vaultOf(r.part); got != initial {
				return fmt.Errorf("participant vault = %d with no coordinator site, want %d", got, initial)
			}
		}
		return nil
	}
	cb := vaultOf(ng)
	if r.step == -1 {
		// Setup interrupted: the setup action either committed in full
		// (vault holds the initial balance) or not at all (no vault).
		if cb != initial && cb != -1 {
			return fmt.Errorf("setup crash recovered vault %d, want %d or none", cb, initial)
		}
		return nil
	}
	if cb < 0 {
		return fmt.Errorf("coordinator vault lost after recovery")
	}
	pb := vaultOf(r.part)
	if cb+pb != 2*initial {
		return fmt.Errorf("balances %d + %d = %d, want %d (transfer not atomic across shards)",
			cb, pb, cb+pb, 2*initial)
	}
	committed := pb - initial
	if committed&r.acked != r.acked {
		return fmt.Errorf("committed mask %b lost acknowledged transfers %b (acked-but-lost)",
			committed, r.acked)
	}
	allowed := r.acked
	if r.step < cfg.Steps {
		allowed |= int64(1) << uint(r.step)
	}
	if committed&^allowed != 0 {
		return fmt.Errorf("committed mask %b includes transfers beyond the acknowledged prefix %b and interrupted step %d",
			committed, r.acked, r.step)
	}
	return nil
}

// vaultOf reads a guardian's committed vault balance (-1 if lost).
func vaultOf(g *guardian.Guardian) int64 {
	v, ok := g.VarAtomic("vault")
	if !ok {
		return -1
	}
	iv, ok := v.Base().(value.Int)
	if !ok {
		return -1
	}
	return int64(iv)
}

// shardedTopology runs the transfer history with the coordinator
// shard's guardian as the crash site and settles a crash by restarting
// it and settling the two-shard cluster.
func shardedTopology(cfg SweepConfig) topology {
	return topology{
		downs: []RepDownPattern{RepDownNone},
		replay: func(_ RepDownPattern, k int, chk *obs.Checker) (*scenario, error) {
			r, err := runShardHistory(cfg, armedVolume(k), chk)
			ng := r.coord
			return &scenario{
				vol: r.vol, step: r.step, done: r.step == cfg.Steps,
				settle: func(int, bool) (fired bool, err error) {
					ng, err = settleShards(cfg, r, chk)
					return false, err
				},
				check: func() error { return verifyShards(cfg, r, ng) },
			}, err
		},
	}
}
