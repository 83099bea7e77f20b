package crashtest

import (
	"fmt"

	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replog"
)

// The replicated topology extends the crash-point sweep across the
// replication boundary: the same scripted history runs on a primary
// whose log is shipped to two backups (quorum 2 of 3), the primary is
// crashed at every device write, and at every crash point — crossed
// with every replica availability pattern that keeps the quorum
// reachable — the best backup is promoted and its takeover recovery is
// verified against the serial oracle. The property under test is the
// package's reason to exist: an acknowledged commit is never lost to a
// primary crash, because acknowledgment waited for a quorum and the
// promoted backup is chosen from the quorum's survivors.
//
// The topology keeps one log generation (the driver refuses
// housekeeping, and decay, which only the single topology injects):
// within a generation the promotion rule is purely mechanical —
// promote the backup with the most durable bytes — which is exactly
// the rule promoteBest applies. Generation switches (snapshot resets,
// rejoin catch-up) are exercised by the replog unit tests; crossing
// them mid-crash turns promotion into an operator decision the
// deterministic sweep cannot script.

// RepDownPattern selects which backup is unreachable for a whole
// replayed history. Patterns that lose the quorum are not swept: a
// quorum-less history cannot acknowledge, which the partition tests
// cover directly.
type RepDownPattern uint8

const (
	// RepDownNone keeps both backups reachable.
	RepDownNone RepDownPattern = iota
	// RepDownFirst partitions the lower-id backup away for the whole
	// history; every ack rides the second.
	RepDownFirst
	// RepDownSecond partitions the higher-id backup away.
	RepDownSecond
)

func (p RepDownPattern) String() string {
	switch p {
	case RepDownNone:
		return "none"
	case RepDownFirst:
		return "first-down"
	case RepDownSecond:
		return "second-down"
	default:
		return fmt.Sprintf("down(%d)", uint8(p))
	}
}

var repDownPatterns = []RepDownPattern{RepDownNone, RepDownFirst, RepDownSecond}

// repBackupIDs are the sweep's backup addresses; the primary is
// guardian 1, as everywhere in the crash harness.
var repBackupIDs = [2]ids.GuardianID{101, 102}

// repCluster is one scenario's replication fabric.
type repCluster struct {
	net     *netsim.Network
	backups [2]*replog.Backup
}

// newRepCluster builds the network and backups for one replay, marks
// the pattern's backup down, and returns the install hook that wires
// the primary's replicator onto the scripted guardian.
func newRepCluster(cfg SweepConfig, down RepDownPattern, tr obs.Tracer) (*repCluster, func(*guardian.Guardian) error, error) {
	cl := &repCluster{net: netsim.New()}
	cl.net.SetTracer(tr)
	reps := make([]replog.Replica, 0, len(repBackupIDs))
	for i, id := range repBackupIDs {
		b, err := replog.NewBackup(replog.BackupConfig{
			ID: id, Primary: 1, Backend: cfg.Backend, BlockSize: sweepBlockSize, Tracer: tr,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("backup %v: %w", id, err)
		}
		cl.backups[i] = b
		reps = append(reps, b)
	}
	switch down {
	case RepDownFirst:
		cl.net.SetDown(repBackupIDs[0], true)
	case RepDownSecond:
		cl.net.SetDown(repBackupIDs[1], true)
	}
	install := func(g *guardian.Guardian) error {
		p, err := replog.NewPrimary(replog.Config{
			Self: 1, Site: g.Site(), Quorum: 2, Net: cl.net, Replicas: reps, Tracer: tr,
		})
		if err != nil {
			return err
		}
		g.SetReplicator(p)
		return nil
	}
	return cl, install, nil
}

// promoteBest applies the single-generation operator rule: promote the
// backup holding the most durable bytes (ties to the lower id). The
// quorum guarantee makes this sufficient — every acknowledged prefix
// is durable on at least one backup, and the longest copy subsumes
// every shorter acknowledged one.
func (cl *repCluster) promoteBest() (*guardian.Guardian, error) {
	best := 0
	if cl.backups[1].Status().Durable > cl.backups[0].Status().Durable {
		best = 1
	}
	g, err := recovered(cl.backups[best].Promote())
	if err != nil {
		return nil, err
	}
	if err := resolveInDoubt(g); err != nil {
		return nil, err
	}
	return g, nil
}

// replicatedTopology replays the scripted history on a primary whose
// log ships to two backups, once per down pattern, and settles every
// scenario — crashed primary or not — by promoting the best backup.
func replicatedTopology(cfg SweepConfig) topology {
	script := buildScript(cfg)
	o := buildOracle(script)
	return topology{
		downs:      repDownPatterns,
		settleDone: true,
		replay: func(down RepDownPattern, k int, chk *obs.Checker) (*scenario, error) {
			vol := armedVolume(k)
			cl, install, err := newRepCluster(cfg, down, chk)
			if err != nil {
				return &scenario{vol: vol, step: -1}, err
			}
			s, g, err := executeScript(vol, cfg, script, chk, install)
			return &scenario{
				vol: vol, step: s, done: s == len(script),
				settle: func(int, bool) (fired bool, err error) {
					g, err = cl.promoteBest()
					return false, err
				},
				check: func() error { return verifyRecovered(g, cfg, script, o, s, false) },
			}, err
		},
	}
}
