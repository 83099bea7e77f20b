package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/chaos/workload"
	"repro/internal/client"
	"repro/internal/crashtest"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

// FaultKind names one injectable failure.
type FaultKind string

const (
	// FaultKill SIGKILLs the node mid-traffic; the heal phase restarts
	// it (or, for a replicated primary, promotes a backup).
	FaultKill FaultKind = "kill"
	// FaultPause SIGSTOPs the node for Duration, then SIGCONTs it —
	// the process survives with all its volatile state, but every call
	// into it stalls into the callers' deadlines.
	FaultPause FaultKind = "pause"
	// FaultPartition cuts the node's proxy for Duration: established
	// connections reset, new ones refused.
	FaultPartition FaultKind = "partition"
	// FaultDelay injects connect/read latency at the node's proxy for
	// Duration.
	FaultDelay FaultKind = "delay"
	// FaultDiskFull restarts the node with a -datacap just above its
	// current footprint, so ongoing traffic fills the "disk" and
	// forces start failing; heal restarts it uncapped.
	FaultDiskFull FaultKind = "diskfull"
	// FaultHandoff moves Shard from Node to Target mid-traffic through
	// the operator path (rosctl handoff), concurrently with the
	// workload — the receiving node adopts the shard by recovering over
	// the shipped log, rebuilding its live-version index from scratch.
	// The heal phase waits for it to land.
	FaultHandoff FaultKind = "handoff"
)

// FaultSpec schedules one fault at an issued-op threshold.
type FaultSpec struct {
	// AtOp injects the fault just before the AtOp-th op (1-based) is
	// issued.
	AtOp int
	Kind FaultKind
	// Node indexes Cluster.Nodes.
	Node int
	// Duration bounds pause/partition/delay; the fault self-heals
	// after it (kill and diskfull heal in the heal phase instead).
	Duration time.Duration
	// Connect/Read are the injected delays (FaultDelay).
	Connect, Read time.Duration
	// Slack is how many bytes of growth FaultDiskFull leaves before
	// the disk is full (default 16 KiB).
	Slack int64
	// Shard and Target drive FaultHandoff: move Shard off Node to
	// Cluster.Nodes[Target].
	Shard  uint32
	Target int
}

// FaultNote records one injected fault for the episode report.
type FaultNote struct {
	Kind  string `json:"kind"`
	Node  string `json:"node"`
	AtOp  int    `json:"at_op"`
	Error string `json:"error,omitempty"`
}

// Report is the episode summary — the artifact the CI job uploads on
// failure.
type Report struct {
	Topology    string      `json:"topology"`
	Seed        int64       `json:"seed"`
	Ops         int         `json:"ops"`
	Acked       int         `json:"acked"`
	InDoubt     int         `json:"in_doubt"`
	NotExecuted int         `json:"not_executed"`
	Faults      []FaultNote `json:"faults"`
	// Redriven counts interrupted cross-shard transactions resolved in
	// the heal phase; Promoted names the backup that took over, if
	// any.
	Redriven int    `json:"redriven"`
	Promoted string `json:"promoted,omitempty"`
	// Oracle accounting (crashtest.ExtReport).
	OracleKeys       int    `json:"oracle_keys"`
	OracleComponents int    `json:"oracle_components"`
	OracleStates     int    `json:"oracle_states"`
	OracleErr        string `json:"oracle_err,omitempty"`
	// Merged-trace accounting.
	MergedEvents      int      `json:"merged_events"`
	TruncatedTraces   []string `json:"truncated_traces,omitempty"`
	MergeWarnings     []string `json:"merge_warnings,omitempty"`
	CheckerViolations []string `json:"checker_violations,omitempty"`
	// Index read-back: every probed key is read a second time through
	// OpGet (the path the live-version index serves) and compared
	// against the action-path probe. A mismatch means the index
	// diverged from committed state across the episode's crashes,
	// restarts, promotions, or handoffs.
	IndexProbed   int      `json:"index_probed"`
	IndexMismatch []string `json:"index_mismatch,omitempty"`
}

// Passed reports whether the episode met its authorities: the serial
// oracle accepted the external history, the merged trace ran clean
// through the checker, and the index read-back matched the probed end
// state.
func (r *Report) Passed() bool {
	return r.OracleErr == "" && len(r.CheckerViolations) == 0 && len(r.IndexMismatch) == 0
}

// EpisodeConfig is one full chaos episode: a topology, a workload, a
// fault schedule, and the scratch directory the artifacts land in.
type EpisodeConfig struct {
	Topology Topology
	Workload workload.Config
	Seed     int64
	Ops      int
	Faults   []FaultSpec
	// Dir is the scratch directory; required.
	Dir string
	// RosdBin/CtlBin are prebuilt binaries; when empty the episode
	// builds them into Dir (needs the go toolchain on PATH).
	RosdBin, CtlBin string
}

// episode carries one run's moving parts.
type episode struct {
	cfg     EpisodeConfig
	cluster *Cluster
	driver  *Driver
	report  *Report
	// lastQuorum is the primary's last observed quorum-acked byte
	// count, captured just before a primary kill — the promotion
	// safety floor.
	lastQuorum uint64
	// killedPrimary marks that heal must promote instead of restart.
	killedPrimary bool
	// probeAddr overrides the final-probe target (the promoted node).
	probeAddr string
	// handoffs tracks in-flight FaultHandoff injections; the heal phase
	// waits for each before re-driving anything that routes by shard.
	handoffs []pendingHandoff
}

// pendingHandoff is one FaultHandoff running concurrently with the
// workload.
type pendingHandoff struct {
	atOp   int
	shard  uint32
	target int
	done   chan error
}

// RunEpisode runs one chaos episode end to end: start the cluster,
// drive the seeded workload while injecting the scheduled faults, heal
// everything, re-drive interrupted commits and promotion through the
// operator paths, probe the end state against the serial oracle, then
// merge the per-process traces and run the invariant checker. The
// returned Report carries both verdicts; err is reserved for harness
// failures (a cluster that never started, an unreachable probe).
func RunEpisode(cfg EpisodeConfig) (*Report, error) {
	if cfg.Topology != TopologySharded && cfg.Workload.TxnPct != 0 {
		return nil, fmt.Errorf("chaos: cross-shard txns need the sharded topology")
	}
	if cfg.RosdBin == "" || cfg.CtlBin == "" {
		root, err := ModuleRoot()
		if err != nil {
			return nil, err
		}
		cfg.RosdBin, cfg.CtlBin, err = BuildBinaries(root, cfg.Dir)
		if err != nil {
			return nil, err
		}
	}
	cl, err := NewCluster(ClusterConfig{
		Topology: cfg.Topology, Dir: cfg.Dir, RosdBin: cfg.RosdBin, CtlBin: cfg.CtlBin,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if err := cl.Start(); err != nil {
		return nil, err
	}

	ep := &episode{
		cfg:     cfg,
		cluster: cl,
		report: &Report{
			Topology: string(cfg.Topology), Seed: cfg.Seed, Ops: cfg.Ops,
		},
	}
	drv, err := NewDriver(DriverConfig{
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Ops:      cfg.Ops,
		Seeds:    cl.Seeds(),
		Sharded:  cfg.Topology == TopologySharded,
		OnIssued: ep.onIssued,
	})
	if err != nil {
		return nil, err
	}
	ep.driver = drv
	defer drv.Close()
	if err := drv.Prime(10 * time.Second); err != nil {
		return nil, err
	}

	drv.Run()
	ep.report.Acked, ep.report.InDoubt, ep.report.NotExecuted = drv.Counts()

	if err := ep.heal(); err != nil {
		return ep.report, err
	}
	if err := ep.redrive(); err != nil {
		return ep.report, err
	}
	// Quiesce: let straggling server-side work (a SIGCONTed process
	// finishing an old action, re-driven commits applying) settle.
	time.Sleep(300 * time.Millisecond)

	if err := ep.probe(); err != nil {
		return ep.report, err
	}
	if err := ep.traces(); err != nil {
		return ep.report, err
	}
	return ep.report, nil
}

// onIssued fires scheduled faults from the dispatch loop.
func (ep *episode) onIssued(n int) {
	for i := range ep.cfg.Faults {
		f := &ep.cfg.Faults[i]
		if f.AtOp != n {
			continue
		}
		note := FaultNote{Kind: string(f.Kind), Node: ep.cluster.Nodes[f.Node].Name, AtOp: n}
		if err := ep.inject(*f); err != nil {
			note.Error = err.Error()
		}
		ep.report.Faults = append(ep.report.Faults, note)
	}
}

// inject launches one fault. Self-healing faults (pause, partition,
// delay) arm their own timers so traffic keeps flowing meanwhile.
func (ep *episode) inject(f FaultSpec) error {
	nd := ep.cluster.Nodes[f.Node]
	switch f.Kind {
	case FaultKill:
		if ep.cfg.Topology == TopologyReplicated && f.Node == ep.cluster.PrimaryIndex {
			// Capture the promotion safety floor before the murder.
			c := client.New(nd.Proxy.Addr(), client.Options{CallTimeout: time.Second, MaxAttempts: 1})
			if st, err := c.Status(); err == nil {
				ep.lastQuorum = st.Rep.QuorumBytes
			}
			//roslint:besteffort status client teardown
			_ = c.Close()
			ep.killedPrimary = true
		}
		return nd.Kill()
	case FaultPause:
		if err := nd.Pause(); err != nil {
			return err
		}
		if f.Duration > 0 {
			time.AfterFunc(f.Duration, func() {
				_ = nd.Resume() // the heal phase resumes again regardless
			})
		}
		return nil
	case FaultPartition:
		nd.Proxy.Partition()
		if f.Duration > 0 {
			time.AfterFunc(f.Duration, nd.Proxy.Heal)
		}
		return nil
	case FaultDelay:
		nd.Proxy.SetDelay(f.Connect, f.Read)
		if f.Duration > 0 {
			time.AfterFunc(f.Duration, func() { nd.Proxy.SetDelay(0, 0) })
		}
		return nil
	case FaultDiskFull:
		slack := f.Slack
		if slack <= 0 {
			slack = 16 << 10
		}
		used, err := dirSize(nd.DataDir)
		if err != nil {
			return err
		}
		if err := nd.Kill(); err != nil {
			return err
		}
		return ep.cluster.StartNode(nd, []string{"-datacap", strconv.FormatInt(used+slack, 10)})
	case FaultHandoff:
		if ep.cfg.Topology != TopologySharded {
			return fmt.Errorf("chaos: handoff fault needs the sharded topology")
		}
		target := ep.cluster.Nodes[f.Target].Proxy.Addr()
		h := pendingHandoff{atOp: f.AtOp, shard: f.Shard, target: f.Target, done: make(chan error, 1)}
		ep.handoffs = append(ep.handoffs, h)
		// The operator call runs concurrently with the workload — a
		// handoff is an online operation, and the episode's point is the
		// traffic that races it. The heal phase joins it.
		go func() {
			out, err := ep.cluster.Ctl(nd.Proxy.Addr(), "handoff",
				strconv.FormatUint(uint64(f.Shard), 10), target)
			if err != nil {
				h.done <- fmt.Errorf("rosctl handoff: %v\n%s", err, out)
				return
			}
			h.done <- nil
		}()
		return nil
	default:
		return fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
	}
}

// heal undoes every fault: resume paused processes, heal proxies,
// restart the dead — and for a killed replicated primary, promote the
// backup with the longest durable log through rosctl.
func (ep *episode) heal() error {
	for _, nd := range ep.cluster.Nodes {
		_ = nd.Resume() // resuming a process that was never stopped is a no-op
		nd.Proxy.Heal()
	}
	for i, nd := range ep.cluster.Nodes {
		if nd.Running() {
			continue
		}
		if ep.killedPrimary && ep.cfg.Topology == TopologyReplicated && i == ep.cluster.PrimaryIndex {
			continue // promoted below, not restarted
		}
		if err := ep.cluster.StartNode(nd, nil); err != nil {
			return err
		}
		if err := ep.cluster.WaitUp(nd, 10*time.Second); err != nil {
			return err
		}
	}
	// Nodes restarted by the diskfull fault carry a cap; relaunch them
	// uncapped so recovery traffic has room.
	for _, f := range ep.cfg.Faults {
		if f.Kind != FaultDiskFull {
			continue
		}
		nd := ep.cluster.Nodes[f.Node]
		if err := nd.Kill(); err != nil {
			return err
		}
		if err := ep.cluster.StartNode(nd, nil); err != nil {
			return err
		}
		if err := ep.cluster.WaitUp(nd, 10*time.Second); err != nil {
			return err
		}
	}
	if ep.killedPrimary {
		best, err := ep.cluster.Promote(ep.lastQuorum)
		if err != nil {
			return err
		}
		ep.report.Promoted = best.Name
		ep.probeAddr = best.Proxy.Addr()
	}
	// Join every in-flight handoff: a failure is a fault error (the
	// report carries it), a success rehomes the shard for everything
	// that still addresses nodes by shard (outcome queries, aborts).
	for _, h := range ep.handoffs {
		err := <-h.done
		if err != nil {
			for i := range ep.report.Faults {
				n := &ep.report.Faults[i]
				if n.Kind == string(FaultHandoff) && n.AtOp == h.atOp && n.Error == "" {
					n.Error = err.Error()
					break
				}
			}
			continue
		}
		ep.cluster.ShardAddrs[h.shard] = ep.cluster.Nodes[h.target].Proxy.Addr()
	}
	return nil
}

// redrive finishes every interrupted cross-shard commit through the
// standard completion protocol: ask the coordinator shard for the
// outcome (its committing record is the authority), then deliver the
// missing phase-two messages — Complete for committed, aborts
// everywhere the transaction might have touched for aborted.
func (ep *episode) redrive() error {
	pending := ep.driver.Pending()
	if len(pending) == 0 {
		return nil
	}
	if ep.cfg.Topology != TopologySharded {
		return fmt.Errorf("chaos: %d pending txns on a non-sharded topology", len(pending))
	}
	for _, p := range pending {
		verdict := p.Verdict
		aid := p.Txn.AID()
		if verdict == twopc.OutcomeUnknown {
			out, err := ep.queryOutcome(aid)
			if err != nil {
				return fmt.Errorf("chaos: outcome of %v: %w", aid, err)
			}
			verdict = out
		}
		if verdict == twopc.OutcomeCommitted {
			if err := ep.complete(p); err != nil {
				return err
			}
		} else {
			ep.abortEverywhere(p)
		}
		ep.report.Redriven++
	}
	return nil
}

// queryOutcome asks the coordinator shard's guardian for aid's fate,
// retrying while the healed cluster finishes coming up.
func (ep *episode) queryOutcome(aid ids.ActionID) (twopc.Outcome, error) {
	sh := uint32(aid.Coordinator)
	addr, ok := ep.cluster.ShardAddrs[sh]
	if !ok {
		return twopc.OutcomeUnknown, fmt.Errorf("no node hosts coordinator shard %d", sh)
	}
	c := client.New(addr, client.Options{CallTimeout: 2 * time.Second})
	//roslint:besteffort outcome-query client teardown
	defer c.Close()
	var last error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		out, err := c.OutcomeShard(sh, aid)
		if err == nil {
			return out, nil
		}
		last = err
		time.Sleep(100 * time.Millisecond)
	}
	return twopc.OutcomeUnknown, last
}

// complete re-drives phase two for a committed transaction.
func (ep *episode) complete(p *PendingTxn) error {
	var last error
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		res, err := p.Txn.Complete()
		if err == nil && res.Done {
			return nil
		}
		if err != nil {
			last = err
		} else {
			last = fmt.Errorf("participants unresponsive: %v", res.Unresponsive)
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("chaos: complete %v: %w", p.Txn.AID(), last)
}

// abortEverywhere delivers the abort verdict to every shard the
// transaction intended to touch — including ones whose join reply was
// lost, where a live subaction may still hold the keys' locks. An
// abort for an action a shard never saw errors harmlessly (presumed
// abort: unknown means aborted).
func (ep *episode) abortEverywhere(p *PendingTxn) {
	//roslint:besteffort abort of an already-presumed-aborted action; unreachable shards are retried below, shard by shard
	_ = p.Txn.Abort()
	tbl, ok := ep.driver.getR.Table()
	if !ok {
		return
	}
	aid := p.Txn.AID()
	for _, k := range p.Keys {
		owner := tbl.Owner(k)
		c := client.New(owner.Addr, client.Options{CallTimeout: 2 * time.Second, MaxAttempts: 1})
		//roslint:besteffort an abort for an action the shard never saw is expected to error
		_ = c.AbortShard(uint32(owner.ID), aid)
		//roslint:besteffort teardown
		_ = c.Close()
	}
}

// probe reads back every touched key and hands the oracle its final
// state. Each read retries until definitive — a value or a no-such-key
// — because the healed cluster owes us an answer for every key.
func (ep *episode) probe() error {
	keys, isBlob := ep.driver.Touched()
	final := crashtest.ExtFinal{Counters: map[string]int64{}, Blobs: map[string]string{}}

	// read goes through the action path (an invoked "get" handler);
	// idxRead goes through OpGet, the path the live-version index
	// serves. The episode's last assertion compares the two.
	var read, idxRead func(key string) (string, bool, error)
	if ep.cfg.Topology == TopologySharded {
		read = func(key string) (string, bool, error) {
			v, err := ep.driver.getR.Invoke(key, "get", value.Str(key))
			return decodeProbe(v, err)
		}
		idxRead = func(key string) (string, bool, error) {
			v, err := ep.driver.getR.Get(key)
			return decodeProbe(v, err)
		}
	} else {
		addr := ep.probeAddr
		if addr == "" {
			addr = ep.cluster.Nodes[0].Proxy.Addr()
		}
		c := client.New(addr, client.Options{CallTimeout: 2 * time.Second})
		//roslint:besteffort probe client teardown
		defer c.Close()
		read = func(key string) (string, bool, error) {
			v, err := c.Invoke("get", value.Str(key))
			return decodeProbe(v, err)
		}
		idxRead = func(key string) (string, bool, error) {
			v, err := c.Get(key)
			return decodeProbe(v, err)
		}
	}

	retry := func(key string, f func(string) (string, bool, error)) (string, bool, error) {
		for deadline := time.Now().Add(10 * time.Second); ; {
			val, present, err := f(key)
			if err == nil {
				return val, present, nil
			}
			if time.Now().After(deadline) {
				return "", false, err
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	for _, key := range keys {
		val, present, err := retry(key, read)
		if err != nil {
			return fmt.Errorf("chaos: probe %s: %w", key, err)
		}
		if !present {
			continue
		}
		if isBlob[key] {
			final.Blobs[key] = val
		} else {
			n, perr := strconv.ParseInt(val, 10, 64)
			if perr != nil {
				return fmt.Errorf("chaos: probe %s: counter value %q: %v", key, val, perr)
			}
			final.Counters[key] = n
		}
	}

	rep, err := crashtest.CheckExternal(ep.driver.History(), final)
	ep.report.OracleKeys = rep.Keys
	ep.report.OracleComponents = rep.Components
	ep.report.OracleStates = rep.States
	if err != nil {
		ep.report.OracleErr = err.Error()
	}

	// Index read-back: every touched key again, through the index-served
	// path. Present keys must answer the same rendered value the action
	// path just probed; absent keys must answer no-such-key. The crash
	// sweeps already prove the rebuilt index byte-equal after every
	// single crash point — this closes the loop end to end, across real
	// processes, promotions, and handoffs.
	for _, key := range keys {
		val, present, err := retry(key, idxRead)
		if err != nil {
			return fmt.Errorf("chaos: index probe %s: %w", key, err)
		}
		ep.report.IndexProbed++
		var want string
		wantPresent := false
		if isBlob[key] {
			want, wantPresent = final.Blobs[key], hasKey(final.Blobs, key)
		} else if n, ok := final.Counters[key]; ok {
			want, wantPresent = strconv.FormatInt(n, 10), true
		}
		switch {
		case present != wantPresent:
			ep.report.IndexMismatch = append(ep.report.IndexMismatch,
				fmt.Sprintf("%s: index-served present=%v, action-path present=%v", key, present, wantPresent))
		case present && val != want:
			ep.report.IndexMismatch = append(ep.report.IndexMismatch,
				fmt.Sprintf("%s: index-served %q, action-path %q", key, val, want))
		}
	}
	return nil
}

// hasKey reports map membership for the probe's blob map (generics-free
// helper keeps the comparison above symmetric with the counter branch).
func hasKey(m map[string]string, k string) bool {
	_, ok := m[k]
	return ok
}

// traces drains every live node (the SIGTERM path fsyncs each trace),
// merges all per-process streams in start order, and runs the checker
// over the merged stream.
func (ep *episode) traces() error {
	for _, nd := range ep.cluster.Nodes {
		if nd.Running() {
			if err := nd.Drain(10 * time.Second); err != nil {
				return err
			}
		}
	}
	var streams []obs.NodeTrace
	for _, path := range ep.cluster.TraceOrder() {
		tf, err := obs.ReadTraceFile(path)
		if err != nil {
			return fmt.Errorf("chaos: trace %s: %w", path, err)
		}
		if tf.Truncated {
			ep.report.TruncatedTraces = append(ep.report.TruncatedTraces, filepath.Base(path))
		}
		streams = append(streams, obs.NodeTrace{Node: tf.Node, Events: tf.Events})
	}
	merged, warnings := obs.MergeTraces(streams)
	ep.report.MergedEvents = len(merged)
	ep.report.MergeWarnings = warnings
	// The merged stream interleaves every committer of every node, so
	// R2's serial-only force-inside-crit check does not apply.
	ck := obs.NewConcurrentChecker(nil)
	for _, e := range merged {
		ck.Emit(e)
	}
	ep.report.CheckerViolations = ck.Violations()
	return nil
}

// dirSize sums the file sizes under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// decodeProbe folds one probe reply into (value, present, err): a
// definitive "no such key" remote error is a successful absent read,
// not a failure.
func decodeProbe(v value.Value, err error) (string, bool, error) {
	switch {
	case err == nil:
		return renderValue(v), true, nil
	case errors.Is(err, wire.ErrRemote) && strings.Contains(err.Error(), "no such key"):
		return "", false, nil
	default:
		return "", false, err
	}
}
