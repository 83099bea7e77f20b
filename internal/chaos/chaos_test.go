package chaos

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos/workload"
)

// Binaries are built once per test run; episodes share them.
var (
	binDir  string
	binRosd string
	binCtl  string
)

func TestMain(m *testing.M) {
	var code int
	func() {
		var err error
		binDir, err = os.MkdirTemp("", "chaosbin-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
			return
		}
		defer os.RemoveAll(binDir)
		root, err := ModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
			return
		}
		binRosd, binCtl, err = BuildBinaries(root, binDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
			return
		}
		code = m.Run()
	}()
	os.Exit(code)
}

// --- proxy unit tests -------------------------------------------------

// echoServer accepts connections and echoes bytes back.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				wg.Wait()
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						if _, err := c.Write(buf[:n]); err != nil {
							break
						}
					}
					if err != nil {
						break
					}
				}
				c.Close()
			}()
		}
	}()
	return ln
}

func roundtrip(t *testing.T, addr string) error {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		return err
	}
	if _, err := c.Write([]byte("ping")); err != nil {
		return err
	}
	buf := make([]byte, 4)
	if _, err := c.Read(buf); err != nil {
		return err
	}
	if string(buf) != "ping" {
		return fmt.Errorf("echoed %q", buf)
	}
	return nil
}

func TestProxyPartitionHealDelay(t *testing.T) {
	ln := echoServer(t)
	defer ln.Close()
	p, err := NewProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := roundtrip(t, p.Addr()); err != nil {
		t.Fatalf("healthy roundtrip: %v", err)
	}

	p.Partition()
	if err := roundtrip(t, p.Addr()); err == nil {
		t.Fatal("roundtrip succeeded across a partition")
	}

	p.Heal()
	if err := roundtrip(t, p.Addr()); err != nil {
		t.Fatalf("roundtrip after heal: %v", err)
	}

	p.SetDelay(0, 80*time.Millisecond)
	start := time.Now()
	if err := roundtrip(t, p.Addr()); err != nil {
		t.Fatalf("delayed roundtrip: %v", err)
	}
	if d := time.Since(start); d < 80*time.Millisecond {
		t.Fatalf("read delay not applied: roundtrip took %v", d)
	}
}

// --- full episodes ----------------------------------------------------

// requireEpisode runs one episode and fails the test on any harness
// error, oracle violation, checker violation, or errored fault
// injection. A failed test keeps its evidence: cfg.Dir is a t.TempDir
// the test would delete, so the episode directory (per-node traces and
// data) moves to a fresh chaos-failed-* directory beside the artifacts
// roschaos would have written — episode.json and the replayable
// workload.bin — and the path is logged (CI uploads that glob).
func requireEpisode(t *testing.T, cfg EpisodeConfig) *Report {
	t.Helper()
	cfg.RosdBin, cfg.CtlBin = binRosd, binCtl
	var rep *Report
	t.Cleanup(func() { // registered after cfg.Dir's own cleanup, so it runs first
		if !t.Failed() {
			return
		}
		kept, err := os.MkdirTemp("", "chaos-failed-*")
		if err == nil {
			kept = filepath.Join(kept, "episode")
			err = os.Rename(cfg.Dir, kept)
		}
		if err != nil {
			t.Logf("could not keep the failed episode: %v", err)
			return
		}
		report, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(kept, "episode.json"), append(report, '\n'), 0o644)
		}
		if err == nil {
			err = os.WriteFile(filepath.Join(kept, "workload.bin"), workload.EncodeConfig(cfg.Workload), 0o644)
		}
		t.Logf("failed episode kept in %s (artifact write error: %v)", kept, err)
	})
	rep, err := RunEpisode(cfg)
	if rep != nil {
		t.Logf("episode: acked=%d inDoubt=%d notExec=%d redriven=%d promoted=%q mergedEvents=%d truncated=%v oracleStates=%d idxProbed=%d",
			rep.Acked, rep.InDoubt, rep.NotExecuted, rep.Redriven, rep.Promoted,
			rep.MergedEvents, rep.TruncatedTraces, rep.OracleStates, rep.IndexProbed)
	}
	if err != nil {
		t.Fatalf("episode harness: %v", err)
	}
	for _, f := range rep.Faults {
		if f.Error != "" {
			t.Errorf("fault %s on %s at op %d: %s", f.Kind, f.Node, f.AtOp, f.Error)
		}
	}
	if rep.OracleErr != "" {
		t.Errorf("oracle: %s", rep.OracleErr)
	}
	for _, v := range rep.CheckerViolations {
		t.Errorf("checker: %s", v)
	}
	for _, w := range rep.MergeWarnings {
		t.Logf("merge warning: %s", w)
	}
	if rep.Acked == 0 {
		t.Error("no op was ever acked — the episode exercised nothing")
	}
	if rep.MergedEvents == 0 {
		t.Error("merged trace is empty")
	}
	for _, m := range rep.IndexMismatch {
		t.Errorf("index read-back: %s", m)
	}
	if rep.IndexProbed == 0 {
		t.Error("index read-back probed no keys")
	}
	return rep
}

// TestEpisodeReplicated drives a 3-process replicated cluster through
// four faults — a paused backup, a partitioned backup, an injected-
// latency backup, and a SIGKILLed primary mid-traffic — then promotes
// the longest backup through rosctl and verifies no acked op was lost
// and the merged trace holds every checker invariant.
func TestEpisodeReplicated(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process episode")
	}
	wcfg := workload.Default()
	wcfg.Keys = 48
	wcfg.IncrPct += wcfg.TxnPct // replication has one shard; no cross-shard txns
	wcfg.TxnPct = 0
	wcfg.QPS = 200
	wcfg.InFlight = 8

	rep := requireEpisode(t, EpisodeConfig{
		Topology: TopologyReplicated,
		Workload: wcfg,
		Seed:     7,
		Ops:      400,
		Dir:      t.TempDir(),
		Faults: []FaultSpec{
			{AtOp: 80, Kind: FaultPause, Node: 1, Duration: 500 * time.Millisecond},
			{AtOp: 160, Kind: FaultPartition, Node: 2, Duration: 500 * time.Millisecond},
			{AtOp: 240, Kind: FaultDelay, Node: 1, Duration: 300 * time.Millisecond,
				Connect: 30 * time.Millisecond, Read: 10 * time.Millisecond},
			{AtOp: 340, Kind: FaultKill, Node: 0},
		},
	})
	if rep.Promoted == "" {
		t.Error("primary was killed but no backup was promoted")
	}
	if len(rep.Faults) != 4 {
		t.Errorf("injected %d faults, want 4", len(rep.Faults))
	}
}

// TestEpisodeSharded drives the 4-shard 3-process cluster — with live
// cross-shard transactions in the mix — through a paused node, a
// partitioned node, and a SIGKILL of node0 (which hosts two shards and
// so coordinates most transactions) timed to land while a transaction
// is in flight. The heal phase restarts the dead process, whose
// recovery replays its log and settles its own in-doubt actions, and
// re-drives every interrupted commit; then the oracle checks
// conservation across shards and the checker sweeps the merged trace.
func TestEpisodeSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process episode")
	}
	wcfg := workload.Default() // TxnPct 10: cross-shard transfers live
	wcfg.QPS = 200
	wcfg.InFlight = 8
	const seed, ops = 11, 400

	// Time the kill to land right after a transaction dispatches, so
	// the SIGKILL hits its coordinator mid-commit: replay the
	// deterministic op stream and pick the last txn in the 60–90% band.
	atKill := ops * 17 / 20
	gen, err := workload.New(wcfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= ops*9/10; i++ {
		op := gen.Next()
		if op.Kind == workload.KindTxn && i >= ops*6/10 {
			atKill = i + 1
		}
	}

	rep := requireEpisode(t, EpisodeConfig{
		Topology: TopologySharded,
		Workload: wcfg,
		Seed:     seed,
		Ops:      ops,
		Dir:      t.TempDir(),
		Faults: []FaultSpec{
			{AtOp: 80, Kind: FaultPause, Node: 2, Duration: 500 * time.Millisecond},
			{AtOp: 160, Kind: FaultPartition, Node: 1, Duration: 500 * time.Millisecond},
			{AtOp: atKill, Kind: FaultKill, Node: 0},
		},
	})
	if len(rep.Faults) != 3 {
		t.Errorf("injected %d faults, want 3", len(rep.Faults))
	}
}

// TestEpisodeShardedHandoff moves a shard between live nodes in the
// middle of the workload: shard 4 is drained off node1, shipped, and
// adopted by node2 (which recovers over the shipped log and rebuilds
// the shard's live-version index from scratch) while clients keep
// writing through the stale route and converging via wrong-shard
// refusals. A node kill later in the run layers a restart recovery on
// top. The index read-back then verifies every key — including the
// rehomed shard's — answers its committed value through OpGet.
func TestEpisodeShardedHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process episode")
	}
	wcfg := workload.Default()
	wcfg.QPS = 200
	wcfg.InFlight = 8

	rep := requireEpisode(t, EpisodeConfig{
		Topology: TopologySharded,
		Workload: wcfg,
		Seed:     19,
		Ops:      400,
		Dir:      t.TempDir(),
		Faults: []FaultSpec{
			{AtOp: 120, Kind: FaultHandoff, Node: 1, Shard: 4, Target: 2},
			{AtOp: 300, Kind: FaultKill, Node: 1},
		},
	})
	if len(rep.Faults) != 2 {
		t.Errorf("injected %d faults, want 2", len(rep.Faults))
	}
	if !rep.Passed() {
		t.Error("episode did not pass both authorities and the index read-back")
	}
}

// TestEpisodeDiskFull runs a standalone node into a size-capped data
// directory mid-traffic: stable-storage growth starts failing like a
// full disk, the node keeps refusing work it cannot make durable, and
// after an uncapped restart the oracle confirms no acked op leaked and
// no refused op left an effect.
func TestEpisodeDiskFull(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process episode")
	}
	wcfg := workload.Default()
	wcfg.Keys = 32
	wcfg.IncrPct += wcfg.TxnPct
	wcfg.TxnPct = 0
	wcfg.QPS = 200
	wcfg.InFlight = 8

	requireEpisode(t, EpisodeConfig{
		Topology: TopologyStandalone,
		Workload: wcfg,
		Seed:     3,
		Ops:      240,
		Dir:      t.TempDir(),
		Faults: []FaultSpec{
			{AtOp: 80, Kind: FaultDiskFull, Node: 0, Slack: 8 << 10},
		},
	})
}
