package crashtest

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestSweepAllBackends runs the exhaustive crash-point sweep — every
// device write of the scripted history, every write of the recovery
// that follows (double crash), and a triple-crash probe at each of
// those — for all three backends.
func TestSweepAllBackends(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			res, err := Sweep(SweepConfig{Backend: b, Seed: 1, Steps: 3, Mutex: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Writes == 0 || res.Points <= res.Writes {
				t.Fatalf("degenerate sweep: %+v", res)
			}
			if res.Deepest < 3 {
				t.Fatalf("no triple crash exercised: %+v", res)
			}
		})
	}
}

// TestSweepCounts pins every sweep's exact tallies per topology and
// backend: a change that moves a count is a reviewed diff of this
// table, not a silent drift.
func TestSweepCounts(t *testing.T) {
	single := func(b core.Backend) SweepConfig {
		return SweepConfig{Backend: b, Seed: 1, Steps: 3, Mutex: true}
	}
	replicated := func(b core.Backend) SweepConfig {
		return SweepConfig{Topology: TopologyReplicated, Backend: b, Seed: 1, Steps: 3}
	}
	sharded := func(b core.Backend) SweepConfig {
		return SweepConfig{Topology: TopologySharded, Backend: b, Steps: 4}
	}
	for _, tc := range []struct {
		cfg  SweepConfig
		want SweepResult
	}{
		{single(core.BackendSimple), SweepResult{Writes: 44, Points: 449, Recoveries: 1168, Deepest: 3}},
		{single(core.BackendHybrid), SweepResult{Writes: 44, Points: 449, Recoveries: 1168, Deepest: 3}},
		{single(core.BackendShadow), SweepResult{Writes: 46, Points: 551, Recoveries: 1466, Deepest: 3}},
		{replicated(core.BackendSimple), SweepResult{Writes: 56, Points: 169, Recoveries: 169, Deepest: 1}},
		{replicated(core.BackendHybrid), SweepResult{Writes: 44, Points: 133, Recoveries: 133, Deepest: 1}},
		{sharded(core.BackendSimple), SweepResult{Writes: 86, Points: 87, Recoveries: 86, Deepest: 1}},
		{sharded(core.BackendHybrid), SweepResult{Writes: 86, Points: 87, Recoveries: 86, Deepest: 1}},
		{sharded(core.BackendShadow), SweepResult{Writes: 94, Points: 95, Recoveries: 94, Deepest: 1}},
	} {
		tc := tc
		t.Run(tc.cfg.Topology.String()+"/"+tc.cfg.Backend.String(), func(t *testing.T) {
			got, err := Sweep(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestSweepHousekeeping sweeps a hybrid history that interleaves
// compaction and snapshot passes, so crash points land inside
// housekeeping (including the atomic log switch) too.
func TestSweepHousekeeping(t *testing.T) {
	res, err := Sweep(SweepConfig{
		Backend: core.BackendHybrid, Seed: 3, Steps: 4, Mutex: true, Housekeep: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Writes == 0 {
		t.Fatalf("degenerate sweep: %+v", res)
	}
}

// TestSweepMultipleSeeds varies the scripted history.
func TestSweepMultipleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep skipped in -short mode")
	}
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		for seed := int64(1); seed <= 3; seed++ {
			cfg := SweepConfig{Backend: b, Seed: seed, Steps: 4, Mutex: true,
				Housekeep: seed == 2 && b == core.BackendHybrid}
			if _, err := Sweep(cfg); err != nil {
				t.Fatalf("%v seed %d: %v", b, seed, err)
			}
		}
	}
}

// TestRepSweep crashes the replicated primary at every device write,
// crossed with every quorum-preserving replica availability pattern,
// promotes the best backup at each point, and verifies the takeover
// against the serial oracle: no acknowledged commit is ever lost.
func TestRepSweep(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			res, err := Sweep(SweepConfig{Topology: TopologyReplicated, Backend: b, Seed: 1, Steps: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Every (crash write × pattern) plus the zero-crash corner.
			want := len(repDownPatterns)*res.Writes + 1
			if res.Writes == 0 || res.Points != want {
				t.Fatalf("degenerate replicated sweep: %+v, want %d points", res, want)
			}
			if res.Recoveries != res.Points {
				t.Fatalf("unverified takeovers: %+v", res)
			}
		})
	}
}

// TestRepSweepMultipleSeeds varies the replicated history.
func TestRepSweepMultipleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replicated sweep skipped in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := SweepConfig{Topology: TopologyReplicated, Backend: core.BackendHybrid, Seed: seed, Steps: 4}
		if _, err := Sweep(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestShardSweep crashes the coordinator shard's guardian at every one
// of its device writes during a cross-shard transfer history, recovers
// it, settles the two-shard cluster, and verifies the serial oracle:
// conservation across shards and zero acked-but-lost.
func TestShardSweep(t *testing.T) {
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			res, err := Sweep(SweepConfig{Topology: TopologySharded, Backend: b, Steps: 4})
			if err != nil {
				t.Fatal(err)
			}
			// Every crash write plus the counting run.
			if res.Writes == 0 || res.Points != res.Writes+1 {
				t.Fatalf("degenerate cross-shard sweep: %+v", res)
			}
			if res.Recoveries == 0 {
				t.Fatalf("sweep never exercised recovery: %+v", res)
			}
		})
	}
}

// TestSweepRefusesUnhonouredFields: a field the topology cannot honour
// is an error before anything runs, never silently ignored.
func TestSweepRefusesUnhonouredFields(t *testing.T) {
	for _, cfg := range []SweepConfig{
		{Topology: TopologyReplicated, Seed: 1, Steps: 3, Decay: DecayDeviceA},
		{Topology: TopologyReplicated, Seed: 1, Steps: 3, Housekeep: true},
		{Topology: TopologyReplicated, Backend: core.BackendShadow, Seed: 1, Steps: 3},
		{Topology: TopologySharded, Seed: 1, Steps: 4},
		{Topology: TopologySharded, Steps: 4, Mutex: true},
		{Topology: TopologySharded, Steps: 4, Decay: DecayAlternate},
		{Topology: TopologySharded, Steps: 0},
		{Topology: TopologySharded, Steps: 17},
		{Backend: core.BackendSimple, Seed: 1, Steps: 3, Housekeep: true},
		{Topology: TopologySharded + 1, Steps: 3},
	} {
		res, err := Sweep(cfg)
		var se *SweepError
		if err == nil || errors.As(err, &se) || res != (SweepResult{}) {
			t.Errorf("%+v: got %+v, %v; want a refusal before any scenario ran", cfg, res, err)
		}
	}
}

// TestSweepErrorIdentifiesScenario: a SweepError must carry the full
// replay coordinates of every topology for roscrash to print.
func TestSweepErrorIdentifiesScenario(t *testing.T) {
	for _, tc := range []struct {
		e    SweepError
		want []string
	}{
		{SweepError{Topology: TopologySingle, Backend: core.BackendHybrid, Seed: 42, Decay: DecayAlternate,
			Crashes: []int{17, 3, 1}, Step: 2},
			[]string{"single", "hybrid", "seed=42", "decay=alternate", "crashes=[17 3 1]", "step=2"}},
		{SweepError{Topology: TopologyReplicated, Backend: core.BackendSimple, Seed: 7, Down: RepDownSecond,
			Crashes: []int{23}, Step: 1},
			[]string{"replicated", "simple", "seed=7", "down=second-down", "crashes=[23]", "step=1"}},
		{SweepError{Topology: TopologySharded, Backend: core.BackendHybrid, Crashes: []int{0}, Step: 4},
			[]string{"sharded", "hybrid", "crashes=[0]", "step=4"}},
	} {
		e := tc.e
		e.Err = errors.New("boom")
		t.Run(e.Topology.String(), func(t *testing.T) {
			got := e.Error()
			for _, want := range append(tc.want, "boom") {
				if !strings.Contains(got, want) {
					t.Fatalf("SweepError %q missing %q", got, want)
				}
			}
			if !errors.Is(&e, e.Err) {
				t.Fatal("SweepError does not unwrap")
			}
		})
	}
}
