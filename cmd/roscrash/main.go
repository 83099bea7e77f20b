// Command roscrash runs the crash-injection harnesses as a soak test:
// randomized action histories with device-level crashes at arbitrary
// write counts, recovery after each, checked against a serial oracle
// (the thesis's chapter 6 correctness property), plus a distributed
// mode where guardians exchange funds under two-phase commit while
// nodes crash (money conservation).
//
// With -sweep it instead runs the exhaustive crash-point sweep
// (crashtest.Sweep) over every topology the backend supports: single —
// a scripted history crashed at every device write, every write of the
// recovery that follows, and once more inside the second recovery
// (triple crash), with single-copy decay injected between crash and
// recovery, per seed and decay mode; replicated — the primary crashed
// at every write under each backup down pattern and the best backup
// promoted, per seed (not on shadow, which keeps no log to ship);
// sharded — the coordinator shard of a two-shard transfer history
// crashed at every write and the cluster settled, once (the history
// takes no seed). Every point is checked against the serial oracle.
// Each sweep prints one row
//
//	ok   sweep  <topology> <backend> seed=… decay=… writes=… points=… recoveries=… deepest=… (…s)
//
// and a failure prints the exact replay coordinates — topology,
// backend, seed, decay mode, down pattern, crash schedule and step —
// and exits non-zero.
//
// Usage:
//
//	roscrash [-mode single|distributed|both] [-backend simple|hybrid|shadow|all]
//	         [-steps 500] [-seeds 10] [-crash-every 5] [-housekeep-every 20]
//	roscrash -sweep [-backend ...] [-seeds 10] [-sweep-steps 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/crashtest"
)

var (
	mode       = flag.String("mode", "both", "single, distributed, or both")
	backend    = flag.String("backend", "all", "simple, hybrid, shadow, or all")
	steps      = flag.Int("steps", 500, "actions per run")
	seeds      = flag.Int("seeds", 10, "number of seeds per configuration")
	crashEvery = flag.Int("crash-every", 5, "~1/n actions interrupted by a crash")
	hkEvery    = flag.Int("housekeep-every", 20, "housekeeping interval (hybrid only; 0 disables)")
	guardians  = flag.Int("guardians", 4, "guardians in distributed mode")
	sweep      = flag.Bool("sweep", false, "run the exhaustive crash-point sweep instead of the randomized soak")
	sweepSteps = flag.Int("sweep-steps", 4, "scripted actions per sweep history")
)

func main() {
	flag.Parse()
	backends := map[string][]core.Backend{
		"simple": {core.BackendSimple},
		"hybrid": {core.BackendHybrid},
		"shadow": {core.BackendShadow},
		"all":    {core.BackendSimple, core.BackendHybrid, core.BackendShadow},
	}[*backend]
	if backends == nil {
		fmt.Fprintf(os.Stderr, "roscrash: unknown backend %q\n", *backend)
		os.Exit(2)
	}
	failed := false
	for _, b := range backends {
		if *sweep {
			failed = runSweep(b) || failed
			continue
		}
		if *mode == "single" || *mode == "both" {
			failed = runSingle(b) || failed
		}
		if *mode == "distributed" || *mode == "both" {
			failed = runDistributed(b) || failed
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("all runs passed")
}

func runSingle(b core.Backend) (failed bool) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		cfg := crashtest.Config{
			Backend:    b,
			Counters:   6,
			Steps:      *steps,
			Seed:       seed,
			CrashEvery: *crashEvery,
			Mutex:      true,
		}
		if b == core.BackendHybrid {
			cfg.HousekeepEvery = *hkEvery
		}
		start := time.Now()
		res, err := crashtest.Run(cfg)
		if err != nil {
			fmt.Printf("FAIL single %-7v seed=%-3d %v\n", b, seed, err)
			failed = true
			continue
		}
		fmt.Printf("ok   single %-7v seed=%-3d committed=%d aborted=%d crashes=%d recoveries=%d (%.2fs)\n",
			b, seed, res.Committed, res.Aborted, res.Crashes, res.Recoveries,
			time.Since(start).Seconds())
	}
	return failed
}

// runSweep exhausts every crash point of every sweep in the backend's
// matrix. A failure prints the exact replay coordinates (the
// *crashtest.SweepError) so the scenario can be rerun alone.
func runSweep(b core.Backend) (failed bool) {
	for _, cfg := range crashtest.SweepMatrix(b, *seeds, *sweepSteps) {
		start := time.Now()
		res, err := crashtest.Sweep(cfg)
		if err != nil {
			fmt.Printf("FAIL %v\n", err)
			failed = true
			continue
		}
		fmt.Printf("ok   sweep  %-10v %-7v seed=%-3d decay=%-9v writes=%d points=%d recoveries=%d deepest=%d (%.2fs)\n",
			cfg.Topology, b, cfg.Seed, cfg.Decay, res.Writes, res.Points, res.Recoveries, res.Deepest,
			time.Since(start).Seconds())
	}
	return failed
}

func runDistributed(b core.Backend) (failed bool) {
	for seed := int64(1); seed <= int64(*seeds); seed++ {
		cfg := crashtest.DistributedConfig{
			Backend:        b,
			Guardians:      *guardians,
			Steps:          *steps,
			Seed:           seed,
			CrashEvery:     *crashEvery,
			InitialBalance: 10_000,
		}
		if b == core.BackendHybrid {
			cfg.HousekeepEvery = *hkEvery
		}
		start := time.Now()
		res, err := crashtest.RunDistributed(cfg)
		if err != nil {
			fmt.Printf("FAIL dist   %-7v seed=%-3d %v\n", b, seed, err)
			failed = true
			continue
		}
		fmt.Printf("ok   dist   %-7v seed=%-3d committed=%d aborted=%d crashes=%d queries=%d (%.2fs)\n",
			b, seed, res.Committed, res.Aborted, res.Crashes, res.Queries,
			time.Since(start).Seconds())
	}
	return failed
}
