// Command rosbench regenerates the reproduction's experiment tables
// E1–E6 (see DESIGN.md's experiment index and EXPERIMENTS.md): the
// thesis's own in-process comparison of the three stable-storage
// organizations — write cost (E1), recovery cost (E2) and entries
// examined (E3) — plus the early-prepare effect (E4), compaction
// against snapshot (E5) and the effect of housekeeping on recovery
// (E6). All of it runs in-process on the memory device: the count
// columns (log bytes, entries read, objects copied) are
// machine-independent, the µs columns are this host's. The served
// path — commits, reads and restarts through the client, wire, server
// and a real device — is measured by ./bench and nowhere else.
//
// Usage:
//
//	rosbench [-experiment all|e1|e2|e3|e4|e5|e6] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/object"
	"repro/internal/value"
)

var (
	experiment = flag.String("experiment", "all", "which experiment to run: all, e1..e6")
	quick      = flag.Bool("quick", false, "smaller workloads for a fast smoke run")
)

func main() {
	flag.Parse()
	run := func(name string, fn func()) {
		if *experiment == "all" || *experiment == name {
			fn()
		}
	}
	run("e1", e1WriteCost)
	run("e2", e2RecoveryCost)
	run("e3", e3ScanCost)
	run("e4", e4EarlyPrepare)
	run("e5", e5Housekeeping)
	run("e6", e6RecoveryAfterHousekeeping)
}

func backends() []core.Backend {
	return []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "rosbench:", err)
		os.Exit(1)
	}
}

func e1WriteCost() {
	fmt.Println("E1 — write cost per committed action (§1.2.2: shadowing pays the map rewrite)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\tlive objects\tobjs/commit\tcommit µs\tlog bytes/commit")
	iters := 300
	sizes := []int{64, 512}
	if *quick {
		iters = 60
		sizes = []int{32, 128}
	}
	for _, b := range backends() {
		for _, objs := range sizes {
			for _, batch := range []int{1, 8} {
				g := commitHistory(b, objs, 0, 0)
				startBytes := g.RS().LogBytes()
				start := time.Now()
				for i := 0; i < iters; i++ {
					act := g.Begin()
					for j := 0; j < batch; j++ {
						o, _ := g.VarAtomic(fmt.Sprintf("c%d", (i+j)%objs))
						die(act.Update(o, func(v value.Value) value.Value {
							return value.Int(int64(v.(value.Int)) + 1)
						}))
					}
					die(act.Commit())
				}
				el := time.Since(start)
				perCommit := float64(g.RS().LogBytes()-startBytes) / float64(iters)
				fmt.Fprintf(w, "%v\t%d\t%d\t%.1f\t%.0f\n",
					b, objs, batch, float64(el.Microseconds())/float64(iters), perCommit)
			}
		}
	}
	w.Flush()
	fmt.Println()
}

func e2RecoveryCost() {
	fmt.Println("E2 — recovery cost by organization (µs and entries read)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\thistory\trecovery µs\tentries read")
	histories := []int{100, 1000}
	if *quick {
		histories = []int{50, 200}
	}
	for _, b := range backends() {
		for _, h := range histories {
			g := commitHistory(b, 32, h, 2)
			g.Crash()
			start := time.Now()
			rec, err := guardian.RecoverStats(g)
			die(err)
			el := time.Since(start)
			fmt.Fprintf(w, "%v\t%d\t%.0f\t%d\n", b, h, float64(el.Microseconds()), rec.EntriesRead)
		}
	}
	w.Flush()
	fmt.Println()
}

func commitHistory(b core.Backend, counters, history, batch int) *guardian.Guardian {
	g, err := guardian.New(1, guardian.WithBackend(b))
	die(err)
	a := g.Begin()
	objs := make([]*object.Atomic, counters)
	for i := range objs {
		o, err := a.NewAtomic(value.Int(0))
		die(err)
		die(a.SetVar(fmt.Sprintf("c%d", i), o))
		objs[i] = o
	}
	die(a.Commit())
	for i := 0; i < history; i++ {
		act := g.Begin()
		for j := 0; j < batch; j++ {
			o := objs[(i+j)%counters]
			die(act.Update(o, func(v value.Value) value.Value {
				return value.Int(int64(v.(value.Int)) + 1)
			}))
		}
		die(act.Commit())
	}
	return g
}

func e3ScanCost() {
	fmt.Println("E3 — entries examined during recovery (hybrid reads the outcome chain only)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "organization\tdata:outcome\tentries read")
	history := 200
	if *quick {
		history = 60
	}
	for _, b := range backends() {
		for _, batch := range []int{1, 16} {
			g := commitHistory(b, 32, history, batch)
			g.Crash()
			rec, err := guardian.RecoverStats(g)
			die(err)
			fmt.Fprintf(w, "%v\t%d:4\t%d\n", b, batch, rec.EntriesRead)
		}
	}
	w.Flush()
	fmt.Println()
}

func e4EarlyPrepare() {
	fmt.Println("E4 — prepare-phase latency with and without early prepare (§4.4)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\tobjects\tprepare µs (median of runs)")
	iters := 200
	if *quick {
		iters = 50
	}
	for _, early := range []bool{false, true} {
		for _, k := range []int{4, 32} {
			g := commitHistory(core.BackendHybrid, k, 0, 0)
			var total time.Duration
			for i := 0; i < iters; i++ {
				a := g.Begin()
				for j := 0; j < k; j++ {
					o, _ := g.VarAtomic(fmt.Sprintf("c%d", j))
					die(a.Update(o, func(v value.Value) value.Value {
						return value.Int(int64(v.(value.Int)) + 1)
					}))
				}
				if early {
					die(a.EarlyPrepare())
				}
				start := time.Now()
				_, err := g.HandlePrepare(a.ID())
				die(err)
				total += time.Since(start)
				die(g.HandleCommit(a.ID()))
			}
			mode := "cold"
			if early {
				mode = "early"
			}
			fmt.Fprintf(w, "%s\t%d\t%.1f\n", mode, k, float64(total.Microseconds())/float64(iters))
		}
	}
	w.Flush()
	fmt.Println()
}

func e5Housekeeping() {
	fmt.Println("E5 — compaction vs snapshot as garbage grows (§5.3)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "algorithm\tlive\tdead ratio\tµs\told entries read\tobjects copied")
	ratios := []int{2, 16, 64}
	if *quick {
		ratios = []int{2, 8}
	}
	for _, kind := range []core.HousekeepKind{core.HousekeepCompact, core.HousekeepSnapshot} {
		name := "compaction"
		if kind == core.HousekeepSnapshot {
			name = "snapshot"
		}
		for _, ratio := range ratios {
			const live = 32
			g := commitHistory(core.BackendHybrid, live, live*ratio/2, 2)
			start := time.Now()
			stats, err := g.Housekeep(kind)
			die(err)
			el := time.Since(start)
			fmt.Fprintf(w, "%s\t%d\t%dx\t%.0f\t%d\t%d\n",
				name, live, ratio, float64(el.Microseconds()), stats.OldEntriesRead, stats.ObjectsCopied)
		}
	}
	w.Flush()
	fmt.Println()
}

func e6RecoveryAfterHousekeeping() {
	fmt.Println("E6 — recovery before vs after housekeeping bounds recovery cost (ch. 5)")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "state\trecovery µs\tentries read")
	history := 500
	if *quick {
		history = 100
	}
	for _, housekept := range []bool{false, true} {
		g := commitHistory(core.BackendHybrid, 32, history, 2)
		label := "before"
		if housekept {
			label = "after"
			_, err := g.Housekeep(core.HousekeepSnapshot)
			die(err)
		}
		g.Crash()
		start := time.Now()
		rec, err := guardian.RecoverStats(g)
		die(err)
		el := time.Since(start)
		fmt.Fprintf(w, "%s\t%.0f\t%d\n", label, float64(el.Microseconds()), rec.EntriesRead)
	}
	w.Flush()
	fmt.Println()
}
