package ros

// Benchmark harness for the thesis's performance claims (see
// DESIGN.md's experiment index and EXPERIMENTS.md for results):
//
//	E1  write cost:    pure log ≈ hybrid ≪ shadowing      (§1.2.2, §4.1)
//	E2  recovery cost: shadowing ≪ hybrid < pure log      (§1.2.2, §4.1)
//	E3  recovery scan: hybrid reads outcome entries only  (§4.1)
//	E4  early prepare shortens the prepare phase          (§4.4)
//	E5  snapshot ∝ live set, compaction ∝ whole log       (§5.3)
//	E6  housekeeping bounds recovery cost                 (ch. 5)
//
// The absolute numbers are simulation times; the claims are about the
// relative shapes, which EXPERIMENTS.md records.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
)

// buildGuardian creates a guardian with n counters bound to stable
// variables, all committed.
func buildGuardian(b *testing.B, backend core.Backend, n int) (*guardian.Guardian, []*Atomic) {
	b.Helper()
	g, err := guardian.New(1, guardian.WithBackend(backend))
	if err != nil {
		b.Fatal(err)
	}
	counters := make([]*Atomic, n)
	a := g.Begin()
	for i := range counters {
		c, err := a.NewAtomic(Int(0))
		if err != nil {
			b.Fatal(err)
		}
		counters[i] = c
		if err := a.SetVar(fmt.Sprintf("c%d", i), c); err != nil {
			b.Fatal(err)
		}
	}
	if err := a.Commit(); err != nil {
		b.Fatal(err)
	}
	return g, counters
}

// commitBatch commits one action updating k counters starting at off.
func commitBatch(b *testing.B, g *guardian.Guardian, counters []*Atomic, off, k int) {
	b.Helper()
	a := g.Begin()
	for j := 0; j < k; j++ {
		c := counters[(off+j)%len(counters)]
		if err := a.Update(c, func(v Value) Value { return Int(int64(v.(Int)) + 1) }); err != nil {
			b.Fatal(err)
		}
	}
	if err := a.Commit(); err != nil {
		b.Fatal(err)
	}
}

// --- E1: write cost per committed action --------------------------------

func benchWrite(b *testing.B, backend core.Backend) {
	for _, objs := range []int{64, 512} {
		for _, batch := range []int{1, 8} {
			b.Run(fmt.Sprintf("objs=%d/batch=%d", objs, batch), func(b *testing.B) {
				g, counters := buildGuardian(b, backend, objs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					commitBatch(b, g, counters, i, batch)
				}
				b.StopTimer()
				b.ReportMetric(float64(g.RS().LogBytes())/float64(b.N), "logB/op")
			})
		}
	}
}

func BenchmarkWritePureLog(b *testing.B)   { benchWrite(b, core.BackendSimple) }
func BenchmarkWriteHybridLog(b *testing.B) { benchWrite(b, core.BackendHybrid) }
func BenchmarkWriteShadow(b *testing.B)    { benchWrite(b, core.BackendShadow) }

// --- E2: recovery cost after a history of commits ------------------------

func benchRecover(b *testing.B, backend core.Backend) {
	for _, history := range []int{100, 1000} {
		b.Run(fmt.Sprintf("history=%d", history), func(b *testing.B) {
			g, counters := buildGuardian(b, backend, 32)
			for i := 0; i < history; i++ {
				commitBatch(b, g, counters, i, 2)
			}
			g.Crash()
			b.ResetTimer()
			var entries int
			for i := 0; i < b.N; i++ {
				rec, err := guardian.RecoverStats(g)
				if err != nil {
					b.Fatal(err)
				}
				entries = rec.EntriesRead
			}
			b.StopTimer()
			b.ReportMetric(float64(entries), "entriesRead")
		})
	}
}

func BenchmarkRecoverPureLog(b *testing.B)   { benchRecover(b, core.BackendSimple) }
func BenchmarkRecoverHybridLog(b *testing.B) { benchRecover(b, core.BackendHybrid) }
func BenchmarkRecoverShadow(b *testing.B)    { benchRecover(b, core.BackendShadow) }

// --- E3: recovery scan cost (entries examined) ---------------------------

// BenchmarkRecoveryScanCost reports how many log entries each
// organization examines to recover the same state: the structural
// difference of §4.1 (and §1.2.2 for shadowing).
func BenchmarkRecoveryScanCost(b *testing.B) {
	for _, backend := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		for _, batch := range []int{1, 16} { // data entries per outcome
			history := 200
			b.Run(fmt.Sprintf("%s/batch=%d", backend, batch), func(b *testing.B) {
				g, counters := buildGuardian(b, backend, 32)
				for i := 0; i < history; i++ {
					commitBatch(b, g, counters, i, batch)
				}
				g.Crash()
				b.ResetTimer()
				var entries float64
				for i := 0; i < b.N; i++ {
					rec, err := guardian.RecoverStats(g)
					if err != nil {
						b.Fatal(err)
					}
					entries = float64(rec.EntriesRead)
				}
				b.ReportMetric(entries, "entriesRead")
			})
		}
	}
}

// --- E4: early prepare ----------------------------------------------------

// BenchmarkEarlyPrepare measures the prepare-to-reply latency with and
// without early prepare (§4.4): when the data entries were written
// ahead of time, preparing forces only the prepared outcome entry.
func BenchmarkEarlyPrepare(b *testing.B) {
	for _, early := range []bool{false, true} {
		name := "cold"
		if early {
			name = "early"
		}
		for _, k := range []int{4, 32} {
			b.Run(fmt.Sprintf("%s/objects=%d", name, k), func(b *testing.B) {
				g, counters := buildGuardian(b, core.BackendHybrid, k)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					a := g.Begin()
					for _, c := range counters {
						if err := a.Update(c, func(v Value) Value { return Int(int64(v.(Int)) + 1) }); err != nil {
							b.Fatal(err)
						}
					}
					if early {
						if err := a.EarlyPrepare(); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					// The timed region: what happens when the prepare
					// message arrives.
					if _, err := g.HandlePrepare(a.ID()); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					if err := g.HandleCommit(a.ID()); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// --- E5: compaction vs snapshot -------------------------------------------

// benchHousekeeping measures one housekeeping pass over a log whose
// dead:live ratio is controlled: `live` objects, `dead` superseded
// versions.
func benchHousekeeping(b *testing.B, kind core.HousekeepKind) {
	for _, live := range []int{32} {
		for _, deadRatio := range []int{2, 16, 64} {
			b.Run(fmt.Sprintf("live=%d/dead=%dx", live, deadRatio), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					g, counters := buildGuardian(b, core.BackendHybrid, live)
					for j := 0; j < live*deadRatio/2; j++ {
						commitBatch(b, g, counters, j, 2)
					}
					b.StartTimer()
					stats, err := g.Housekeep(kind)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					b.ReportMetric(float64(stats.OldEntriesRead), "oldEntriesRead")
					b.ReportMetric(float64(stats.ObjectsCopied), "objectsCopied")
					b.StartTimer()
				}
			})
		}
	}
}

func BenchmarkCompaction(b *testing.B) { benchHousekeeping(b, core.HousekeepCompact) }
func BenchmarkSnapshot(b *testing.B)   { benchHousekeeping(b, core.HousekeepSnapshot) }

// --- E6: recovery cost before vs after housekeeping ------------------------

func BenchmarkRecoveryAfterHousekeeping(b *testing.B) {
	for _, housekept := range []bool{false, true} {
		name := "before"
		if housekept {
			name = "after"
		}
		b.Run(name, func(b *testing.B) {
			g, counters := buildGuardian(b, core.BackendHybrid, 32)
			for i := 0; i < 500; i++ {
				commitBatch(b, g, counters, i, 2)
			}
			if housekept {
				if _, err := g.Housekeep(core.HousekeepSnapshot); err != nil {
					b.Fatal(err)
				}
			}
			g.Crash()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := guardian.Restart(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E7 companion: message cost of two-phase commit ------------------------

// BenchmarkTwoPhaseCommit measures a full distributed commit across m
// guardians (the §2.2 protocol overhead).
func BenchmarkTwoPhaseCommit(b *testing.B) {
	for _, m := range []int{2, 4} {
		b.Run(fmt.Sprintf("guardians=%d", m), func(b *testing.B) {
			net := NewNetwork()
			gs := make([]*Guardian, m)
			cs := make([]*Atomic, m)
			for i := range gs {
				g, err := guardian.New(ids.GuardianID(i+1), guardian.WithBackend(core.BackendHybrid))
				if err != nil {
					b.Fatal(err)
				}
				gs[i] = g
				a := g.Begin()
				c, err := a.NewAtomic(Int(0))
				if err != nil {
					b.Fatal(err)
				}
				if err := a.SetVar("c", c); err != nil {
					b.Fatal(err)
				}
				if err := a.Commit(); err != nil {
					b.Fatal(err)
				}
				cs[i] = c
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := gs[0].Begin()
				for j, g := range gs {
					br := a
					if j > 0 {
						br = g.Join(a.ID())
					}
					if err := br.Update(cs[j], func(v Value) Value { return Int(int64(v.(Int)) + 1) }); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := CommitDistributed(net, gs[0], a, gs[1:]...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Macro benchmark: a TPC-B-shaped bank (ch. 6 "realistic applications")

// BenchmarkMacroBank runs a classic branch/teller/account transaction
// mix — each transaction updates one branch total, one teller total,
// one account balance, and appends to a mutex history journal — across
// all three stable-storage organizations.
func BenchmarkMacroBank(b *testing.B) {
	const branches, tellers, accounts = 2, 8, 64
	for _, backend := range []core.Backend{core.BackendSimple, core.BackendHybrid, core.BackendShadow} {
		b.Run(backend.String(), func(b *testing.B) {
			g, err := guardian.New(1, guardian.WithBackend(backend))
			if err != nil {
				b.Fatal(err)
			}
			setup := g.Begin()
			mk := func(prefix string, n int) []*Atomic {
				out := make([]*Atomic, n)
				for i := range out {
					o, err := setup.NewAtomic(Int(0))
					if err != nil {
						b.Fatal(err)
					}
					if err := setup.SetVar(fmt.Sprintf("%s%d", prefix, i), o); err != nil {
						b.Fatal(err)
					}
					out[i] = o
				}
				return out
			}
			bs := mk("branch", branches)
			ts := mk("teller", tellers)
			as := mk("acct", accounts)
			hist, err := setup.NewMutex(NewList())
			if err != nil {
				b.Fatal(err)
			}
			if err := setup.SetVar("history", hist); err != nil {
				b.Fatal(err)
			}
			if err := setup.Commit(); err != nil {
				b.Fatal(err)
			}
			inc := func(d int64) func(Value) Value {
				return func(v Value) Value { return Int(int64(v.(Int)) + d) }
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta := int64(i%100 - 50)
				a := g.Begin()
				if err := a.Update(as[i%accounts], inc(delta)); err != nil {
					b.Fatal(err)
				}
				if err := a.Update(ts[i%tellers], inc(delta)); err != nil {
					b.Fatal(err)
				}
				if err := a.Update(bs[i%branches], inc(delta)); err != nil {
					b.Fatal(err)
				}
				if err := a.Seize(hist, func(v Value) Value {
					l := v.(*List)
					if len(l.Elems) > 32 { // bounded journal
						l.Elems = l.Elems[1:]
					}
					l.Elems = append(l.Elems, Int(delta))
					return l
				}); err != nil {
					b.Fatal(err)
				}
				if err := a.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(g.RS().LogBytes())/float64(b.N), "logB/op")
		})
	}
}

// --- Scale: recovery with a large live set and long history ---------------

// BenchmarkRecoveryScale pushes the hybrid log to a larger scale (2k
// live objects, 5k commits) to confirm recovery cost stays proportional
// to outcome entries + live set, and that housekeeping resets it.
func BenchmarkRecoveryScale(b *testing.B) {
	if testing.Short() {
		b.Skip("scale bench skipped in -short mode")
	}
	build := func(housekept bool) *guardian.Guardian {
		g, counters := buildGuardian(b, core.BackendHybrid, 2000)
		for i := 0; i < 5000; i++ {
			commitBatch(b, g, counters, i*3, 4)
		}
		if housekept {
			if _, err := g.Housekeep(core.HousekeepSnapshot); err != nil {
				b.Fatal(err)
			}
		}
		g.Crash()
		return g
	}
	for _, housekept := range []bool{false, true} {
		name := "raw-log"
		if housekept {
			name = "after-housekeeping"
		}
		b.Run(name, func(b *testing.B) {
			g := build(housekept)
			b.ResetTimer()
			var entries int
			for i := 0; i < b.N; i++ {
				rec, err := guardian.RecoverStats(g)
				if err != nil {
					b.Fatal(err)
				}
				entries = rec.EntriesRead
			}
			b.ReportMetric(float64(entries), "entriesRead")
		})
	}
}
