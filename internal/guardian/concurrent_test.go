package guardian

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestConcurrentCommitStress drives many goroutines through the
// group-commit path at once: each worker commits a run of actions on
// its own (disjoint) counter and on one shared, contended counter, all
// through the normal RunAtomic retry loop. It then verifies the final
// values against the serial oracle, crashes the guardian, and checks
// that recovery reproduces exactly the committed state.
//
// Run under -race this exercises the decomposed locking: the guardian
// table lock (g.mu), the per-action state locks (actionState.mu), the
// writer mutexes, and the force scheduler all see real concurrency
// here, unlike the single-threaded crash sweeps.
func TestConcurrentCommitStress(t *testing.T) {
	const (
		workers       = 8
		commits       = 12 // per worker, disjoint phase
		sharedCommits = 4  // per worker, contended phase
		attempts      = 200
		lockWait      = 2 * time.Second
	)
	for _, b := range []core.Backend{core.BackendSimple, core.BackendHybrid} {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			g := mustGuardian(t, 1, b)
			// With the default zero-latency MemDevice a force is a
			// memcpy and concurrent committers never overlap inside
			// one, so there is nothing to coalesce. A write delay holds
			// each force open long enough for the others to ride it (it
			// widens the window; nothing here is a measurement).
			g.Volume().SetWriteDelay(50 * time.Microsecond)

			// One committed action binds the shared counter and every
			// per-worker counter, so all workers start from the same
			// recoverable state.
			a := g.Begin()
			shared, err := a.NewAtomic(value.Int(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SetVar("shared", shared); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workers; w++ {
				c, err := a.NewAtomic(value.Int(0))
				if err != nil {
					t.Fatal(err)
				}
				if err := a.SetVar(fmt.Sprintf("ctr%d", w), c); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}

			// Count the concurrent phase twice: by the storage counters
			// and by the event stream. They must agree exactly.
			st := new(obs.Stats)
			g.SetTracer(st)
			forcesBefore := g.RS().Forces()
			bytesBefore := g.RS().LogBytes()
			var wg sync.WaitGroup
			errs := make([]error, workers)
			for w := 0; w < workers; w++ {
				w := w
				own, ok := g.VarAtomic(fmt.Sprintf("ctr%d", w))
				if !ok {
					t.Fatalf("ctr%d missing", w)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					inc := func(v value.Value) value.Value {
						return value.Int(int64(v.(value.Int)) + 1)
					}
					// Disjoint phase: each worker updates only its own
					// counter, so no action ever waits on another's
					// lock and the commits genuinely overlap — this is
					// the phase that exercises force coalescing.
					for i := 0; i < commits; i++ {
						errs[w] = RunAtomic(g, attempts, func(a *Action) error {
							return a.Update(own, inc)
						})
						if errs[w] != nil {
							return
						}
					}
					// Contended phase: every worker increments the one
					// shared counter. Its write lock is held through
					// commit, so these serialize; UpdateWait queues on
					// the lock instead of aborting immediately.
					for i := 0; i < sharedCommits; i++ {
						errs[w] = RunAtomic(g, attempts, func(a *Action) error {
							return a.UpdateWait(shared, lockWait, inc)
						})
						if errs[w] != nil {
							return
						}
					}
				}()
			}
			wg.Wait()
			for w, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
			}

			// Every RunAtomic above committed, so the oracle is exact:
			// each disjoint counter saw `commits` increments and the
			// shared counter saw every worker's sharedCommits.
			check := func(g *Guardian, when string) {
				t.Helper()
				for w := 0; w < workers; w++ {
					c, ok := g.VarAtomic(fmt.Sprintf("ctr%d", w))
					if !ok {
						t.Fatalf("%s: ctr%d missing", when, w)
					}
					if got := int64(c.Base().(value.Int)); got != commits {
						t.Errorf("%s: ctr%d = %d, want %d", when, w, got, commits)
					}
				}
				s, ok := g.VarAtomic("shared")
				if !ok {
					t.Fatalf("%s: shared counter missing", when)
				}
				if got := int64(s.Base().(value.Int)); got != workers*sharedCommits {
					t.Errorf("%s: shared = %d, want %d", when, got, workers*sharedCommits)
				}
			}
			check(g, "before crash")

			// The whole point of the scheduler: concurrent committers
			// share forces. Each local commit is four force waits
			// (prepared, committing, committed, done), so a fully
			// serial run forces exactly 4 per commit; anything below
			// proves coalescing happened. The bound is loose — the
			// scheduler is timing-dependent — but with 8 workers
			// committing disjoint counters flat out, some overlap is
			// guaranteed in practice.
			totalCommits := workers * (commits + sharedCommits)
			forces := g.RS().Forces() - forcesBefore
			if forces >= 4*totalCommits {
				t.Errorf("no force coalescing: %d forces for %d commits", forces, totalCommits)
			}
			t.Logf("%d commits, %d forces (%.2f forces/commit)",
				totalCommits, forces, float64(forces)/float64(totalCommits))

			// A divergence means a layer emits events it does not count
			// (or counts what it does not emit), and nothing derived from
			// the trace could be trusted.
			if tf := st.Count(obs.KindForceDone); tf != uint64(forces) {
				t.Errorf("trace saw %d force.done events, counters %d forces", tf, forces)
			}
			if tb, cb := st.AppendedBytes(), g.RS().LogBytes()-bytesBefore; tb != cb {
				t.Errorf("trace saw %d appended bytes, counters %d log bytes", tb, cb)
			}

			g.Crash()
			g2, err := Restart(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckRecovered(g2); err != nil {
				t.Fatal(err)
			}
			check(g2, "after recovery")
		})
	}
}
