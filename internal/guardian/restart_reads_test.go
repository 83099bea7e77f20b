package guardian

import (
	"testing"

	"repro/internal/core"
	"repro/internal/stable"
	"repro/internal/value"
)

// TestRestartReadsEachPageOnce is the machine-independent guard on the
// stablelog read path: recovering a 2,000-commit history may cost at
// most a few device reads per page of the volume. For the two log
// organizations that is six: Store.Recover's scrub reads both copies
// of every page, the recovery scan reads both copies again through the
// log's page cursor (4.0 measured), and the rest is slack for pages a
// scan revisits after the cursor let them go. Reading every frame's
// header and payload straight from the store cost 66 (hybrid) and 87
// (simple) reads per page. Shadowing recovers from its map and the
// log's tail, so it is held to the scrub's two plus slack.
func TestRestartReadsEachPageOnce(t *testing.T) {
	const commits = 2000
	forBackends(t, func(t *testing.T, b core.Backend) {
		readsPerPage := 6
		if b == core.BackendShadow {
			readsPerPage = 3
		}
		g := mustGuardian(t, 1, b)
		c := initCounter(t, g, 0)
		for i := 0; i < commits; i++ {
			a := g.Begin()
			if err := a.Update(c, func(v value.Value) value.Value {
				return v.(value.Int) + 1
			}); err != nil {
				t.Fatal(err)
			}
			if err := a.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		g.Crash()
		vol := g.Volume()
		vol.Restart()
		count := func() (reads, pages int) {
			vol.EachDevicePair(func(_ string, da, db *stable.MemDevice) {
				reads += da.Reads() + db.Reads()
				pages += max(da.NumBlocks(), db.NumBlocks())
			})
			return reads, pages
		}
		before, pages := count()
		g2, err := Open(g.ID(), vol, b)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := count()
		if got := counterValue(t, g2); got != commits {
			t.Fatalf("counter = %d after restart, want %d", got, commits)
		}
		reads := after - before
		t.Logf("%v: %d device reads over %d pages (%.1f per page)", b, reads, pages, float64(reads)/float64(pages))
		if reads > readsPerPage*pages {
			t.Fatalf("restart did %d device reads over %d pages, want at most %d per page", reads, pages, readsPerPage)
		}
	})
}
