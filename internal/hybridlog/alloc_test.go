package hybridlog

import (
	"testing"

	"repro/internal/stablelog"
)

// TestRecoverAllocsPerEntry pins the recovery scan's allocation rate:
// the outcome chain and the data entries it names are read into reused
// buffers and decoded into reused entries, so what is left per entry is
// the recovered state itself (table rows, versions) and not the reading.
func TestRecoverAllocsPerEntry(t *testing.T) {
	f := newFixture(t)
	accounts := f.seedBank(32)
	for i := 0; i < 1000; i++ {
		f.transfer(accounts[i%32], accounts[(i+7)%32], 1)
	}
	f.vol.Crash()
	f.vol.Restart()
	site, err := stablelog.OpenSite(f.vol)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := Recover(site.Log())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Recover(site.Log()); err != nil {
			t.Fatal(err)
		}
	})
	perEntry := allocs / float64(tables.OutcomesRead)
	t.Logf("%.0f allocations over %d outcome and %d data entries: %.2f per outcome entry",
		allocs, tables.OutcomesRead, tables.DataRead, perEntry)
	if perEntry > 1 {
		t.Fatalf("recovery allocates %.2f times per outcome entry read, want at most 1", perEntry)
	}
}
