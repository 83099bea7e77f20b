package main

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/stable"
	"repro/internal/value"
)

// keepAll is memMedia that also remembers devices the volume removed,
// so a test can add up the devices' own counters over a whole history.
type keepAll struct {
	*memMedia
	mu   sync.Mutex
	seen map[*stable.MemDevice]bool
}

func (k *keepAll) open(name string) (stable.Device, error) {
	d, err := k.memMedia.open(name)
	if err == nil {
		k.mu.Lock()
		k.seen[d.(*stable.MemDevice)] = true
		k.mu.Unlock()
	}
	return d, err
}

// failingMedia refuses to open anything.
type failingMedia struct{ err error }

func (f failingMedia) open(string) (stable.Device, error) { return nil, f.err }
func (failingMedia) remove(string)                        {}
func (failingMedia) release() error                       { return nil }
func (failingMedia) destroy() error                       { return nil }

func TestMeterPassesErrorsThrough(t *testing.T) {
	dev := stable.NewMemDevice(blockSize, stable.CrashAfter(3))
	st := &meterStats{}
	m := &meter{dev: dev, st: st}
	block := make([]byte, blockSize)

	// The same calls on a twin device, unmetered, say what each error
	// must be.
	twin := stable.NewMemDevice(blockSize, stable.CrashAfter(3))
	for i := 0; i < 5; i++ {
		got, want := m.WriteBlock(i, block), twin.WriteBlock(i, block)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("write %d: meter returned %v, device %v", i, got, want)
		}
		if i >= 2 && !errors.Is(got, stable.ErrCrashed) {
			t.Fatalf("write %d: %v does not wrap ErrCrashed", i, got)
		}
	}
	if _, err := m.ReadBlock(0); !errors.Is(err, stable.ErrCrashed) {
		t.Fatalf("read on a crashed device: %v", err)
	}
	if got := st.writes.Load(); got != 2 {
		t.Fatalf("meter counted %d successful writes, want 2", got)
	}
	if got := st.reads.Load(); got != 0 {
		t.Fatalf("meter counted %d successful reads, want 0", got)
	}

	// An oversized write and an out-of-range read fail in the device;
	// the meter must hand back exactly that error, timed or not.
	for _, timed := range []bool{false, true} {
		st.timed.Store(timed)
		fresh := stable.NewMemDevice(blockSize, nil)
		fm := &meter{dev: fresh, st: st}
		wantW := fresh.WriteBlock(0, make([]byte, blockSize+1))
		if got := fm.WriteBlock(0, make([]byte, blockSize+1)); got == nil || got.Error() != wantW.Error() {
			t.Fatalf("timed=%v oversized write: meter %v, device %v", timed, got, wantW)
		}
		_, wantR := fresh.ReadBlock(7)
		if _, got := fm.ReadBlock(7); got == nil || got.Error() != wantR.Error() {
			t.Fatalf("timed=%v out-of-range read: meter %v, device %v", timed, got, wantR)
		}
	}

	// The volume passes a media failure through unchanged as well.
	boom := errors.New("no such disk")
	vol := newVolume(failingMedia{boom}, &meterStats{})
	if _, err := vol.Root(); !errors.Is(err, boom) {
		t.Fatalf("Root: %v", err)
	}
	if _, err := vol.Generation(1); !errors.Is(err, boom) {
		t.Fatalf("Generation: %v", err)
	}
}

// TestMeterCountsMatchDevices drives a scripted history — create,
// commit, reopen, read, snapshot (which removes a generation), commit,
// reopen — through a metered volume and checks the meter against the
// memory devices' own counters, exactly.
func TestMeterCountsMatchDevices(t *testing.T) {
	for _, timed := range []bool{false, true} {
		med := &keepAll{memMedia: newMemMedia(), seen: make(map[*stable.MemDevice]bool)}
		st := &meterStats{}
		st.timed.Store(timed)
		vol := newVolume(med, st)
		g, err := guardian.New(1, guardian.WithVolume(vol))
		if err != nil {
			t.Fatal(err)
		}
		registerKV(g)
		a := g.Begin()
		for _, k := range []string{"k000000", "k000001", "k000002"} {
			o, err := a.NewAtomic(value.Int(0))
			if err != nil {
				t.Fatal(err)
			}
			if err := a.SetVar(k, o); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Commit(); err != nil {
			t.Fatal(err)
		}
		commit := func(n int) {
			t.Helper()
			for i := 0; i < n; i++ {
				arg := value.NewList(value.Str("k000001"), value.Int(int64(i+1)))
				if _, err := inprocInvoke(g, "incr", arg); err != nil {
					t.Fatal(err)
				}
			}
		}
		reopen := func() {
			t.Helper()
			if vol, err = vol.reopen(); err != nil {
				t.Fatal(err)
			}
			if g, err = guardian.Open(1, vol, core.BackendHybrid); err != nil {
				t.Fatal(err)
			}
			registerKV(g)
		}
		commit(40)
		reopen()
		if _, err := g.ReadKey("k000001"); err != nil {
			t.Fatal(err)
		}
		if _, err := g.Housekeep(core.HousekeepSnapshot); err != nil {
			t.Fatal(err)
		}
		commit(25)
		reopen()

		var writes, reads int
		for d := range med.seen {
			writes += d.Writes()
			reads += d.Reads()
		}
		if got := st.writes.Load(); got != int64(writes) {
			t.Errorf("timed=%v: meter counted %d writes, devices %d", timed, got, writes)
		}
		if got := st.reads.Load(); got != int64(reads) {
			t.Errorf("timed=%v: meter counted %d reads, devices %d", timed, got, reads)
		}
		if got := st.writeBytes.Load(); got != int64(writes)*blockSize {
			t.Errorf("timed=%v: meter counted %d bytes written, want %d", timed, got, writes*blockSize)
		}
		if writes == 0 || reads == 0 {
			t.Fatalf("history did no device traffic (writes %d, reads %d)", writes, reads)
		}
		if timed && int64(len(st.takeWriteNs())) != st.writes.Load() {
			t.Errorf("timed meter kept a different number of samples than writes")
		}
	}
}
