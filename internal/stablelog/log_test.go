package stablelog

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stable"
)

func freshLog(t testing.TB, blockSize int) (*Log, *stable.MemDevice, *stable.MemDevice) {
	t.Helper()
	a := stable.NewMemDevice(blockSize, nil)
	b := stable.NewMemDevice(blockSize, nil)
	store, err := stable.NewStore(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return New(store), a, b
}

func reopen(t *testing.T, a, b *stable.MemDevice) *Log {
	t.Helper()
	a.Restart(nil)
	b.Restart(nil)
	store, err := stable.NewStore(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Recover(); err != nil {
		t.Fatal(err)
	}
	l, err := Open(store)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Write bounds payloads at MaxEntry: an unbounded entry could become
// locally durable yet never fit a single replication append, wedging
// every later quorum wait (see the MaxEntry comment).
func TestWriteRefusesOversizeEntry(t *testing.T) {
	l, _, _ := freshLog(t, 4096)
	if _, err := l.Write(make([]byte, MaxEntry+1)); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("Write(MaxEntry+1) err = %v, want ErrEntryTooLarge", err)
	}
	if _, err := l.ForceWrite(make([]byte, MaxEntry+1)); !errors.Is(err, ErrEntryTooLarge) {
		t.Fatalf("ForceWrite(MaxEntry+1) err = %v, want ErrEntryTooLarge", err)
	}
	if n := l.Entries(); n != 0 {
		t.Fatalf("refused writes left %d entries", n)
	}
	lsn, err := l.ForceWrite(make([]byte, MaxEntry))
	if err != nil {
		t.Fatalf("ForceWrite(MaxEntry) = %v", err)
	}
	got, err := l.Read(lsn)
	if err != nil || len(got) != MaxEntry {
		t.Fatalf("Read(max entry) = %d bytes, %v", len(got), err)
	}
}

func TestWriteForceRead(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	lsn1, err := l.Write([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	lsn2, err := l.ForceWrite([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn1 == lsn2 {
		t.Fatal("distinct entries share an LSN")
	}
	for _, tc := range []struct {
		lsn  LSN
		want string
	}{{lsn1, "first"}, {lsn2, "second"}} {
		got, err := l.Read(tc.lsn)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("Read(%v) = %q, want %q", tc.lsn, got, tc.want)
		}
	}
	if l.Top() != lsn2 {
		t.Errorf("Top = %v, want %v", l.Top(), lsn2)
	}
}

func TestReadUnforcedEntry(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	lsn, err := l.Write([]byte("buffered"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "buffered" {
		t.Fatalf("Read buffered = %q", got)
	}
	// Top must not include it until forced.
	if l.Top() != NoLSN {
		t.Fatalf("Top = %v before any force, want NoLSN", l.Top())
	}
}

func TestReadBadAddress(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	if _, err := l.Read(NoLSN); err == nil {
		t.Error("Read(NoLSN) succeeded")
	}
	lsn, _ := l.ForceWrite([]byte("abcdef"))
	if _, err := l.Read(lsn + 2); err == nil {
		t.Error("Read at mid-frame address succeeded")
	}
	if _, err := l.Read(LSN(10_000)); err == nil {
		t.Error("Read past end succeeded")
	}
}

func TestReadBackwardOrder(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Write([]byte(fmt.Sprintf("e%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	var got []string
	err := l.ReadBackward(l.Top(), func(_ LSN, p []byte) bool {
		got = append(got, string(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("backward read returned %d entries, want %d", len(got), n)
	}
	for i, s := range got {
		if want := fmt.Sprintf("e%02d", n-1-i); s != want {
			t.Fatalf("backward[%d] = %q, want %q", i, s, want)
		}
	}
}

func TestReadBackwardEarlyStop(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	for i := 0; i < 10; i++ {
		l.Write([]byte{byte(i)})
	}
	l.Force()
	count := 0
	l.ReadBackward(l.Top(), func(LSN, []byte) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("visited %d entries, want 3", count)
	}
}

func TestEntriesSpanPages(t *testing.T) {
	l, _, _ := freshLog(t, 64) // small pages force spanning
	big := bytes.Repeat([]byte("x"), 300)
	lsn, err := l.ForceWrite(big)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Read(lsn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("multi-page entry corrupted")
	}
}

func TestReopenAfterCleanShutdown(t *testing.T) {
	l, a, b := freshLog(t, 128)
	var lsns []LSN
	for i := 0; i < 30; i++ {
		lsn, err := l.Write([]byte(fmt.Sprintf("entry-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		lsns = append(lsns, lsn)
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	l2 := reopen(t, a, b)
	if l2.Top() != lsns[len(lsns)-1] {
		t.Fatalf("reopened Top = %v, want %v", l2.Top(), lsns[len(lsns)-1])
	}
	for i, lsn := range lsns {
		got, err := l2.Read(lsn)
		if err != nil {
			t.Fatalf("Read(%v): %v", lsn, err)
		}
		if want := fmt.Sprintf("entry-%d", i); string(got) != want {
			t.Fatalf("entry %d = %q, want %q", i, got, want)
		}
	}
}

func TestCrashLosesUnforcedEntries(t *testing.T) {
	l, a, b := freshLog(t, 128)
	forced, err := l.ForceWrite([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	a.Crash()
	b.Crash()
	l2 := reopen(t, a, b)
	if l2.Top() != forced {
		t.Fatalf("after crash Top = %v, want %v (unforced entry must vanish)", l2.Top(), forced)
	}
	if l2.Entries() != 1 {
		t.Fatalf("after crash Entries = %d, want 1", l2.Entries())
	}
}

func TestAppendAfterRecovery(t *testing.T) {
	l, a, b := freshLog(t, 128)
	l.ForceWrite([]byte("one"))
	l.Write([]byte("lost"))
	a.Crash()
	b.Crash()
	l2 := reopen(t, a, b)
	lsn, err := l2.ForceWrite([]byte("two"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := l2.Read(lsn)
	if err != nil || string(got) != "two" {
		t.Fatalf("post-recovery append: %q, %v", got, err)
	}
	// And it all survives another crash.
	a.Crash()
	b.Crash()
	l3 := reopen(t, a, b)
	var all []string
	l3.ReadBackward(l3.Top(), func(_ LSN, p []byte) bool {
		all = append(all, string(p))
		return true
	})
	if len(all) != 2 || all[0] != "two" || all[1] != "one" {
		t.Fatalf("log after second crash = %v, want [two one]", all)
	}
}

func TestCrashDuringForceKeepsPrefix(t *testing.T) {
	// Crash on the kth device write during a multi-page force; the log
	// must recover to a consistent prefix that includes everything
	// previously forced.
	for k := 1; k <= 6; k++ {
		k := k
		t.Run(fmt.Sprintf("crash-at-write-%d", k), func(t *testing.T) {
			a := stable.NewMemDevice(64, nil)
			b := stable.NewMemDevice(64, nil)
			store, err := stable.NewStore(a, b)
			if err != nil {
				t.Fatal(err)
			}
			l := New(store)
			if _, err := l.ForceWrite([]byte("committed-prefix")); err != nil {
				t.Fatal(err)
			}
			prefixTop := l.Top()
			// Arm crash across both devices' write streams.
			n := 0
			plan := stable.FaultFunc(func(int) stable.Fault {
				n++
				if n == k {
					return stable.FaultCrash
				}
				return stable.FaultNone
			})
			a.Restart(plan)
			for i := 0; i < 4; i++ {
				l.Write(bytes.Repeat([]byte{byte('A' + i)}, 50))
			}
			_ = l.Force() // may fail with ErrCrashed
			a.Crash()
			b.Crash()
			l2 := reopen(t, a, b)
			// The previously forced entry must still be there.
			got, err := l2.Read(prefixTop)
			if err != nil || string(got) != "committed-prefix" {
				t.Fatalf("forced prefix lost: %q, %v", got, err)
			}
			// Whatever survived must be a valid chain ending at Top.
			seen := 0
			if l2.Top() != NoLSN {
				err = l2.ReadBackward(l2.Top(), func(LSN, []byte) bool {
					seen++
					return true
				})
				if err != nil {
					t.Fatalf("backward chain broken after crash: %v", err)
				}
			}
			if seen < 1 || seen > 5 {
				t.Fatalf("recovered %d entries, want between 1 and 5", seen)
			}
		})
	}
}

func TestPrevWalk(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	var lsns []LSN
	for i := 0; i < 5; i++ {
		lsn, _ := l.Write([]byte{byte(i)})
		lsns = append(lsns, lsn)
	}
	l.Force()
	cur := lsns[4]
	for i := 4; i >= 1; i-- {
		prev, err := l.Prev(cur)
		if err != nil {
			t.Fatal(err)
		}
		if prev != lsns[i-1] {
			t.Fatalf("Prev(%v) = %v, want %v", cur, prev, lsns[i-1])
		}
		cur = prev
	}
	prev, err := l.Prev(cur)
	if err != nil {
		t.Fatal(err)
	}
	if prev != NoLSN {
		t.Fatalf("Prev(first) = %v, want NoLSN", prev)
	}
}

// Property: for any sequence of entry payloads, writing + forcing +
// reopening yields exactly the same sequence, in order.
func TestRoundTripProperty(t *testing.T) {
	f := func(entries [][]byte) bool {
		if len(entries) > 40 {
			entries = entries[:40]
		}
		a := stable.NewMemDevice(96, nil)
		b := stable.NewMemDevice(96, nil)
		store, _ := stable.NewStore(a, b)
		l := New(store)
		var lsns []LSN
		for _, e := range entries {
			if len(e) > 500 {
				e = e[:500]
			}
			lsn, err := l.Write(e)
			if err != nil {
				return false
			}
			lsns = append(lsns, lsn)
		}
		if err := l.Force(); err != nil {
			return false
		}
		a.Crash()
		b.Crash()
		a.Restart(nil)
		b.Restart(nil)
		store2, _ := stable.NewStore(a, b)
		if err := store2.Recover(); err != nil {
			return false
		}
		l2, err := Open(store2)
		if err != nil {
			return false
		}
		for i, lsn := range lsns {
			got, err := l2.Read(lsn)
			if err != nil {
				return false
			}
			want := entries[i]
			if len(want) > 500 {
				want = want[:500]
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return l2.Entries() == len(entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: recovery is idempotent — opening twice yields the same state.
func TestRecoveryIdempotent(t *testing.T) {
	l, a, b := freshLog(t, 128)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		p := make([]byte, rng.Intn(100))
		rng.Read(p)
		l.Write(p)
	}
	l.Force()
	l1 := reopen(t, a, b)
	l2 := reopen(t, a, b)
	if l1.Top() != l2.Top() || l1.Entries() != l2.Entries() || l1.Size() != l2.Size() {
		t.Fatalf("recovery not idempotent: (%v,%d,%d) vs (%v,%d,%d)",
			l1.Top(), l1.Entries(), l1.Size(), l2.Top(), l2.Entries(), l2.Size())
	}
}

func TestForceCountsAndEmptyForce(t *testing.T) {
	l, _, _ := freshLog(t, 128)
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	if l.Forces() != 0 {
		t.Fatalf("empty force counted: %d", l.Forces())
	}
	l.Write([]byte("x"))
	l.Force()
	if l.Forces() != 1 {
		t.Fatalf("Forces = %d, want 1", l.Forces())
	}
}

func TestSiteSwitch(t *testing.T) {
	vol := NewMemVolume(128)
	site, err := CreateSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	site.Log().ForceWrite([]byte("old-log-entry"))
	newLog, gen, err := site.NewLog()
	if err != nil {
		t.Fatal(err)
	}
	newLog.ForceWrite([]byte("new-log-entry"))
	if err := site.Switch(newLog, gen); err != nil {
		t.Fatal(err)
	}
	if site.Generation() != 2 {
		t.Fatalf("generation = %d, want 2", site.Generation())
	}
	// After a crash, OpenSite must find the new log, not the old.
	vol.Crash()
	vol.Restart()
	site2, err := OpenSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	got, err := site2.Log().Read(site2.Log().Top())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new-log-entry" {
		t.Fatalf("after switch+crash, top entry = %q", got)
	}
}

func TestSiteCrashBeforeSwitchKeepsOldLog(t *testing.T) {
	vol := NewMemVolume(128)
	site, err := CreateSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	site.Log().ForceWrite([]byte("old"))
	newLog, _, err := site.NewLog()
	if err != nil {
		t.Fatal(err)
	}
	newLog.ForceWrite([]byte("new"))
	// Crash before Switch: the root pointer still names generation 1.
	vol.Crash()
	vol.Restart()
	site2, err := OpenSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	if site2.Generation() != 1 {
		t.Fatalf("generation after aborted switch = %d, want 1", site2.Generation())
	}
	got, _ := site2.Log().Read(site2.Log().Top())
	if string(got) != "old" {
		t.Fatalf("entry = %q, want old", got)
	}
}

func TestSiteSwitchWrongGeneration(t *testing.T) {
	vol := NewMemVolume(128)
	site, _ := CreateSite(vol)
	newLog, gen, _ := site.NewLog()
	if err := site.Switch(newLog, gen+1); err == nil {
		t.Fatal("switch to non-successor generation accepted")
	}
}

func TestSiteDestroy(t *testing.T) {
	vol := NewMemVolume(128)
	site, err := CreateSite(vol)
	if err != nil {
		t.Fatal(err)
	}
	site.Log().ForceWrite([]byte("doomed"))
	if err := site.Destroy(); err != nil {
		t.Fatal(err)
	}
	// Reopening finds no log.
	if _, err := OpenSite(vol); err == nil {
		t.Fatal("destroyed site reopened")
	}
}

// TestWriteAllocatesNothing pins the append path: the frame is laid
// straight into the append buffer, whose capacity survives a force, and
// the header checksum needs no heap array. A steady append stream
// therefore allocates nothing per entry.
func TestWriteAllocatesNothing(t *testing.T) {
	l, _, _ := freshLog(t, 512)
	payload := make([]byte, 32)
	for i := 0; i < 200; i++ {
		if _, err := l.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := l.Write(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Write allocates %.0f times per append, want 0", allocs)
	}
}
