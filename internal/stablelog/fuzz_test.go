package stablelog

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/stable"
)

// FuzzReadBackward builds a real log from fuzzer-chosen entries, forces
// an acknowledged prefix, then crashes the node partway through a
// second force — leaving a torn tail — and optionally decays the
// superblock on both devices so reopening goes through the salvage
// scan. Whatever state results, reopening must not panic, the survivors
// must be a prefix of the written sequence that contains at least every
// acknowledged entry byte-identically, and backward iteration must
// agree exactly with forward reads. Every reader is then compared,
// differentially, with the uncached reference reader (refLog) — once
// over the reopened log and once more after new entries have been
// forced over whatever the torn force left beyond the durable boundary,
// which is where a page cached too generously would turn stale.
func FuzzReadBackward(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), false)
	f.Add(int64(2), uint8(1), uint8(0), true)
	f.Add(int64(3), uint8(20), uint8(5), true)
	f.Add(int64(4), uint8(12), uint8(9), false)
	f.Add(int64(5), uint8(24), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw, crashRaw uint8, loseSuper bool) {
		rng := rand.New(rand.NewSource(seed))
		a := stable.NewMemDevice(128, nil)
		b := stable.NewMemDevice(128, nil)
		store, err := stable.NewStore(a, b)
		if err != nil {
			t.Fatal(err)
		}
		l := New(store)

		n := int(nRaw)%24 + 2
		acked := 1 + rng.Intn(n-1) // entries covered by the clean force
		payloads := make([][]byte, n)
		lsns := make([]LSN, n)
		write := func(i int) {
			p := make([]byte, rng.Intn(60))
			rng.Read(p)
			payloads[i] = p
			lsn, err := l.Write(p)
			if err != nil {
				t.Fatalf("Write(entry %d): %v", i, err)
			}
			lsns[i] = lsn
		}
		for i := 0; i < acked; i++ {
			write(i)
		}
		if err := l.Force(); err != nil {
			t.Fatalf("clean force: %v", err)
		}
		for i := acked; i < n; i++ {
			write(i)
		}

		// The second force crashes the node on its k-th device write
		// (k == 0 lets it finish), tearing the unacknowledged tail at a
		// fuzzer-chosen point.
		k := int(crashRaw) % 12
		a.SetPlan(stable.CrashAfter(k))
		b.SetPlan(stable.CrashAfter(k))
		forceErr := l.Force()

		a.Restart(nil)
		b.Restart(nil)
		if loseSuper {
			// Double superblock decay: Open must fall back to the
			// forward salvage scan over the frame chain.
			a.Decay(superPage)
			b.Decay(superPage)
		}
		store2, err := stable.NewStore(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := store2.Recover(); err != nil {
			t.Fatalf("store recover: %v", err)
		}
		re, err := Open(store2)
		if err != nil {
			t.Fatalf("reopen (forceErr=%v, loseSuper=%v): %v", forceErr, loseSuper, err)
		}

		// The survivors are a prefix: every acknowledged entry, possibly
		// some of the unacknowledged suffix, never an invented frame.
		m := re.Entries()
		if m < acked || m > n {
			t.Fatalf("survivors = %d, want between %d acked and %d written", m, acked, n)
		}
		if forceErr == nil && m != n {
			t.Fatalf("survivors = %d after an acknowledged force of all %d entries", m, n)
		}
		for i := 0; i < m; i++ {
			got, err := re.Read(lsns[i])
			if err != nil {
				t.Fatalf("Read(survivor %d @ %v): %v", i, lsns[i], err)
			}
			if !bytes.Equal(got, payloads[i]) {
				t.Fatalf("survivor %d = %q, want %q", i, got, payloads[i])
			}
		}

		// Backward iteration must yield exactly the survivors, newest
		// first, agreeing with the forward reads above.
		i := m
		err = re.ReadBackward(re.Top(), func(lsn LSN, payload []byte) bool {
			i--
			if i < 0 {
				t.Fatal("ReadBackward yielded more entries than Entries() reported")
			}
			if lsn != lsns[i] || !bytes.Equal(payload, payloads[i]) {
				t.Fatalf("ReadBackward entry %d = (%v, %q), want (%v, %q)",
					i, lsn, payload, lsns[i], payloads[i])
			}
			return true
		})
		if err != nil {
			t.Fatalf("ReadBackward: %v", err)
		}
		if i != 0 {
			t.Fatalf("ReadBackward stopped with %d survivors unseen", i)
		}

		checkAgainstReference(t, re)
		checkCursor(t, re)
		for i, more := 0, 1+rng.Intn(4); i < more; i++ {
			p := make([]byte, rng.Intn(60))
			rng.Read(p)
			lsn, err := re.ForceWrite(p)
			if err != nil {
				t.Fatalf("ForceWrite after reopen: %v", err)
			}
			if got, err := re.Read(lsn); err != nil || !bytes.Equal(got, p) {
				t.Fatalf("entry forced after reopen reads back (%q, %v), want %q", got, err, p)
			}
		}
		checkAgainstReference(t, re)
		checkCursor(t, re)
	})
}
