package client

import (
	"testing"
	"time"
)

// maxRand always draws the top of the range: Int63n(n) = n-1. Under it
// backoff returns its upper bound exactly.
type maxRand struct{}

func (maxRand) Int63n(n int64) int64 { return n - 1 }

// lcgRand is a tiny deterministic generator for the jitter property
// test — no global rand, no seed-from-clock, so the test is replayable.
type lcgRand struct{ state uint64 }

func (l *lcgRand) Int63n(n int64) int64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return int64(l.state>>1) % n
}

// TestBackoffUpperBound drives backoff with a Rand pinned to the top
// of its range: the result must be exactly the capped-doubling delay
// d, never a nanosecond more. Base 10ms doubling to an 80ms cap gives
// the sequence 10, 20, 40, 80, 80, ...
func TestBackoffUpperBound(t *testing.T) {
	c := New("x", Options{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Clock:       newFakeClock(),
		Rand:        maxRand{},
	})
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
		80 * time.Millisecond,
	}
	for i, w := range want {
		if got := c.opt.backoff(i + 1); got != w {
			t.Fatalf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// TestBackoffJitterWithinBounds is the jitter property: for every
// attempt number and many jitter draws, the pause lands in [d/2, d]
// where d is the capped-doubling delay — jitter widens the spread but
// never pushes a retry past the cap and never collapses it below half
// the schedule.
func TestBackoffJitterWithinBounds(t *testing.T) {
	const (
		base = 7 * time.Millisecond // odd base exercises the half rounding
		cap  = 100 * time.Millisecond
	)
	c := New("x", Options{
		BaseBackoff: base,
		MaxBackoff:  cap,
		Clock:       newFakeClock(),
		Rand:        &lcgRand{state: 42},
	})
	for n := 1; n <= 12; n++ {
		// The schedule backoff promises: base doubling per failure,
		// capped.
		d := base
		for i := 1; i < n && d < cap; i++ {
			d *= 2
		}
		if d > cap {
			d = cap
		}
		for draw := 0; draw < 200; draw++ {
			got := c.opt.backoff(n)
			if got < d/2 || got > d {
				t.Fatalf("backoff(%d) = %v outside [%v, %v]", n, got, d/2, d)
			}
			if got > cap {
				t.Fatalf("backoff(%d) = %v exceeds cap %v", n, got, cap)
			}
		}
	}
}

// TestBackoffDefaultsBounded pins the default schedule: with no
// options set, the worst-case pause is MaxBackoff (500ms) regardless
// of attempt number — a stuck server cannot push a client into
// unbounded sleeps.
func TestBackoffDefaultsBounded(t *testing.T) {
	c := New("x", Options{Clock: newFakeClock(), Rand: maxRand{}})
	for _, n := range []int{1, 4, 16, 63} {
		if got := c.opt.backoff(n); got > 500*time.Millisecond {
			t.Fatalf("backoff(%d) = %v exceeds the 500ms default cap", n, got)
		}
	}
	if got := c.opt.backoff(1); got != 10*time.Millisecond {
		t.Fatalf("backoff(1) = %v, want the 10ms default base", got)
	}
}
