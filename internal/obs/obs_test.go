package obs

import (
	"strings"
	"testing"

	"repro/internal/ids"
)

func TestEventText(t *testing.T) {
	aid := ids.ActionID{Coordinator: 3, Seq: 9}
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Seq: 1, Kind: KindLogOpen, Gid: 2, Durable: 512},
			"   1 log.open gid=2 durable=512"},
		{Event{Seq: 2, Kind: KindLogAppend, Gid: 2, LSN: 512, Bytes: 37},
			"   2 log.append gid=2 lsn=512 bytes=37"},
		{Event{Seq: 3, Kind: KindForceDone, Gid: 2, LSN: 512, Durable: 549, Bytes: 37, OK: true},
			"   3 force.done gid=2 lsn=512 durable=549 bytes=37"},
		{Event{Seq: 4, Kind: KindForceDone, Gid: 2, LSN: 512, Durable: 512, Bytes: 37, Note: "device down"},
			"   4 force.done gid=2 lsn=512 durable=512 bytes=37 !err (device down)"},
		{Event{Seq: 5, Kind: KindOutcomeDurable, Gid: 2, AID: aid, LSN: 512, Code: uint8(OutcomeCommitted)},
			"   5 outcome.durable gid=2 aid=" + aid.String() + " lsn=512 committed"},
		{Event{Seq: 6, Kind: KindRecoveryPhase, Gid: 2, Code: uint8(PhaseScan)},
			"   6 recovery.phase gid=2 scan"},
		{Event{Seq: 7, Kind: KindTwoPCVote, AID: aid, From: 4, To: 3, Code: VoteReadOnly, OK: true},
			"   7 twopc.vote aid=" + aid.String() + " from=4 to=3 read-only"},
		{Event{Seq: 8, Kind: KindNetCall, From: 3, To: 4},
			"   8 net.call from=3 to=4 !err"},
		{Event{Seq: 9, Kind: KindForceStart, Gid: 1, LSN: NoLSN, Durable: 0},
			"   9 force.start gid=1 lsn=nil durable=0"},
		{Event{Seq: 10, Kind: KindHousekeepDone, Gid: 1, Bytes: 2048, Code: HousekeepSnapshot, OK: true},
			"  10 housekeep.done gid=1 bytes=2048 snapshot"},
		{Event{Seq: 11, Kind: KindFaultInjected, LSN: 7, Code: FaultTorn},
			"  11 fault.injected lsn=7 torn"},
		// CritEnter never sets OK; no !err marker may appear.
		{Event{Seq: 12, Kind: KindCritEnter, Gid: 1},
			"  12 crit.enter gid=1"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("event text:\n  got:  %q\n  want: %q", got, c.want)
		}
	}
}

func TestKindAndCodeNames(t *testing.T) {
	for k := KindLogOpen; k < kindMax; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", uint8(k))
		}
	}
	if Kind(0).String() != "kind(0)" || Kind(250).String() != "kind(250)" {
		t.Error("out-of-range kinds must render numerically")
	}
	for p := PhaseRepair; p <= PhaseResume; p++ {
		if strings.HasPrefix(p.String(), "phase(") {
			t.Errorf("phase %d has no name", uint8(p))
		}
	}
	for o := OutcomePrepared; o <= OutcomeDone; o++ {
		if strings.HasPrefix(o.String(), "outcome(") {
			t.Errorf("outcome kind %d has no name", uint8(o))
		}
	}
}

func TestRecorder(t *testing.T) {
	var rec Recorder
	rec.Emit(Event{Kind: KindLogAppend, LSN: 0, Bytes: 13})
	rec.Emit(Event{Kind: KindForceDone, Durable: 13, OK: true})
	if rec.Len() != 2 {
		t.Fatalf("Len = %d, want 2", rec.Len())
	}
	events := rec.Events()
	if events[0].Seq != 1 || events[1].Seq != 2 {
		t.Fatalf("sequence numbers = %d, %d, want 1, 2", events[0].Seq, events[1].Seq)
	}
	text := string(rec.Text())
	if !strings.HasSuffix(text, "\n") {
		t.Error("Text is not newline-terminated")
	}
	if n := strings.Count(text, "\n"); n != 2 {
		t.Errorf("Text has %d lines, want 2", n)
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Error("Reset did not clear the recorder")
	}
	rec.Emit(Event{Kind: KindLogOpen})
	if rec.Events()[0].Seq != 1 {
		t.Error("Reset did not restart sequence numbering")
	}
}

func TestStats(t *testing.T) {
	var st Stats
	st.Emit(Event{Kind: KindLogAppend, Bytes: 40})
	st.Emit(Event{Kind: KindLogAppend, Bytes: 60})
	st.Emit(Event{Kind: KindForceDone, Bytes: 100, OK: true})
	st.Emit(Event{Kind: KindForceDone, Bytes: 25, Note: "device down"}) // failed round
	st.Emit(Event{Kind: KindNetCall, OK: true})

	if got := st.Count(KindLogAppend); got != 2 {
		t.Errorf("Count(log.append) = %d, want 2", got)
	}
	if got := st.Count(KindForceDone); got != 1 {
		t.Errorf("Count(force.done) = %d, want 1 (failed rounds excluded, matching Log.Forces)", got)
	}
	if got := st.FailedForces(); got != 1 {
		t.Errorf("FailedForces = %d, want 1", got)
	}
	if got := st.AppendedBytes(); got != 100 {
		t.Errorf("AppendedBytes = %d, want 100", got)
	}
	if got := st.ForcedBytes(); got != 100 {
		t.Errorf("ForcedBytes = %d, want 100 (failed round's bytes excluded)", got)
	}
	if got := st.Count(kindMax + 1); got != 0 {
		t.Errorf("Count(out of range) = %d, want 0", got)
	}
}

func TestWithGuardian(t *testing.T) {
	if WithGuardian(nil, 7) != nil {
		t.Fatal("WithGuardian(nil) must stay nil to preserve the fast path")
	}
	var rec Recorder
	tr := WithGuardian(&rec, 7)
	tr.Emit(Event{Kind: KindLogAppend})
	tr.Emit(Event{Kind: KindFaultInjected, Gid: 3}) // pre-stamped gid wins
	events := rec.Events()
	if events[0].Gid != 7 {
		t.Errorf("unstamped event gid = %d, want 7", events[0].Gid)
	}
	if events[1].Gid != 3 {
		t.Errorf("pre-stamped event gid = %d, want 3 (WithGuardian must not overwrite)", events[1].Gid)
	}
}

// checkerOn feeds a synthetic stream to a fresh Checker and returns it.
func checkerOn(events ...Event) *Checker {
	c := NewChecker(nil)
	for _, e := range events {
		c.Emit(e)
	}
	return c
}

func TestCheckerCleanStream(t *testing.T) {
	c := checkerOn(
		Event{Kind: KindLogOpen, Gid: 1, Durable: 0},
		Event{Kind: KindCritEnter, Gid: 1},
		Event{Kind: KindLogAppend, Gid: 1, LSN: 0, Bytes: 50},
		Event{Kind: KindOutcomeAppend, Gid: 1, LSN: 0, Code: uint8(OutcomeCommitted)},
		Event{Kind: KindCritExit, Gid: 1},
		Event{Kind: KindForceStart, Gid: 1, LSN: 0, Durable: 0, Bytes: 50},
		Event{Kind: KindForceDone, Gid: 1, LSN: 0, Durable: 50, Bytes: 50, OK: true},
		Event{Kind: KindOutcomeDurable, Gid: 1, LSN: 0, Code: uint8(OutcomeCommitted)},
		Event{Kind: KindRecoveryStart, Gid: 1},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseRepair)},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseScan)},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseScan)}, // repeats allowed
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseResume)},
	)
	if err := c.Err(); err != nil {
		t.Fatalf("clean stream flagged: %v", err)
	}
}

func TestCheckerR1ForceBarrier(t *testing.T) {
	// Acknowledged with no boundary ever traced.
	c := checkerOn(Event{Kind: KindOutcomeDurable, Gid: 1, LSN: 0, Code: uint8(OutcomeCommitted)})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R1") {
		t.Fatalf("no-boundary ack not flagged as R1: %v", err)
	}

	// Acknowledged past the boundary.
	c = checkerOn(
		Event{Kind: KindLogOpen, Gid: 1, Durable: 100},
		Event{Kind: KindOutcomeDurable, Gid: 1, LSN: 100, Code: uint8(OutcomeCommitted)},
	)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R1") {
		t.Fatalf("past-boundary ack not flagged as R1: %v", err)
	}

	// A failed force must not advance the boundary.
	c = checkerOn(
		Event{Kind: KindLogOpen, Gid: 1, Durable: 0},
		Event{Kind: KindForceDone, Gid: 1, LSN: 0, Durable: 50, Bytes: 50}, // OK false
		Event{Kind: KindOutcomeDurable, Gid: 1, LSN: 0, Code: uint8(OutcomeCommitted)},
	)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R1") {
		t.Fatalf("ack covered only by a failed force not flagged: %v", err)
	}

	// Boundaries are per guardian: guardian 2's force does not cover
	// guardian 1's outcome.
	c = checkerOn(
		Event{Kind: KindLogOpen, Gid: 1, Durable: 0},
		Event{Kind: KindForceDone, Gid: 2, LSN: 0, Durable: 500, Bytes: 500, OK: true},
		Event{Kind: KindOutcomeDurable, Gid: 1, LSN: 200, Code: uint8(OutcomeCommitted)},
	)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R1") {
		t.Fatalf("cross-guardian boundary leak not flagged: %v", err)
	}
}

func TestCheckerR2LockDiscipline(t *testing.T) {
	c := checkerOn(
		Event{Kind: KindCritEnter, Gid: 1},
		Event{Kind: KindForceStart, Gid: 1},
	)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("force inside crit not flagged as R2: %v", err)
	}

	c = checkerOn(
		Event{Kind: KindCritEnter, Gid: 1},
		Event{Kind: KindForceWait, Gid: 1},
	)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("force wait inside crit not flagged as R2: %v", err)
	}

	c = checkerOn(Event{Kind: KindCritExit, Gid: 1})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("unmatched crit.exit not flagged as R2: %v", err)
	}

	// Balanced bracket, force outside: clean.
	c = checkerOn(
		Event{Kind: KindCritEnter, Gid: 1},
		Event{Kind: KindCritExit, Gid: 1},
		Event{Kind: KindForceStart, Gid: 1},
	)
	if err := c.Err(); err != nil {
		t.Fatalf("force outside crit flagged: %v", err)
	}

	// A crashed holder must not pin the depth: the crit.enter's process
	// was SIGKILLed mid-section, the successor incarnation reopens the
	// log (same gid, merged-trace continuity) and forces freely.
	c = checkerOn(
		Event{Kind: KindLogOpen, Gid: 1, Durable: 0},
		Event{Kind: KindCritEnter, Gid: 1},
		// ... process dies here; no crit.exit is ever emitted ...
		Event{Kind: KindLogOpen, Gid: 1, Durable: 0},
		Event{Kind: KindForceStart, Gid: 1},
	)
	if err := c.Err(); err != nil {
		t.Fatalf("post-restart force flagged by a dead incarnation's crit: %v", err)
	}
}

// TestCheckerConcurrentMode: committer A sits inside its crit bracket
// while committer B leads a force round. The events carry no actor, so a
// serial checker must reject the stream and a concurrent one accept it.
func TestCheckerConcurrentMode(t *testing.T) {
	interleaved := []Event{
		{Kind: KindLogOpen, Gid: 1, Durable: 0},
		{Kind: KindCritEnter, Gid: 1},  // A
		{Kind: KindForceStart, Gid: 1}, // B
		{Kind: KindForceDone, Gid: 1, Durable: 50, OK: true},
		{Kind: KindCritExit, Gid: 1}, // A
	}
	concurrentOn := func(events ...Event) error {
		c := NewConcurrentChecker(nil)
		for _, e := range events {
			c.Emit(e)
		}
		return c.Err()
	}
	if err := checkerOn(interleaved...).Err(); err == nil || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("serial mode accepted a force inside another actor's crit: %v", err)
	}
	if err := concurrentOn(interleaved...); err != nil {
		t.Fatalf("concurrent mode flagged a legal two-actor interleaving: %v", err)
	}
	// Bracket balance is actor-independent and stays checked.
	if err := concurrentOn(Event{Kind: KindCritExit, Gid: 1}); err == nil || !strings.Contains(err.Error(), "R2") {
		t.Fatalf("concurrent mode dropped the unmatched crit.exit check: %v", err)
	}
}

func TestCheckerR3RecoveryOrder(t *testing.T) {
	c := checkerOn(Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseScan)})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R3") {
		t.Fatalf("phase outside session not flagged as R3: %v", err)
	}

	c = checkerOn(
		Event{Kind: KindRecoveryStart, Gid: 1},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseScan)},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseRepair)},
	)
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R3") {
		t.Fatalf("phase regression not flagged as R3: %v", err)
	}

	// A new session (an interrupted recovery retried) resets the order.
	c = checkerOn(
		Event{Kind: KindRecoveryStart, Gid: 1},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseScan)},
		Event{Kind: KindRecoveryStart, Gid: 1},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseRepair)},
		Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseResume)},
	)
	if err := c.Err(); err != nil {
		t.Fatalf("restarted session flagged: %v", err)
	}

	// After resume, a stray phase is outside any session again.
	c.Emit(Event{Kind: KindRecoveryPhase, Gid: 1, Code: uint8(PhaseResume)})
	if err := c.Err(); err == nil || !strings.Contains(err.Error(), "R3") {
		t.Fatalf("phase after resume not flagged as R3: %v", err)
	}
}

func TestCheckerForwardsAndCaps(t *testing.T) {
	var rec Recorder
	c := NewChecker(&rec)
	for i := 0; i < maxViolations+10; i++ {
		c.Emit(Event{Kind: KindOutcomeDurable, Gid: 1, LSN: uint64(i)})
	}
	if rec.Len() != maxViolations+10 {
		t.Errorf("forwarded %d events, want %d", rec.Len(), maxViolations+10)
	}
	if got := len(c.Violations()); got != maxViolations {
		t.Errorf("retained %d violations, want cap %d", got, maxViolations)
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "26 invariant violation(s)") {
		t.Errorf("Err must report the uncapped total: %v", err)
	}
}

// TestStatsEmitNoAlloc pins the allocation-light claim: aggregating an
// event into Stats allocates nothing.
func TestStatsEmitNoAlloc(t *testing.T) {
	var st Stats
	e := Event{Kind: KindLogAppend, Gid: 1, LSN: 64, Bytes: 48}
	if avg := testing.AllocsPerRun(200, func() { st.Emit(e) }); avg != 0 {
		t.Errorf("Stats.Emit allocates %.1f times per event, want 0", avg)
	}
}

func BenchmarkStatsEmit(b *testing.B) {
	var st Stats
	e := Event{Kind: KindLogAppend, Gid: 1, LSN: 64, Bytes: 48}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Emit(e)
	}
}
