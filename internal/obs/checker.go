package obs

import (
	"errors"
	"fmt"
	"sync"
)

// Checker is a Tracer that verifies thesis invariants over the event
// stream at runtime — the dynamic counterpart of the cmd/roslint
// static analyzers. It checks, per guardian:
//
//   - R1 (force barrier, the forcebarrier analyzer's contract): every
//     outcome acknowledged durable (KindOutcomeDurable) must be
//     covered by the traced durable boundary, i.e. a successful force
//     round (or the boundary recorded at log open) must already have
//     advanced past the entry's address. Sound under concurrency
//     because a force round's ForceDone is emitted before the round's
//     completion is broadcast to riders, so it always precedes any
//     OutcomeDurable it covers in the stream.
//   - R2 (lock discipline rule 4, the lockdiscipline analyzer's
//     contract): no force round starts, and no ForceTo caller waits,
//     while the emitting guardian holds a writer critical section.
//     The shadow store is exempt by construction — it emits no Crit
//     events, mirroring the analyzer's ForcePathPackages scope. The
//     crit depth is one counter per guardian and crit/force events
//     carry no actor, so the force-inside-crit check is sound only on
//     serial schedules, where one goroutine's crit bracket cannot
//     interleave another's force; see "Rule sets" below.
//   - R3 (recovery phase order): within one recovery session
//     (KindRecoveryStart), phases are nondecreasing in thesis order.
//   - R4 (quorum barrier, the replicated-log analogue of R1): once a
//     guardian is replicated — it has emitted any rep.quorum event —
//     every outcome acknowledged durable must be covered by a quorum
//     boundary some rep.quorum already reported. Sound under
//     concurrency because the quorum wait runs inside ForceTo (its
//     rep.quorum is emitted before the wait returns), and the
//     OutcomeDurable is emitted only after ForceTo returns. A log.open
//     clears the replicated bit: a promoted backup or recovered node
//     starts unreplicated until a replicator speaks again.
//
// Rule sets. The caller knows what kind of stream it feeds and picks
// the constructor accordingly:
//
//   - NewChecker (serial: R1–R4) is for streams in which one committer
//     runs at a time: every crashtest sweep and soak, the obs/scenario
//     goldens, the replog unit fixtures.
//   - NewConcurrentChecker (R1, R3, R4 and R2's bracket balance, but
//     not R2's force-inside-crit check) is for streams in which several
//     committers of one guardian interleave — today only
//     chaos/episode.go's merged multi-process trace, where committer A
//     appending inside its bracket while committer B leads a force
//     round outside its own is legal and would be flagged. For
//     concurrent code R2 is enforced statically instead, by the
//     lockdiscipline analyzer's rule 4 (cmd/roslint).
//
// A Checker may forward the stream to a next Tracer (e.g. a Recorder),
// so checking and recording compose in one pass.
type Checker struct {
	mu         sync.Mutex
	next       Tracer
	concurrent bool   // skip R2's force-inside-crit check
	seen       uint64 // events observed, for violation messages

	state map[uint64]*gstate // per-guardian rule state
	viol  []string
}

// maxViolations caps the retained violation messages; the count keeps
// rising but a runaway scenario cannot hoard memory.
const maxViolations = 16

type gstate struct {
	boundary   uint64 // durable boundary from LogOpen / ForceDone
	haveBound  bool
	crit       int // writer critical-section depth
	inRecovery bool
	phase      Phase  // last recovery phase seen this session
	replicated bool   // a rep.quorum was seen since the last log.open
	repBound   uint64 // largest quorum-acked boundary reported
	violations int
}

// NewChecker returns a serial-schedule Checker (every rule) forwarding
// to next (nil for none).
func NewChecker(next Tracer) *Checker {
	return &Checker{next: next, state: make(map[uint64]*gstate)}
}

// NewConcurrentChecker returns a Checker for a stream that interleaves
// several committers of one guardian: as NewChecker, minus R2's
// force-inside-crit check (see "Rule sets" on Checker).
func NewConcurrentChecker(next Tracer) *Checker {
	c := NewChecker(next)
	c.concurrent = true
	return c
}

func (c *Checker) g(gid uint64) *gstate {
	s, ok := c.state[gid]
	if !ok {
		s = &gstate{}
		c.state[gid] = s
	}
	return s
}

func (c *Checker) violate(s *gstate, format string, args ...any) {
	s.violations++
	if len(c.viol) < maxViolations {
		c.viol = append(c.viol, fmt.Sprintf(format, args...))
	}
}

// Emit implements Tracer.
func (c *Checker) Emit(e Event) {
	c.mu.Lock()
	c.seen++
	n := c.seen
	switch e.Kind {
	case KindLogOpen:
		s := c.g(e.Gid)
		s.boundary = e.Durable
		s.haveBound = true
		// The guardian restarts unreplicated: a reopened or promoted
		// log is quorum-gated only once a replicator speaks again.
		s.replicated = false
		s.repBound = 0
		// A reopened log means the process (re)started; any writer
		// critical section of a previous incarnation died with it — a
		// crashed holder must not pin R2 depth for the successor (seen
		// in merged chaos traces when a SIGKILL lands mid-crit).
		s.crit = 0

	case KindForceDone:
		if e.OK {
			s := c.g(e.Gid)
			s.boundary = e.Durable
			s.haveBound = true
		}

	case KindForceStart, KindForceWait:
		s := c.g(e.Gid)
		if s.crit > 0 && !c.concurrent {
			c.violate(s, "event %d: R2 lock discipline: %v for gid %d inside a writer critical section (depth %d)",
				n, e.Kind, e.Gid, s.crit)
		}

	case KindCritEnter:
		c.g(e.Gid).crit++

	case KindCritExit:
		s := c.g(e.Gid)
		s.crit--
		if s.crit < 0 {
			c.violate(s, "event %d: R2 lock discipline: crit.exit for gid %d without a matching crit.enter", n, e.Gid)
			s.crit = 0
		}

	case KindOutcomeDurable:
		s := c.g(e.Gid)
		switch {
		case !s.haveBound:
			c.violate(s, "event %d: R1 force barrier: %s outcome for %v (gid %d) acknowledged with no traced log boundary",
				n, OutcomeKind(e.Code), e.AID, e.Gid)
		case e.LSN >= s.boundary:
			c.violate(s, "event %d: R1 force barrier: %s outcome for %v (gid %d) acknowledged at lsn %d, durable boundary %d",
				n, OutcomeKind(e.Code), e.AID, e.Gid, e.LSN, s.boundary)
		}
		if s.replicated && e.LSN >= s.repBound {
			c.violate(s, "event %d: R4 quorum barrier: %s outcome for %v (gid %d) acknowledged at lsn %d, quorum boundary %d",
				n, OutcomeKind(e.Code), e.AID, e.Gid, e.LSN, s.repBound)
		}

	case KindRepQuorum:
		s := c.g(e.Gid)
		s.replicated = true
		if e.Durable > s.repBound {
			s.repBound = e.Durable
		}

	case KindRecoveryStart:
		s := c.g(e.Gid)
		s.inRecovery = true
		s.phase = 0

	case KindRecoveryPhase:
		s := c.g(e.Gid)
		p := Phase(e.Code)
		switch {
		case !s.inRecovery:
			c.violate(s, "event %d: R3 recovery order: phase %v for gid %d outside a recovery session", n, p, e.Gid)
		case p < s.phase:
			c.violate(s, "event %d: R3 recovery order: phase %v for gid %d after phase %v", n, p, e.Gid, s.phase)
		default:
			s.phase = p
			if p == PhaseResume {
				s.inRecovery = false
			}
		}
	}
	next := c.next
	c.mu.Unlock()
	if next != nil {
		next.Emit(e)
	}
}

// Violations returns the retained violation messages (at most
// maxViolations; the total is in Err's message if it overflowed).
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.viol))
	copy(out, c.viol)
	return out
}

// Err returns nil if no invariant was violated, or an error describing
// the first violations.
func (c *Checker) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.viol) == 0 {
		return nil
	}
	total := 0
	//roslint:nondet order-independent: sums per-guardian counts
	for _, s := range c.state {
		total += s.violations
	}
	msg := fmt.Sprintf("obs: %d invariant violation(s); first: %s", total, c.viol[0])
	if len(c.viol) > 1 {
		msg += fmt.Sprintf(" (+%d more retained)", len(c.viol)-1)
	}
	return errors.New(msg)
}
