package crashtest

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/obs"
	"repro/internal/stable"
	"repro/internal/stablelog"
	"repro/internal/value"
)

// The sweep is the exhaustive counterpart of Run: instead of crashing
// at random writes of a random history, it fixes one deterministic
// history, counts every device block write W its crash site performs
// (the counting run, itself a verified point), and replays it W times
// per crash-site variant, crashing at write k for each k in 1..W. One
// driver does this for every topology; a topology supplies only the
// replay, the settle step that follows a crash, and the oracle:
//
//   - single: the scripted history on one guardian, settled by restart
//     (recoverOnce). Each crash point is deepened: the recovery is
//     itself crashed at every one of its writes (double crash), and
//     each of those recoveries once more at its first write (triple
//     crash), before a final undisturbed recovery runs.
//   - replicated: the same history on a primary shipping its log to two
//     backups, once per down pattern, settled by promoting the best
//     backup (repsweep.go).
//   - sharded: a two-shard transfer history under 2PC, the coordinator
//     shard crashed, settled by restart plus 2PC settlement
//     (shardsweep.go).
//
// After every terminal settle the chapter 6 invariant is checked: the
// recovered state equals the serial run of the actions that committed —
// the pre- or post-state of the interrupted action, never a mixture —
// structural invariants hold (guardian.CheckRecovered), and the event
// stream of the whole scenario satisfies obs.Checker.

// DecayMode selects which device copies decay between every crash and
// the recovery that follows. All modes decay at most one copy of any
// block, which two-copy read-repair must survive; loss of both copies
// is exercised separately (it is a detected failure, not a recoverable
// one).
type DecayMode uint8

const (
	// DecayNone injects no read-path faults.
	DecayNone DecayMode = iota
	// DecayDeviceA decays every block of the primary device of every
	// pair before each recovery.
	DecayDeviceA
	// DecayDeviceB decays every block of the secondary device.
	DecayDeviceB
	// DecayAlternate decays even blocks on the primary and odd blocks
	// on the secondary, exercising per-device divergence.
	DecayAlternate
)

func (m DecayMode) String() string {
	switch m {
	case DecayNone:
		return "none"
	case DecayDeviceA:
		return "device-a"
	case DecayDeviceB:
		return "device-b"
	case DecayAlternate:
		return "alternate"
	default:
		return fmt.Sprintf("decay(%d)", uint8(m))
	}
}

// Topology selects the deployment a sweep crashes.
type Topology uint8

const (
	// TopologySingle is one guardian on one volume.
	TopologySingle Topology = iota
	// TopologyReplicated is a primary whose log ships to two backups
	// (quorum 2 of 3); a crash is settled by promotion.
	TopologyReplicated
	// TopologySharded is two shards joined by a cross-shard transfer
	// history; the coordinator shard's guardian is the crash site.
	TopologySharded
)

var topologyNames = [...]string{"single", "replicated", "sharded"}

func (t Topology) String() string {
	if int(t) < len(topologyNames) {
		return topologyNames[t]
	}
	return fmt.Sprintf("topology(%d)", uint8(t))
}

// sweepBlockSize is the simulated device block size of every swept
// volume.
const sweepBlockSize = 512

// SweepConfig parameterizes an exhaustive crash-point sweep. A field
// the topology cannot honour is refused, never ignored.
type SweepConfig struct {
	Topology Topology
	// Backend is the stable-storage organization (default hybrid).
	Backend core.Backend
	// Seed derives the scripted history (single and replicated; the
	// sharded history is fixed and takes none).
	Seed int64
	// Steps is the number of scripted actions after the setup action
	// (sharded: the number of transfers, 1..16).
	Steps int
	// Mutex adds a §2.4.2 mutex object to the script (single and
	// replicated).
	Mutex bool
	// Housekeep interleaves housekeeping passes (single, hybrid backend
	// only: the replicated topology keeps one log generation).
	Housekeep bool
	// Decay selects read-path fault injection before the first recovery
	// of every crash point (single only).
	Decay DecayMode
}

// SweepResult summarizes one sweep.
type SweepResult struct {
	// Writes is W, the crash site's device write count in the
	// undisturbed history.
	Writes int
	// Points is the number of verified scenarios: the counting run and
	// one per terminal settle of every crash schedule.
	Points int
	// Recoveries counts settle attempts — restarts and promotions —
	// including interrupted ones.
	Recoveries int
	// Deepest is the largest number of stacked crashes any point hit.
	Deepest int
}

// SweepError identifies the exact failing scenario so it can be
// replayed: the topology, backend, seed, decay mode, down pattern and
// crash schedule.
type SweepError struct {
	Topology Topology
	Backend  core.Backend
	Seed     int64
	Decay    DecayMode
	Down     RepDownPattern
	// Crashes is the crash schedule, outermost first: Crashes[0] is the
	// history write the first crash hit (0 for the counting run),
	// Crashes[1] the write of the first recovery the second crash hit,
	// and so on.
	Crashes []int
	// Step is the step the first crash interrupted (-1 for the setup
	// phase, the history length if the history completed).
	Step int
	Err  error
}

func (e *SweepError) Error() string {
	return fmt.Sprintf("sweep %v %v seed=%d decay=%v down=%v crashes=%v step=%d: %v",
		e.Topology, e.Backend, e.Seed, e.Decay, e.Down, e.Crashes, e.Step, e.Err)
}

func (e *SweepError) Unwrap() error { return e.Err }

// --- the scripted history ----------------------------------------------

const sweepCounters = 3

type stepKind uint8

const (
	stepCommit stepKind = iota
	stepAbort
	stepHousekeep
)

type update struct {
	name  string
	delta int64
}

type scriptStep struct {
	kind     stepKind
	updates  []update
	mutexVal int64 // 0 = no mutex write this step
	early    bool  // early-prepare before committing (hybrid)
	hkKind   core.HousekeepKind
}

func counterName(i int) string { return fmt.Sprintf("c%d", i) }

// buildScript derives the deterministic history from the seed. The
// script, not the runner, holds all randomness: every replay performs
// the same operations in the same order, so the device write sequence
// is identical across replays and write k always lands in the same
// operation.
func buildScript(cfg SweepConfig) []scriptStep {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var script []scriptStep
	for i := 0; i < cfg.Steps; i++ {
		st := scriptStep{kind: stepCommit}
		if rng.Intn(4) == 0 {
			st.kind = stepAbort
		}
		k := 1 + rng.Intn(sweepCounters)
		for _, idx := range rng.Perm(sweepCounters)[:k] {
			st.updates = append(st.updates, update{counterName(idx), int64(rng.Intn(20) - 10)})
		}
		// Seize only on committing steps: mutex modifications are not
		// undone by abort (Argus §2.4.2 — seize is in-place), so a
		// seize on an aborting step would leave the volatile value
		// ahead of every recoverable state and no serial oracle could
		// predict it.
		if cfg.Mutex && st.kind == stepCommit && rng.Intn(2) == 0 {
			st.mutexVal = int64(i + 1)
		}
		if cfg.Backend == core.BackendHybrid && st.kind == stepCommit && rng.Intn(4) == 0 {
			st.early = true
		}
		script = append(script, st)
		if cfg.Housekeep && cfg.Backend == core.BackendHybrid && (i+1)%3 == 0 {
			hk := scriptStep{kind: stepHousekeep, hkKind: core.HousekeepCompact}
			if rng.Intn(2) == 0 {
				hk.hkKind = core.HousekeepSnapshot
			}
			script = append(script, hk)
		}
	}
	return script
}

// counterState is one point of the serial oracle.
type counterState map[string]int64

// oracle precomputes, for each script step i, the committed state
// before and after it, plus the stable mutex value before it. The
// runner never computes state — a crash can interrupt it anywhere, and
// the allowed outcomes must be known independently of how far it got.
type oracle struct {
	pre, post  []counterState
	preMutex   []int64
	finalMutex int64
	zero       counterState
}

func buildOracle(script []scriptStep) *oracle {
	o := &oracle{zero: make(counterState)}
	for i := 0; i < sweepCounters; i++ {
		o.zero[counterName(i)] = 0
	}
	cur := o.zero
	var mutex int64
	for _, st := range script {
		o.pre = append(o.pre, cur)
		o.preMutex = append(o.preMutex, mutex)
		if st.kind == stepCommit {
			next := make(counterState, len(cur))
			//roslint:nondet order-independent: whole-map copy into a keyed map
			for k, v := range cur {
				next[k] = v
			}
			for _, u := range st.updates {
				next[u.name] += u.delta
			}
			cur = next
			if st.mutexVal != 0 {
				mutex = st.mutexVal
			}
		}
		o.post = append(o.post, cur)
	}
	o.finalMutex = mutex
	return o
}

// --- executing the history ---------------------------------------------

// executeScript runs the scripted history on vol until it completes or
// the armed crash fires. It returns the interrupted step index (-1 for
// the setup phase, len(script) on completion) and the guardian (nil
// once crashed). A non-crash error is a harness failure. install, when
// non-nil, runs on the fresh guardian before the setup action — the
// replicated topology hooks the log replicator in there.
func executeScript(vol *stablelog.MemVolume, cfg SweepConfig, script []scriptStep, tr obs.Tracer, install func(*guardian.Guardian) error) (int, *guardian.Guardian, error) {
	crashed := func(err error) (bool, error) {
		if err == nil {
			return false, nil
		}
		if vol.GlobalCrashFired() {
			return true, nil
		}
		return false, err
	}
	g, err := pinned(guardian.New(1, guardian.WithBackend(cfg.Backend), guardian.WithVolume(vol), guardian.WithTracer(tr)))
	if c, err := crashed(err); err != nil {
		return -1, nil, err
	} else if c {
		return -1, nil, nil
	}
	if install != nil {
		if err := install(g); err != nil {
			return -1, nil, err
		}
	}
	init := g.Begin()
	var initErr error
	for i := 0; i < sweepCounters && initErr == nil; i++ {
		c, err := init.NewAtomic(value.Int(0))
		if err == nil {
			err = init.SetVar(counterName(i), c)
		}
		initErr = err
	}
	if cfg.Mutex && initErr == nil {
		m, err := init.NewMutex(value.Int(0))
		if err == nil {
			err = init.SetVar("journal", m)
		}
		initErr = err
	}
	if initErr == nil {
		initErr = init.Commit()
	}
	if c, err := crashed(initErr); err != nil {
		return -1, nil, err
	} else if c {
		return -1, nil, nil
	}
	for i, st := range script {
		if c, err := crashed(runStep(g, st)); err != nil {
			return i, nil, fmt.Errorf("step %d: %w", i, err)
		} else if c {
			return i, nil, nil
		}
	}
	return len(script), g, nil
}

func runStep(g *guardian.Guardian, st scriptStep) error {
	if st.kind == stepHousekeep {
		_, err := g.Housekeep(st.hkKind)
		return err
	}
	a := g.Begin()
	for _, u := range st.updates {
		c, ok := g.VarAtomic(u.name)
		if !ok {
			return fmt.Errorf("crashtest: counter %s lost", u.name)
		}
		delta := u.delta
		if err := a.Update(c, func(v value.Value) value.Value {
			return value.Int(int64(v.(value.Int)) + delta)
		}); err != nil {
			return err
		}
	}
	if st.mutexVal != 0 {
		m, ok := g.VarMutex("journal")
		if !ok {
			return fmt.Errorf("crashtest: journal lost")
		}
		v := st.mutexVal
		if err := a.Seize(m, func(value.Value) value.Value { return value.Int(v) }); err != nil {
			return err
		}
	}
	if st.early {
		if err := a.EarlyPrepare(); err != nil {
			return err
		}
	}
	if st.kind == stepAbort {
		return a.Abort()
	}
	return a.Commit()
}

func applyDecay(vol *stablelog.MemVolume, mode DecayMode) {
	if mode == DecayNone {
		return
	}
	vol.EachDevicePair(func(label string, a, b *stable.MemDevice) {
		// Never decay a copy whose sibling is already bad: the crash
		// being recovered from tore the block it interrupted, and a
		// second failure of that page before repair would violate the
		// single-failure assumption (it is genuine data loss, exercised
		// separately as a detected failure).
		decay := func(dev, sib *stable.MemDevice, i int) {
			if !sib.Bad(i) {
				dev.Decay(i)
			}
		}
		n := a.NumBlocks()
		if m := b.NumBlocks(); m > n {
			n = m
		}
		for i := 0; i < n; i++ {
			switch mode {
			case DecayDeviceA:
				decay(a, b, i)
			case DecayDeviceB:
				decay(b, a, i)
			case DecayAlternate:
				if i%2 == 0 {
					decay(a, b, i)
				} else {
					decay(b, a, i)
				}
			}
		}
	})
}

// recoverOnce crashes the volume, optionally applies decay, optionally
// arms a crash at recovery write armAt (0 = unarmed), and attempts a
// full recovery including in-doubt resolution. It returns the recovered
// guardian (nil if the armed crash fired or the site was never durably
// created), whether the armed crash fired, and whether the volume holds
// no site at all.
//
// Decay is injected only before the FIRST recovery after the history
// crash, never before the deeper recoveries of a double/triple-crash
// probe: a crash interrupts repair mid-write, leaving one copy torn,
// and decaying the surviving copy before repair resumes would be a
// second independent failure of the same page — outside the
// single-failure assumption the two-copy protocol (and the thesis)
// makes.
func recoverOnce(vol *stablelog.MemVolume, cfg SweepConfig, armAt int, withDecay bool, tr obs.Tracer) (g *guardian.Guardian, fired, noSite bool, err error) {
	vol.Crash()
	vol.Restart()
	if withDecay {
		applyDecay(vol, cfg.Decay)
	}
	if armAt > 0 {
		vol.ArmGlobalCrashAtWrite(armAt)
	}
	g, err = recovered(guardian.Open(1, vol, cfg.Backend, guardian.WithTracer(tr)))
	if err == nil {
		err = resolveInDoubt(g)
	}
	if err != nil {
		if vol.GlobalCrashFired() {
			return nil, true, false, nil
		}
		if isNoSite(err) {
			return nil, false, true, nil
		}
		return nil, false, false, err
	}
	return g, false, false, nil
}

func isNoSite(err error) bool {
	return errors.Is(err, stablelog.ErrNoSite)
}

// pinned pins synchronous forces on a guardian the sweep just created,
// recovered or promoted: crash points are placed by device-write index,
// so the write sequence must be a pure function of the schedule,
// independent of group-commit coalescing.
func pinned(g *guardian.Guardian, err error) (*guardian.Guardian, error) {
	if err == nil {
		g.SetSynchronousForces(true)
	}
	return g, err
}

// recovered pins a guardian just opened from a crashed volume or
// promoted from a backup and checks its structural invariants.
func recovered(g *guardian.Guardian, err error) (*guardian.Guardian, error) {
	if g, err = pinned(g, err); err == nil {
		err = guardian.CheckRecovered(g)
	}
	return g, err
}

// armedVolume is a fresh swept volume whose device writes crash the
// node from write k on (k == 0 only counts them).
func armedVolume(k int) *stablelog.MemVolume {
	vol := stablelog.NewMemVolume(sweepBlockSize)
	vol.ArmGlobalCrashAtWrite(k)
	return vol
}

// --- verification ------------------------------------------------------

// verifyRecovered checks the chapter 6 invariant for a recovery whose
// first crash interrupted script step s: the counters equal the serial
// pre- or post-state of that step, in full. noSite (the guardian was
// never durably created) is legal only for a setup-phase crash.
func verifyRecovered(g *guardian.Guardian, cfg SweepConfig, script []scriptStep, o *oracle, s int, noSite bool) error {
	if noSite {
		if s != -1 {
			return fmt.Errorf("site vanished though creation had committed")
		}
		return nil
	}
	read := func() (counterState, error) {
		got := make(counterState, sweepCounters)
		for i := 0; i < sweepCounters; i++ {
			n := counterName(i)
			c, ok := g.VarAtomic(n)
			if !ok {
				return nil, nil // counters absent
			}
			v, ok := c.Base().(value.Int)
			if !ok {
				return nil, fmt.Errorf("%s holds %s, not an int", n, value.String(c.Base()))
			}
			got[n] = int64(v)
		}
		return got, nil
	}
	got, err := read()
	if err != nil {
		return err
	}
	if s == -1 {
		// Crash during setup: either the init action never committed
		// (no counters) or it committed in full (all zeros).
		if got == nil {
			return nil
		}
		if !statesEqual(got, o.zero) {
			return fmt.Errorf("setup crash recovered to %v, want absent or all-zero", got)
		}
		return nil
	}
	if got == nil {
		return fmt.Errorf("counters lost after step-%d crash", s)
	}
	var allowed []counterState
	var label string
	switch {
	case s == len(script):
		allowed = []counterState{finalState(o, script)}
		label = "completed history"
	case script[s].kind == stepCommit:
		allowed = []counterState{o.pre[s], o.post[s]}
		label = "interrupted commit"
	default: // abort or housekeeping: committed state must not move
		allowed = []counterState{o.pre[s]}
		label = "interrupted " + stepLabel(script[s].kind)
	}
	idx := -1
	for i, w := range allowed {
		if statesEqual(got, w) {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("%s: recovered %v, allowed %v (neither pre- nor post-state in full)", label, got, allowed)
	}
	return verifyMutex(g, cfg, script, o, s, idx == 1)
}

// verifyMutex checks the §2.4.2 mutex rules: a seize is durable iff the
// writing action prepared, so after a crash the stable value is either
// the pre-crash stable value or the interrupted step's write — and if
// the interrupted action's counters committed, its seize necessarily
// reached stable storage with them.
func verifyMutex(g *guardian.Guardian, cfg SweepConfig, script []scriptStep, o *oracle, s int, tookPost bool) error {
	if !cfg.Mutex {
		return nil
	}
	m, ok := g.VarMutex("journal")
	if !ok {
		return fmt.Errorf("journal lost")
	}
	v, isInt := m.Current().(value.Int)
	if !isInt {
		return fmt.Errorf("journal holds %s", value.String(m.Current()))
	}
	got := int64(v)
	switch {
	case s == len(script):
		if got != o.finalMutex {
			return fmt.Errorf("journal = %d after completed history, want %d", got, o.finalMutex)
		}
	case script[s].kind == stepCommit && script[s].mutexVal != 0:
		if tookPost {
			// The action committed, so its seize is durable with it.
			if got != script[s].mutexVal {
				return fmt.Errorf("action committed but journal = %d, want %d", got, script[s].mutexVal)
			}
		} else if got != o.preMutex[s] && got != script[s].mutexVal {
			// Aborted counters, but the seize survives iff the prepare
			// completed before the crash; both values are legal.
			return fmt.Errorf("journal = %d, want %d or %d", got, o.preMutex[s], script[s].mutexVal)
		}
	default:
		if got != o.preMutex[min(s, len(o.preMutex)-1)] {
			return fmt.Errorf("journal = %d, want %d", got, o.preMutex[min(s, len(o.preMutex)-1)])
		}
	}
	return nil
}

func stepLabel(k stepKind) string {
	switch k {
	case stepAbort:
		return "abort"
	case stepHousekeep:
		return "housekeeping"
	default:
		return "commit"
	}
}

func statesEqual(a, b counterState) bool {
	if len(a) != len(b) {
		return false
	}
	//roslint:nondet order-independent: commutative equality conjunction
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func finalState(o *oracle, script []scriptStep) counterState {
	if len(script) == 0 {
		return o.zero
	}
	return o.post[len(script)-1]
}

// --- the driver --------------------------------------------------------

// scenario is one replayed history: the crash site's volume, the step
// the armed crash interrupted, and the topology's settle and oracle
// bound to the replay's state.
type scenario struct {
	vol *stablelog.MemVolume
	// step is the interrupted step: -1 for the setup phase, the history
	// length if the history completed.
	step int
	// done: the history completed — the armed crash never fired.
	done bool
	// settle brings the crashed deployment back (restart, promotion, or
	// restart plus 2PC settlement) with a further crash armed at its
	// write armAt (0 = unarmed), decay injected first if withDecay. It
	// reports whether that crash fired.
	settle func(armAt int, withDecay bool) (fired bool, err error)
	// check runs the topology's oracle on the settled — or, for a
	// completed history not settled, the live — state.
	check func() error
}

// topology is what the driver needs of a deployment.
type topology struct {
	// downs are the crash-site variants, each swept over every write.
	downs []RepDownPattern
	// settleDone settles a completed history too: a replicated takeover
	// is the scenario whether or not the primary crashed.
	settleDone bool
	// probe deepens every crash point into double and triple crashes.
	probe bool
	// replay runs the history of variant down on a fresh deployment
	// whose crash site crashes at device write k (0 = the counting run).
	// The scenario is non-nil even on error, carrying the step reached.
	replay func(down RepDownPattern, k int, chk *obs.Checker) (*scenario, error)
}

// maxRecoveryProbe bounds the double-crash probe loop per crash point;
// recoveries of these small scripted histories perform far fewer writes
// than this, so hitting the cap means the probe failed to terminate and
// is itself a bug.
const maxRecoveryProbe = 400

// supports reports whether the topology can run on backend b:
// replication ships a log, and the shadow backend keeps none.
func (t Topology) supports(b core.Backend) bool {
	return t != TopologyReplicated || b != core.BackendShadow
}

// topology validates cfg — defaulting the backend, refusing every field
// its topology cannot honour — and builds the topology's replay.
func (cfg *SweepConfig) topology() (topology, error) {
	if cfg.Backend == 0 {
		cfg.Backend = core.BackendHybrid
	}
	single := cfg.Topology == TopologySingle
	var why string
	switch {
	case int(cfg.Topology) >= len(topologyNames):
		why = "unknown topology"
	case !cfg.Topology.supports(cfg.Backend):
		why = "the shadow backend keeps no log to replicate"
	case cfg.Housekeep && (!single || cfg.Backend != core.BackendHybrid):
		why = "housekeeping is swept on a single hybrid guardian only"
	case cfg.Decay != DecayNone && !single:
		why = "decay is swept on a single guardian only"
	case cfg.Topology == TopologySharded && (cfg.Seed != 0 || cfg.Mutex):
		why = "the sharded transfer history is fixed: no seed, no mutex"
	case cfg.Topology == TopologySharded && (cfg.Steps < 1 || cfg.Steps > 16):
		why = fmt.Sprintf("steps %d out of range (1..16)", cfg.Steps)
	}
	if why != "" {
		return topology{}, fmt.Errorf("sweep %v %v: %s", cfg.Topology, cfg.Backend, why)
	}
	switch cfg.Topology {
	case TopologyReplicated:
		return replicatedTopology(*cfg), nil
	case TopologySharded:
		return shardedTopology(*cfg), nil
	}
	return singleTopology(*cfg), nil
}

// singleTopology replays the scripted history on one guardian and
// settles a crash by restarting it from the crashed volume.
func singleTopology(cfg SweepConfig) topology {
	script := buildScript(cfg)
	o := buildOracle(script)
	return topology{
		downs: []RepDownPattern{RepDownNone},
		probe: true,
		replay: func(_ RepDownPattern, k int, chk *obs.Checker) (*scenario, error) {
			vol := armedVolume(k)
			s, g, err := executeScript(vol, cfg, script, chk, nil)
			noSite := false
			return &scenario{
				vol: vol, step: s, done: s == len(script),
				settle: func(armAt int, withDecay bool) (fired bool, err error) {
					g, fired, noSite, err = recoverOnce(vol, cfg, armAt, withDecay, chk)
					return fired, err
				},
				check: func() error { return verifyRecovered(g, cfg, script, o, s, noSite) },
			}, err
		},
	}
}

// Sweep runs the exhaustive crash-point sweep described in the package
// comment for one configuration. It refuses a configuration its
// topology cannot honour, and returns a *SweepError naming the failing
// scenario's replay coordinates on the first property violation.
func Sweep(cfg SweepConfig) (SweepResult, error) {
	topo, err := cfg.topology()
	if err != nil {
		return SweepResult{}, err
	}
	var res SweepResult
	fail := func(down RepDownPattern, crashes []int, step int, err error) error {
		return &SweepError{
			Topology: cfg.Topology, Backend: cfg.Backend, Seed: cfg.Seed, Decay: cfg.Decay,
			Down: down, Crashes: crashes, Step: step, Err: err,
		}
	}

	// run replays variant down with a crash armed at write k, settles a
	// fired crash through the recovery crash schedule arms and then an
	// undisturbed recovery (decay precedes only the first), and checks
	// the oracle and the scenario's event checker. Each recovery's
	// log-open event resets the checker's force boundary, so its rules
	// hold across the crashes. A history the armed crash never
	// interrupted is checked the same way. run returns the interrupted
	// step and how many crashes fired.
	run := func(down RepDownPattern, k int, arms []int) (step, crashes int, err error) {
		chk := obs.NewChecker(nil)
		sc, err := topo.replay(down, k, chk)
		if err == nil && k == 0 {
			res.Writes = sc.vol.GlobalWrites()
			if !sc.done {
				err = fmt.Errorf("unarmed history did not complete (stopped at step %d)", sc.step)
			}
		}
		if !sc.done {
			crashes = 1
		}
		if err == nil && (!sc.done || topo.settleDone) {
			for i, at := range append(arms, 0) {
				var fired bool
				fired, err = sc.settle(at, i == 0)
				res.Recoveries++
				if err == nil && fired && at == 0 {
					err = errors.New("unarmed recovery reported a crash")
				}
				if err != nil || !fired {
					break
				}
				crashes++
			}
		}
		if err == nil {
			err = sc.check()
		}
		if err == nil {
			err = chk.Err()
		}
		if err != nil {
			return sc.step, crashes, fail(down, append([]int{k}, arms...), sc.step, err)
		}
		res.Points++
		res.Deepest = max(res.Deepest, crashes)
		return sc.step, crashes, nil
	}

	if _, _, err := run(topo.downs[0], 0, nil); err != nil {
		return res, err
	}
	for _, down := range topo.downs {
		for k := 1; k <= res.Writes; k++ {
			step, crashes, err := run(down, k, nil)
			// Depth 2 and 3: crash the recovery at each of its writes m;
			// when that fires, crash the next recovery at its first
			// write. The probe ends at the first m the recovery finishes
			// before reaching.
			probing := topo.probe && crashes > 0
			for m := 1; err == nil && probing; m++ {
				if m > maxRecoveryProbe {
					err = fail(down, []int{k, m}, step, errors.New("recovery crash probe did not terminate"))
					break
				}
				_, crashes, err = run(down, k, []int{m, 1})
				probing = crashes > 1
			}
			if err != nil {
				return res, err
			}
		}
	}
	return res, nil
}

// SweepMatrix lists the sweeps of one backend that roscrash -sweep
// runs: every topology the backend supports — single over every seed
// and decay mode, replicated over every seed, sharded once (its history
// takes no seed) — each over steps scripted actions.
func SweepMatrix(b core.Backend, seeds, steps int) []SweepConfig {
	var out []SweepConfig
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, d := range []DecayMode{DecayNone, DecayDeviceA, DecayDeviceB, DecayAlternate} {
			out = append(out, SweepConfig{
				Backend: b, Seed: seed, Steps: steps, Mutex: true, Decay: d,
				Housekeep: b == core.BackendHybrid,
			})
		}
	}
	for seed := int64(1); seed <= int64(seeds) && TopologyReplicated.supports(b); seed++ {
		out = append(out, SweepConfig{Topology: TopologyReplicated, Backend: b, Seed: seed, Steps: steps, Mutex: true})
	}
	return append(out, SweepConfig{Topology: TopologySharded, Backend: b, Steps: steps})
}
