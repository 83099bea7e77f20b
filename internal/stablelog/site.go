package stablelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stable"
)

// ErrNoSite is returned by OpenSite when the volume's root generation
// pointer is empty: no site was ever durably created here (or it was
// destroyed). A crash between allocating a volume and CreateSite's root
// write lands in this state; callers treat it as "start from scratch",
// not as corruption.
var ErrNoSite = errors.New("stablelog: no site on volume")

// Volume supplies the stable stores backing one guardian's logs. A
// volume outlives crashes: after a node crash the same volume is handed
// to OpenSite, which repairs and reopens the current log generation.
type Volume interface {
	// Root returns the small store holding the current-generation
	// pointer. It is created on first use.
	Root() (*stable.Store, error)
	// Generation returns (creating if needed) the store for log
	// generation gen.
	Generation(gen uint64) (*stable.Store, error)
	// Remove discards the devices of generation gen.
	Remove(gen uint64)
}

// MemVolume is an in-memory Volume with whole-node crash injection. All
// devices of the volume crash and restart together, as they would on a
// single node.
type MemVolume struct {
	mu        sync.Mutex
	blockSize int
	root      [2]*stable.MemDevice
	rootStore *stable.Store
	gens      map[uint64][2]*stable.MemDevice
	genStores map[uint64]*stable.Store
	crashed   bool
	plan      stable.FaultPlan // applied to device A of every generation
	global    *globalPlan      // volume-wide write counter / crash trigger
	delay     time.Duration    // write latency applied to every device
	tr        obs.Tracer       // fault-event tracer applied to every device
}

// globalPlan is a FaultPlan shared by every device of a volume: it
// counts block writes across the whole node (root pair plus both copies
// of every generation) and crashes the node at an armed write number.
// With crashAt 0 it only counts, which is how a sweep measures the
// total write count of a scripted history before replaying it.
type globalPlan struct {
	mu      sync.Mutex
	writes  int
	crashAt int
	fired   bool
}

func (g *globalPlan) Next(int) stable.Fault {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.writes++
	if g.crashAt > 0 && g.writes >= g.crashAt {
		g.fired = true
		return stable.FaultCrash
	}
	return stable.FaultNone
}

func (g *globalPlan) snapshot() (writes int, fired bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writes, g.fired
}

// NewMemVolume returns an empty volume whose devices use the given block
// size.
func NewMemVolume(blockSize int) *MemVolume {
	return &MemVolume{
		blockSize: blockSize,
		gens:      make(map[uint64][2]*stable.MemDevice),
		genStores: make(map[uint64]*stable.Store),
	}
}

// BlockSize reports the block size the volume's devices use.
func (v *MemVolume) BlockSize() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.blockSize
}

// SetFaultPlan installs a fault plan applied to the primary device of
// every generation created afterwards.
func (v *MemVolume) SetFaultPlan(p stable.FaultPlan) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.plan = p
}

// SetWriteDelay applies stable.MemDevice.SetWriteDelay to every device
// of the volume, existing and future. Like it, a test-only window
// widener; no measurement may use it — see bench/README.md. The crash
// harnesses leave it zero.
func (v *MemVolume) SetWriteDelay(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.delay = d
	for i := range v.root {
		if v.root[i] != nil {
			v.root[i].SetWriteDelay(d)
		}
	}
	//roslint:nondet applies one setting to every device; order has no observable effect
	for _, pair := range v.gens {
		pair[0].SetWriteDelay(d)
		pair[1].SetWriteDelay(d)
	}
}

// SetTracer installs an event tracer on every device of the volume,
// existing and future; devices emit fault.injected events when an
// injected fault (torn write, crash, read decay) takes effect.
func (v *MemVolume) SetTracer(tr obs.Tracer) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.tr = tr
	for i := range v.root {
		if v.root[i] != nil {
			v.root[i].SetTracer(tr)
		}
	}
	//roslint:nondet applies one setting to every device; order has no observable effect
	for _, pair := range v.gens {
		pair[0].SetTracer(tr)
		pair[1].SetTracer(tr)
	}
}

// Root implements Volume. The same Store instance is returned on every
// call: concurrent Store wrappers over one device pair would race on
// version stamps.
func (v *MemVolume) Root() (*stable.Store, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.root[0] == nil {
		v.root[0] = stable.NewMemDevice(v.blockSize, nil)
		v.root[1] = stable.NewMemDevice(v.blockSize, nil)
		if v.global != nil {
			v.root[0].SetPlan(v.global)
			v.root[1].SetPlan(v.global)
		}
		v.root[0].SetWriteDelay(v.delay)
		v.root[1].SetWriteDelay(v.delay)
		v.root[0].SetTracer(v.tr)
		v.root[1].SetTracer(v.tr)
	}
	if v.rootStore == nil {
		s, err := stable.NewStore(v.root[0], v.root[1])
		if err != nil {
			return nil, err
		}
		v.rootStore = s
	}
	return v.rootStore, nil
}

// Generation implements Volume, caching the Store per generation.
func (v *MemVolume) Generation(gen uint64) (*stable.Store, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.genStores[gen]; ok {
		return s, nil
	}
	pair, ok := v.gens[gen]
	if !ok {
		pair = [2]*stable.MemDevice{
			stable.NewMemDevice(v.blockSize, v.plan),
			stable.NewMemDevice(v.blockSize, nil),
		}
		if v.global != nil {
			pair[0].SetPlan(v.global)
			pair[1].SetPlan(v.global)
		}
		pair[0].SetWriteDelay(v.delay)
		pair[1].SetWriteDelay(v.delay)
		pair[0].SetTracer(v.tr)
		pair[1].SetTracer(v.tr)
		v.gens[gen] = pair
	}
	s, err := stable.NewStore(pair[0], pair[1])
	if err != nil {
		return nil, err
	}
	v.genStores[gen] = s
	return s, nil
}

// Remove implements Volume.
func (v *MemVolume) Remove(gen uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.gens, gen)
	delete(v.genStores, gen)
}

// ArmCrashAfterWrites installs a fault plan on the primary device of
// every existing generation that crashes the whole node on the nth
// subsequent block write (counting across all generations). Used by the
// crash-injection harness to stop a guardian at an arbitrary point
// inside a prepare or commit.
func (v *MemVolume) ArmCrashAfterWrites(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	count := 0
	var mu sync.Mutex
	shared := stable.FaultFunc(func(int) stable.Fault {
		mu.Lock()
		defer mu.Unlock()
		if n <= 0 {
			return stable.FaultNone
		}
		count++
		if count == n {
			// The device crash propagates an ErrCrashed to the caller,
			// which the harness turns into a full node crash.
			return stable.FaultCrash
		}
		return stable.FaultNone
	})
	//roslint:nondet order-independent: installs the same shared plan on every pair
	for _, pair := range v.gens {
		pair[0].Restart(shared)
	}
	v.plan = shared
}

// ArmGlobalCrashAtWrite installs a node-wide fault plan on every device
// of the volume — the root pair and both copies of every generation,
// existing and created later — that counts block writes and crashes the
// node on write number n (and every write after, so nothing slips out
// between the trigger and the harness noticing). n == 0 arms a pure
// counter: the sweep runs the scripted history once with n == 0 to
// learn the total write count W, then replays it W times crashing at
// each k in 1..W.
func (v *MemVolume) ArmGlobalCrashAtWrite(n int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.global = &globalPlan{crashAt: n}
	if v.root[0] != nil {
		v.root[0].SetPlan(v.global)
		v.root[1].SetPlan(v.global)
	}
	//roslint:nondet order-independent: installs the same global plan on every pair
	for _, pair := range v.gens {
		pair[0].SetPlan(v.global)
		pair[1].SetPlan(v.global)
	}
}

// GlobalWrites returns the number of device block writes counted by the
// plan installed with ArmGlobalCrashAtWrite (0 if never armed).
func (v *MemVolume) GlobalWrites() int {
	v.mu.Lock()
	g := v.global
	v.mu.Unlock()
	if g == nil {
		return 0
	}
	w, _ := g.snapshot()
	return w
}

// GlobalCrashFired reports whether the armed global crash triggered.
func (v *MemVolume) GlobalCrashFired() bool {
	v.mu.Lock()
	g := v.global
	v.mu.Unlock()
	if g == nil {
		return false
	}
	_, fired := g.snapshot()
	return fired
}

// EachDevicePair calls f for every device pair of the volume in a
// deterministic order (root first, then generations ascending). Fault
// sweeps use it to inject decay on chosen copies between a crash and
// the subsequent recovery.
func (v *MemVolume) EachDevicePair(f func(label string, a, b *stable.MemDevice)) {
	v.mu.Lock()
	root := v.root
	gens := make([]uint64, 0, len(v.gens))
	//roslint:nondet keys collected here are sorted below before use
	for g := range v.gens {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	pairs := make([][2]*stable.MemDevice, len(gens))
	for i, g := range gens {
		pairs[i] = v.gens[g]
	}
	v.mu.Unlock()
	if root[0] != nil {
		f("root", root[0], root[1])
	}
	for i, g := range gens {
		f(fmt.Sprintf("gen%d", g), pairs[i][0], pairs[i][1])
	}
}

// Crash takes every device of the volume down, losing all volatile
// state layered above. Stable contents persist.
func (v *MemVolume) Crash() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.crashed = true
	if v.root[0] != nil {
		v.root[0].Crash()
		v.root[1].Crash()
	}
	//roslint:nondet order-independent: every pair crashes, no cross-pair effects
	for _, pair := range v.gens {
		pair[0].Crash()
		pair[1].Crash()
	}
}

// Restart brings all devices back up (with no fault plans).
func (v *MemVolume) Restart() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.crashed = false
	if v.root[0] != nil {
		v.root[0].Restart(nil)
		v.root[1].Restart(nil)
	}
	//roslint:nondet order-independent: every pair restarts, no cross-pair effects
	for _, pair := range v.gens {
		pair[0].Restart(nil)
		pair[1].Restart(nil)
	}
	v.plan = nil
	v.global = nil
	// Drop cached Store wrappers: a reboot starts from the devices.
	v.rootStore = nil
	v.genStores = make(map[uint64]*stable.Store)
}

// Site is one guardian's stable-log facility: the current log plus the
// machinery to replace it with a new one in a single atomic step
// (thesis ch. 5: "in one atomic step, the new log supplants the old
// log"). The current generation number lives on the volume's root
// store; switching writes one stable page.
type Site struct {
	mu  sync.Mutex
	vol Volume
	gen uint64
	log *Log
	// syncForce pins every log of this site — current and future
	// generations alike — to synchronous forcing (no group-commit
	// coalescing); see Log.SetSynchronousForces. It must survive the
	// housekeeping generation switch, which installs a brand-new Log.
	syncForce bool
	// tr is the event tracer applied to the current log and, at the
	// moment of the housekeeping switch, to its replacement. The
	// not-yet-installed log that housekeeping fills via NewLog is
	// deliberately untraced: only one log per guardian carries the
	// tracer at a time, so the stream's durable boundary is always
	// unambiguous (stage-one copy work is summarized by the
	// housekeep.done event instead).
	tr obs.Tracer
	// repl is the replication hook applied to the current log and, at
	// the switch, to its replacement — like tr, it must survive the
	// housekeeping generation switch, or a primary would silently stop
	// quorum-gating forces after its first housekeeping pass. The log
	// housekeeping fills via NewLog is deliberately unreplicated: its
	// fill forces are local copy work, and the replication cursor
	// resynchronizes from the generation number after the switch.
	repl Replicator
}

// SetReplicator installs the site's replication hook on the current log
// (see Log.SetReplicator) and arranges for the log installed by a
// future housekeeping Switch to inherit it.
func (s *Site) SetReplicator(r Replicator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repl = r
	if s.log != nil {
		s.log.SetReplicator(r)
	}
}

// SetTracer installs the site's event tracer on the current log (which
// emits a log.open event, see Log.SetTracer) and arranges for the log
// installed by a future housekeeping Switch to inherit it.
func (s *Site) SetTracer(tr obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tr = tr
	if s.log != nil {
		s.log.SetTracer(tr)
	}
}

// SetSynchronousForces switches the site's current log (and every log
// later created through NewLog) between group-commit scheduling and
// fully synchronous forces. The crash harness pins its sites to
// synchronous mode for deterministic device-write counting.
func (s *Site) SetSynchronousForces(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncForce = on
	if s.log != nil {
		s.log.SetSynchronousForces(on)
	}
}

// CreateSite initializes a brand-new site with an empty generation-1
// log.
func CreateSite(vol Volume) (*Site, error) {
	root, err := vol.Root()
	if err != nil {
		return nil, err
	}
	store, err := vol.Generation(1)
	if err != nil {
		return nil, err
	}
	s := &Site{vol: vol, gen: 1, log: New(store)}
	if err := writeGen(root, 1); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenSite reopens a site after a crash: repairs the root store, reads
// the current generation pointer, repairs that generation's store, and
// opens the log (discarding any torn tail).
func OpenSite(vol Volume) (*Site, error) {
	root, err := vol.Root()
	if err != nil {
		return nil, err
	}
	if err := root.Recover(); err != nil {
		return nil, err
	}
	gen, err := readGen(root)
	if err != nil {
		return nil, err
	}
	store, err := vol.Generation(gen)
	if err != nil {
		return nil, err
	}
	if err := store.Recover(); err != nil {
		return nil, err
	}
	log, err := Open(store)
	if err != nil {
		return nil, err
	}
	return &Site{vol: vol, gen: gen, log: log}, nil
}

func writeGen(root *stable.Store, gen uint64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], gen)
	return root.WritePage(0, buf[:])
}

func readGen(root *stable.Store) (uint64, error) {
	p, err := root.ReadPage(0)
	if err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, ErrNoSite
	}
	if len(p) < 8 {
		return 0, fmt.Errorf("stablelog: root page corrupt (len %d)", len(p))
	}
	return binary.LittleEndian.Uint64(p[:8]), nil
}

// Log returns the current log.
func (s *Site) Log() *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log
}

// Generation returns the current log generation number.
func (s *Site) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// NewLog creates (but does not install) the next-generation log, for
// housekeeping to fill.
func (s *Site) NewLog() (*Log, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	gen := s.gen + 1
	store, err := s.vol.Generation(gen)
	if err != nil {
		return nil, 0, err
	}
	log := New(store)
	if s.syncForce {
		log.SetSynchronousForces(true)
	}
	return log, gen, nil
}

// Destroy discards the site's log (the §3.1 destroy operation): the
// current generation's devices are removed and the root pointer is
// cleared, as when a guardian is itself destroyed. The site must not be
// used afterwards.
func (s *Site) Destroy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	root, err := s.vol.Root()
	if err != nil {
		return err
	}
	if err := root.WritePage(0, nil); err != nil {
		return err
	}
	s.vol.Remove(s.gen)
	s.log = nil
	return nil
}

// Switch atomically installs the log created by NewLog as the current
// log and discards the old generation. The new log must have been
// forced by the caller; the single atomic step is the root-page write.
func (s *Site) Switch(newLog *Log, gen uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != s.gen+1 {
		return fmt.Errorf("stablelog: switch to generation %d, current is %d", gen, s.gen)
	}
	root, err := s.vol.Root()
	if err != nil {
		return err
	}
	if err := writeGen(root, gen); err != nil {
		return err
	}
	old := s.gen
	s.gen = gen
	s.log = newLog
	s.vol.Remove(old)
	if s.repl != nil {
		// Installed before the tracer so the first traced event of the
		// new generation can never be an unreplicated force completion.
		newLog.SetReplicator(s.repl)
	}
	if s.tr != nil {
		// The new generation becomes the traced log from this point on;
		// its log.open event carries the durable boundary housekeeping
		// already forced, resetting the stream's view of the log.
		newLog.SetTracer(s.tr)
	}
	return nil
}
