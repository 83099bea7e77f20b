// Package stable implements simulated atomic stable storage in the style
// of Lampson and Sturgis, as assumed by thesis §1.1.
//
// The thesis deliberately does not implement stable storage; it assumes
// a device whose write operation is atomic ("the data is either written
// completely to the disk or not written at all, even if there is a
// failure while the update is happening") and builds the log
// organization above it. This package provides that contract in
// simulation so the layers above exercise exactly the code paths the
// thesis describes:
//
//   - Device is a conventional block device with *non-atomic* writes: a
//     crash mid-write leaves a torn (detectably bad) block, and blocks
//     may spontaneously decay.
//   - Store pairs two Devices with independent failure modes and runs
//     the two-copy update protocol (write copy A, then copy B, each
//     self-checksummed and version-stamped), yielding pages whose
//     updates are atomic with respect to crashes and single-device
//     faults.
//
// Fault injection is deterministic: a FaultPlan decides, per device
// write, whether the write succeeds, tears, or the whole node crashes,
// which lets tests enumerate every crash point of the protocols above.
package stable

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrCrashed is returned by every operation on a device (or a store
// using it) after an injected crash, until the device is Restarted.
// It simulates the node being down.
var ErrCrashed = errors.New("stable: node crashed")

// ErrBadBlock is returned when a read finds a torn or decayed block.
var ErrBadBlock = errors.New("stable: bad block")

// Fault is a fault-injection verdict for a single block write.
type Fault uint8

const (
	// FaultNone lets the write proceed normally.
	FaultNone Fault = iota
	// FaultTorn applies the write but leaves the block torn: subsequent
	// reads return ErrBadBlock until the block is rewritten. It models a
	// power failure mid-sector or a scribbled sector.
	FaultTorn
	// FaultCrash tears the block and crashes the node: this write and
	// every later operation return ErrCrashed until Restart.
	FaultCrash
)

// FaultPlan decides the fate of each write. The device calls Next once
// per WriteBlock with the block number; implementations may count calls
// to trigger a fault at an exact point. A nil FaultPlan never faults.
type FaultPlan interface {
	Next(block int) Fault
}

// FaultFunc adapts a function to the FaultPlan interface.
type FaultFunc func(block int) Fault

// Next implements FaultPlan.
func (f FaultFunc) Next(block int) Fault { return f(block) }

// ReadFault is a fault-injection verdict for a single block read.
type ReadFault uint8

const (
	// ReadFaultNone lets the read proceed normally.
	ReadFaultNone ReadFault = iota
	// ReadFaultTransient fails this read with ErrBadBlock while leaving
	// the block intact: a soft read error that a retry (or the sibling
	// copy) survives.
	ReadFaultTransient
	// ReadFaultDecay marks the block decayed: this and every later read
	// return ErrBadBlock until the block is rewritten. It models media
	// failure discovered on read.
	ReadFaultDecay
)

// ReadFaultPlan extends a FaultPlan to the read path. A FaultPlan that
// also implements ReadFaultPlan has NextRead called once per ReadBlock;
// plans that do not implement it never fault reads. Keeping the read
// plan per device lets tests diverge the two copies of a stable store
// independently, which is what the two-copy protocol must survive.
type ReadFaultPlan interface {
	NextRead(block int) ReadFault
}

// ReadFaultFunc adapts a function to a write-silent ReadFaultPlan.
type ReadFaultFunc func(block int) ReadFault

// Next implements FaultPlan (never faults writes).
func (f ReadFaultFunc) Next(int) Fault { return FaultNone }

// NextRead implements ReadFaultPlan.
func (f ReadFaultFunc) NextRead(block int) ReadFault { return f(block) }

// ReadFaultAfter returns a plan that injects rf on the nth read
// (1-based) and never faults writes. n <= 0 never faults.
func ReadFaultAfter(n int, rf ReadFault) FaultPlan {
	count := 0
	return ReadFaultFunc(func(int) ReadFault {
		if n <= 0 {
			return ReadFaultNone
		}
		count++
		if count == n {
			return rf
		}
		return ReadFaultNone
	})
}

// CrashAfter returns a FaultPlan that crashes the node on the nth write
// (1-based) and never otherwise faults. n <= 0 never crashes.
func CrashAfter(n int) FaultPlan {
	count := 0
	return FaultFunc(func(int) Fault {
		if n <= 0 {
			return FaultNone
		}
		count++
		if count == n {
			return FaultCrash
		}
		return FaultNone
	})
}

// Device is a conventional block device. Writes are not atomic: see
// FaultPlan. Implementations must be safe for concurrent use.
type Device interface {
	// ReadBlock returns the contents of block i, or ErrBadBlock if the
	// block is torn/decayed, or ErrCrashed if the node is down. The
	// returned slice is the caller's: the device keeps no reference.
	ReadBlock(i int) ([]byte, error)
	// WriteBlock replaces block i. The device grows as needed.
	WriteBlock(i int, p []byte) error
	// BlockSize returns the fixed block size in bytes.
	BlockSize() int
	// NumBlocks returns the current number of blocks.
	NumBlocks() int
}

// MemDevice is an in-memory Device with injectable faults. It survives
// "crashes" the way a disk does: the blocks persist, only the node stops
// responding until Restart. Use two MemDevices with independent plans to
// build a Store.
type MemDevice struct {
	mu        sync.Mutex
	blockSize int
	blocks    [][]byte
	bad       map[int]bool
	crashed   bool
	plan      FaultPlan
	writes    int           // total successful or torn writes, for statistics
	reads     int           // total read attempts, for statistics
	delay     time.Duration // simulated latency per block write
	tr        obs.Tracer    // emits fault.injected when a fault takes effect
}

// SetTracer installs (or, with nil, removes) the device's event
// tracer: each injected fault that takes effect — torn write, node
// crash, read decay, transient read error, spontaneous Decay — emits a
// fault.injected event whose LSN field carries the block number.
func (d *MemDevice) SetTracer(tr obs.Tracer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tr = tr
}

// emitFault reports one injected fault; callers hold d.mu.
func (d *MemDevice) emitFault(code uint8, block int) {
	if d.tr != nil {
		d.tr.Emit(obs.Event{Kind: obs.KindFaultInjected, Code: code, LSN: uint64(block)})
	}
}

// NewMemDevice returns an empty in-memory device with the given block
// size and fault plan (nil for no faults).
func NewMemDevice(blockSize int, plan FaultPlan) *MemDevice {
	if blockSize <= 0 {
		panic("stable: block size must be positive")
	}
	return &MemDevice{
		blockSize: blockSize,
		bad:       make(map[int]bool),
		plan:      plan,
	}
}

// BlockSize implements Device.
func (d *MemDevice) BlockSize() int { return d.blockSize }

// NumBlocks implements Device.
func (d *MemDevice) NumBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.blocks)
}

// Writes returns how many block writes the device has absorbed.
func (d *MemDevice) Writes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes
}

// Reads returns how many block reads the device has served.
func (d *MemDevice) Reads() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads
}

// SetPlan replaces the device's fault plan without touching the crashed
// flag or block contents (unlike Restart). Harnesses use it to arm a
// fault plan on a running device.
func (d *MemDevice) SetPlan(plan FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.plan = plan
}

// SetWriteDelay makes every subsequent block write sleep for at least
// delay. It is a test-only window widener: the default MemDevice write
// is a memcpy, so concurrent committers never overlap inside a force,
// and a test that needs them to (force coalescing, a drain landing on
// in-flight commits) sets a delay to hold the window open. No
// measurement may use it — it is a time.Sleep, whose floor was measured
// at ≈1.1 ms for a 50 µs request; see bench/README.md.
// The delay changes only timing, never outcomes or write counts, so the
// deterministic crash harnesses are unaffected (they leave it zero).
func (d *MemDevice) SetWriteDelay(delay time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.delay = delay
}

// Bad reports whether block i is currently torn or decayed.
func (d *MemDevice) Bad(i int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bad[i]
}

// ReadBlock implements Device.
func (d *MemDevice) ReadBlock(i int) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	if i < 0 || i >= len(d.blocks) {
		return nil, fmt.Errorf("stable: block %d out of range [0,%d)", i, len(d.blocks))
	}
	d.reads++
	if rp, ok := d.plan.(ReadFaultPlan); ok {
		switch rp.NextRead(i) {
		case ReadFaultTransient:
			d.emitFault(obs.FaultReadTransient, i)
			return nil, ErrBadBlock
		case ReadFaultDecay:
			d.emitFault(obs.FaultReadDecay, i)
			d.bad[i] = true
		}
	}
	if d.bad[i] {
		return nil, ErrBadBlock
	}
	out := make([]byte, d.blockSize)
	copy(out, d.blocks[i])
	return out, nil
}

// WriteBlock implements Device.
func (d *MemDevice) WriteBlock(i int, p []byte) error {
	if len(p) > d.blockSize {
		return fmt.Errorf("stable: write of %d bytes exceeds block size %d", len(p), d.blockSize)
	}
	d.mu.Lock()
	delay := d.delay
	d.mu.Unlock()
	if delay > 0 {
		// Outside d.mu: a slow write models device latency, not a lock
		// on the block map; reads and the crash injector stay live.
		// Sleep, not a spin — a disk write leaves the CPU free for the
		// committers whose overlap group commit exists to exploit (a
		// spin would serialize them on small machines). The sleep
		// timer's granularity may round the delay up; that only makes
		// the simulated disk slower, which the relative measurements
		// tolerate.
		time.Sleep(delay)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if i < 0 {
		return fmt.Errorf("stable: negative block %d", i)
	}
	for i >= len(d.blocks) {
		d.blocks = append(d.blocks, make([]byte, d.blockSize))
	}
	var fault Fault
	if d.plan != nil {
		fault = d.plan.Next(i)
	}
	d.writes++
	switch fault {
	case FaultTorn:
		// Half-applied write: block contents are garbage.
		d.emitFault(obs.FaultTorn, i)
		d.bad[i] = true
		return nil
	case FaultCrash:
		d.emitFault(obs.FaultCrash, i)
		d.bad[i] = true
		d.crashed = true
		return ErrCrashed
	}
	buf := d.blocks[i]
	copy(buf, p)
	for j := len(p); j < d.blockSize; j++ {
		buf[j] = 0
	}
	delete(d.bad, i)
	return nil
}

// Decay marks block i bad, simulating spontaneous media failure of one
// device (the failure mode the two-copy protocol must survive).
func (d *MemDevice) Decay(i int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i >= 0 && i < len(d.blocks) {
		d.emitFault(obs.FaultDecay, i)
		d.bad[i] = true
	}
}

// Crash takes the node down: every subsequent operation returns
// ErrCrashed until Restart. Blocks persist.
func (d *MemDevice) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = true
}

// Restart brings a crashed node back up with a new fault plan (nil for
// none). Block contents, including torn blocks, persist across the
// restart, exactly as a disk would.
func (d *MemDevice) Restart(plan FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashed = false
	d.plan = plan
}
