package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stable"
)

// blockSize is the device block size of every volume in the benchmark
// (the served default).
const blockSize = 512

// meterStats is what the meters of one volume have seen. Counts are
// always kept; per-write times (and device.write spans) only while
// timed is set, which the runner does for the traced slices, so the
// untraced pass pays three atomic adds per block write and no clock
// reads.
type meterStats struct {
	writes     atomic.Int64 // WriteBlock calls that returned nil
	writeBytes atomic.Int64 // bytes handed to those calls
	reads      atomic.Int64 // ReadBlock calls that returned nil

	timed atomic.Bool
	tr    *tracer

	mu      sync.Mutex
	writeNs []int64 // one sample per timed write
}

// snapshot is a point-in-time copy of the counters.
type meterSnap struct{ writes, writeBytes, reads int64 }

func (s *meterStats) snap() meterSnap {
	return meterSnap{s.writes.Load(), s.writeBytes.Load(), s.reads.Load()}
}

// takeWriteNs returns and clears the timed write samples.
func (s *meterStats) takeWriteNs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.writeNs
	s.writeNs = nil
	return out
}

// meter is a stable.Device that counts (and, when asked, times) the
// block traffic of the device it wraps. It is the benchmark's only seam
// below the program: it changes no result and passes every error
// through untouched.
type meter struct {
	dev stable.Device
	st  *meterStats
}

func (m *meter) BlockSize() int { return m.dev.BlockSize() }
func (m *meter) NumBlocks() int { return m.dev.NumBlocks() }

func (m *meter) ReadBlock(i int) ([]byte, error) {
	p, err := m.dev.ReadBlock(i)
	if err == nil {
		m.st.reads.Add(1)
	}
	return p, err
}

func (m *meter) WriteBlock(i int, p []byte) error {
	timed := m.st.timed.Load()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	err := m.dev.WriteBlock(i, p)
	if timed {
		t1 := time.Now()
		m.st.mu.Lock()
		m.st.writeNs = append(m.st.writeNs, t1.Sub(t0).Nanoseconds())
		m.st.mu.Unlock()
		if m.st.tr.enabled() {
			m.st.tr.add(spanDevWrite, t0, t1, -1, -1)
		}
	}
	if err == nil {
		m.st.writes.Add(1)
		m.st.writeBytes.Add(int64(len(p)))
	}
	return err
}

// media is where a volume's blocks live. It outlives guardians: a
// restart hands the same media to a fresh volume, which is all a
// recovering guardian gets.
type media interface {
	// open returns the device called name, holding whatever was last
	// written under that name.
	open(name string) (stable.Device, error)
	// remove discards the device called name.
	remove(name string)
	// release drops open handles; the blocks stay.
	release() error
	// destroy discards everything.
	destroy() error
}

// memMedia keeps blocks in zero-latency memory devices. No write delay
// is ever set: MemDevice.SetWriteDelay is a time.Sleep whose floor on
// this host is ~1.1 ms whatever is asked for.
type memMedia struct {
	mu   sync.Mutex
	devs map[string]*stable.MemDevice
}

func newMemMedia() *memMedia { return &memMedia{devs: make(map[string]*stable.MemDevice)} }

func (m *memMedia) open(name string) (stable.Device, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.devs[name]
	if !ok {
		d = stable.NewMemDevice(blockSize, nil)
		m.devs[name] = d
	}
	return d, nil
}

func (m *memMedia) remove(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.devs, name)
}

func (m *memMedia) release() error { return nil }

func (m *memMedia) destroy() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.devs = make(map[string]*stable.MemDevice)
	return nil
}

// fileMedia keeps each device in a file of dir, fsync'd after every
// block write: the flush policy of every file workload.
type fileMedia struct {
	dir string

	mu     sync.Mutex
	opened []*stable.FileDevice
}

func newFileMedia(dir string) (*fileMedia, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &fileMedia{dir: dir}, nil
}

func (m *fileMedia) open(name string) (stable.Device, error) {
	d, err := stable.OpenFileDevice(filepath.Join(m.dir, name), blockSize, true)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.opened = append(m.opened, d)
	m.mu.Unlock()
	return d, nil
}

func (m *fileMedia) remove(name string) {
	// A generation's files are garbage once the root pointer moved on;
	// a leftover file costs space, not correctness.
	_ = os.Remove(filepath.Join(m.dir, name))
}

func (m *fileMedia) release() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var first error
	for _, d := range m.opened {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.opened = nil
	return first
}

func (m *fileMedia) destroy() error {
	err := m.release()
	if rerr := os.RemoveAll(m.dir); err == nil {
		err = rerr
	}
	return err
}

// volume is the benchmark's stablelog.Volume: two-copy stores built
// with stable.NewStore over metered devices. One volume serves one
// guardian incarnation; reopen yields the next incarnation's volume
// over the same media, with nothing cached.
type volume struct {
	med media
	st  *meterStats

	mu   sync.Mutex
	root *stable.Store
	gens map[uint64]*stable.Store
}

func newVolume(med media, st *meterStats) *volume {
	return &volume{med: med, st: st, gens: make(map[uint64]*stable.Store)}
}

// reopen abandons this volume (dropping file handles, never flushing
// anything) and returns a cold one over the same media.
func (v *volume) reopen() (*volume, error) {
	if err := v.med.release(); err != nil {
		return nil, err
	}
	return newVolume(v.med, v.st), nil
}

func (v *volume) pair(name string) (*stable.Store, error) {
	a, err := v.med.open(name + "-a")
	if err != nil {
		return nil, err
	}
	b, err := v.med.open(name + "-b")
	if err != nil {
		return nil, err
	}
	return stable.NewStore(&meter{dev: a, st: v.st}, &meter{dev: b, st: v.st})
}

// Root implements stablelog.Volume.
func (v *volume) Root() (*stable.Store, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.root == nil {
		s, err := v.pair("root")
		if err != nil {
			return nil, err
		}
		v.root = s
	}
	return v.root, nil
}

// Generation implements stablelog.Volume.
func (v *volume) Generation(gen uint64) (*stable.Store, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.gens[gen]; ok {
		return s, nil
	}
	s, err := v.pair(fmt.Sprintf("gen%d", gen))
	if err != nil {
		return nil, err
	}
	v.gens[gen] = s
	return s, nil
}

// Remove implements stablelog.Volume.
func (v *volume) Remove(gen uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.gens, gen)
	v.med.remove(fmt.Sprintf("gen%d-a", gen))
	v.med.remove(fmt.Sprintf("gen%d-b", gen))
}
