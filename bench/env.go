package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/value"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string // scratch for file volumes and trace files

	// quick shrinks every fixed count (history, reopens, probe
	// repetitions) for the smoke tests; timings from a quick run mean
	// nothing.
	quick bool
	// wrapMedia, when set, interposes on each volume's media (the
	// oracle's negative test drops writes there).
	wrapMedia func(media) media
	// onServe, when set, is called once the fixed history and the
	// restart phases are done and the measured serving is about to
	// start (the negative test turns its fault on there).
	onServe func()
}

// count is a history or probe length: n, or a token amount when quick.
func (c runConfig) count(n int) int {
	if c.quick {
		return max(n/32, 3)
	}
	return n
}

// reps is a repetition count whose first sample is discarded: n, or
// the least that leaves one sample when quick.
func (c runConfig) reps(n int) int {
	if c.quick {
		return min(n, 2)
	}
	return n
}

// node is one guardian with the storage under it.
type node struct {
	id  ids.GuardianID
	med media
	st  *meterStats
	vol *volume
	g   *guardian.Guardian
}

// netStats is what the counting listener has seen, server side.
type netStats struct {
	bytesIn, bytesOut, reads, writes atomic.Int64
}

type netSnap struct{ bytesIn, bytesOut, reads, writes int64 }

func (s *netStats) snap() netSnap {
	return netSnap{s.bytesIn.Load(), s.bytesOut.Load(), s.reads.Load(), s.writes.Load()}
}

// countingListener hands server.Serve connections that count the
// server's socket reads and writes: the benchmark's seam above the
// program.
type countingListener struct {
	net.Listener
	st *netStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, st: l.st}, nil
}

type countingConn struct {
	net.Conn
	st *netStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.reads.Add(1)
	c.st.bytesIn.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	return n, err
}

// env is one incarnation of a workload's system: guardians on their
// volumes, the server in front of them, and the connections the
// generator drives.
type env struct {
	spec   *workloadSpec
	cfg    runConfig
	dir    string // file volumes live here
	names  []string
	owners []uint8
	led    *ledger
	tr     *tracer // nil unless tracing

	nodes []*node

	net       netStats
	srv       *server.Server
	serveDone chan error
	addr      string

	callers []committer // commit connections
	reader  reader      // read and ping connection
}

func newEnv(spec *workloadSpec, cfg runConfig, dir string, tr *tracer) *env {
	e := &env{spec: spec, cfg: cfg, dir: dir, owners: keyOwners(spec), tr: tr}
	e.names = make([]string, spec.keys)
	for i := range e.names {
		e.names[i] = keyName(uint32(i))
	}
	return e
}

// registerKV installs the key/value handlers rosd serves: incr adds a
// delta to an Int key, put replaces a key's value; both answer with the
// value they left. Every key exists from set-up, so neither creates.
func registerKV(g *guardian.Guardian) {
	keyObj := func(key value.Value) (*object.Atomic, error) {
		k, ok := key.(value.Str)
		if !ok {
			return nil, fmt.Errorf("key must be a Str")
		}
		o, ok := g.VarAtomic(string(k))
		if !ok {
			return nil, fmt.Errorf("no such key %q", k)
		}
		return o, nil
	}
	pair := func(arg value.Value) (*value.List, error) {
		l, ok := arg.(*value.List)
		if !ok || len(l.Elems) != 2 {
			return nil, fmt.Errorf("want List[key, value]")
		}
		return l, nil
	}
	g.RegisterHandler("put", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		l, err := pair(arg)
		if err != nil {
			return nil, err
		}
		o, err := keyObj(l.Elems[0])
		if err != nil {
			return nil, err
		}
		if err := sub.Set(o, l.Elems[1]); err != nil {
			return nil, err
		}
		return sub.Read(o)
	})
	g.RegisterHandler("incr", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		l, err := pair(arg)
		if err != nil {
			return nil, err
		}
		delta, ok := l.Elems[1].(value.Int)
		if !ok {
			return nil, fmt.Errorf("incr wants an Int delta")
		}
		o, err := keyObj(l.Elems[0])
		if err != nil {
			return nil, err
		}
		if err := sub.Update(o, func(cur value.Value) value.Value {
			n, _ := cur.(value.Int)
			return n + delta
		}); err != nil {
			return nil, err
		}
		return sub.Read(o)
	})
}

// newMedia makes the storage for shard i of this incarnation.
func (e *env) newMedia(i int) (media, error) {
	var med media
	if e.spec.device == devFile {
		fm, err := newFileMedia(filepath.Join(e.dir, fmt.Sprintf("shard%d", i+1)))
		if err != nil {
			return nil, err
		}
		med = fm
	} else {
		med = newMemMedia()
	}
	if e.cfg.wrapMedia != nil {
		med = e.cfg.wrapMedia(med)
	}
	return med, nil
}

// setup creates the guardians with every key committed, starts serving
// and connects. It is the whole of what setup_s times.
func (e *env) setup() error {
	if err := e.create(); err != nil {
		return err
	}
	return e.serve()
}

// create makes each shard's storage and guardian and commits every key
// in one action per guardian.
func (e *env) create() error {
	for i := 0; i < e.spec.shards; i++ {
		med, err := e.newMedia(i)
		if err != nil {
			return err
		}
		n := &node{id: ids.GuardianID(i + 1), med: med, st: &meterStats{tr: e.tr}}
		n.vol = newVolume(med, n.st)
		e.nodes = append(e.nodes, n)
		g, err := guardian.New(n.id, guardian.WithVolume(n.vol))
		if err != nil {
			return fmt.Errorf("guardian %d: %w", n.id, err)
		}
		n.g = g
		registerKV(g)
		a := g.Begin()
		for k := 0; k < e.spec.keys; k++ {
			if int(e.owners[k]) != i {
				continue
			}
			var init value.Value = value.Int(0)
			if e.spec.op == opPut {
				init = value.Bytes(putValue(uint32(k), 0))
			}
			o, err := a.NewAtomic(init)
			if err != nil {
				return err
			}
			if err := a.SetVar(e.names[k], o); err != nil {
				return err
			}
		}
		if err := a.Commit(); err != nil {
			return fmt.Errorf("guardian %d: creating keys: %w", n.id, err)
		}
	}
	return nil
}

// serve puts the server in front of the current guardians and connects
// the generator's connections.
func (e *env) serve() error {
	if e.spec.transport == viaInproc {
		c := &inprocCaller{e: e, g: e.nodes[0].g}
		e.callers, e.reader = []committer{c}, c
		return nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.addr = ln.Addr().String()
	if e.spec.shards == 1 {
		e.srv = server.New(e.nodes[0].g, server.Config{})
	} else {
		e.srv = server.New(nil, server.Config{})
		for _, n := range e.nodes {
			e.srv.AddShard(uint32(n.id), n.g)
		}
		if err := e.srv.InstallTable(shardTable(e.spec.shards, e.addr)); err != nil {
			//roslint:besteffort Serve never ran, so nothing else owns the listener; the install error is the one to report
			_ = ln.Close()
			return err
		}
	}
	e.serveDone = make(chan error, 1)
	srv := e.srv
	go func(done chan<- error) { done <- srv.Serve(&countingListener{Listener: ln, st: &e.net}) }(e.serveDone)

	opt := client.Options{PoolSize: 1}
	e.callers = nil
	for i := 0; i < e.spec.conns; i++ {
		if e.spec.transport == viaTxn {
			e.callers = append(e.callers, &txnCaller{e: e, r: client.NewRouted([]string{e.addr}, opt)})
		} else {
			e.callers = append(e.callers, &tcpCaller{e: e, c: client.New(e.addr, opt)})
		}
	}
	e.reader = &tcpCaller{e: e, c: client.New(e.addr, opt)}
	if err := e.reader.connect(); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	for _, c := range e.callers {
		if err := c.connect(); err != nil {
			return fmt.Errorf("connect: %w", err)
		}
	}
	return nil
}

// stopServing closes the connections and drains the server. The
// guardians are not told anything: there is no guardian shutdown, and
// the benchmark must not invent one.
func (e *env) stopServing() error {
	for _, c := range e.callers {
		c.close()
	}
	if e.reader != nil {
		e.reader.close()
	}
	e.callers, e.reader = nil, nil
	if e.srv == nil {
		return nil
	}
	err := e.srv.Close()
	if serr := <-e.serveDone; !errors.Is(serr, server.ErrClosed) && err == nil {
		err = serr
	}
	e.srv = nil
	return err
}

// reopen abandons every guardian and recovers each from its media
// alone, returning the time guardian.Open took (summed over shards).
func (e *env) reopen(opts ...guardian.Option) (time.Duration, error) {
	var total time.Duration
	for _, n := range e.nodes {
		n.g = nil
		vol, err := n.vol.reopen()
		if err != nil {
			return 0, err
		}
		n.vol = vol
		// The abandoned incarnation is garbage now; collect it outside
		// the timed recovery, so every recovery starts from the same heap.
		runtime.GC()
		t0 := time.Now()
		g, err := guardian.Open(n.id, vol, core.BackendHybrid, opts...)
		total += time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("reopen guardian %d: %w", n.id, err)
		}
		registerKV(g)
		n.g = g
	}
	return total, nil
}

// destroy stops serving and discards the storage.
func (e *env) destroy() error {
	err := e.stopServing()
	for _, n := range e.nodes {
		if derr := n.med.destroy(); err == nil {
			err = derr
		}
	}
	e.nodes = nil
	if e.spec.device == devFile {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// owner returns the node serving key.
func (e *env) owner(key uint32) *node { return e.nodes[e.owners[key]] }

// shardOf is the wire shard id addressing key's guardian: 0 (the
// default guardian) on a single-guardian server.
func (e *env) shardOf(key uint32) uint32 {
	if e.spec.shards == 1 {
		return 0
	}
	return uint32(shard.ID(e.owners[key]) + 1)
}

// counters sums the program's public counters over the guardians.
type counters struct {
	meter        meterSnap
	forces       int64
	logBytes     int64
	leads, rides int64
	hits, misses uint64
	installs     uint64
	idxBytes     uint64
	net          netSnap
}

func (e *env) counters() counters {
	var c counters
	for _, n := range e.nodes {
		m := n.st.snap()
		c.meter.writes += m.writes
		c.meter.writeBytes += m.writeBytes
		c.meter.reads += m.reads
		c.forces += int64(n.g.RS().Forces())
		c.logBytes += int64(n.g.RS().LogBytes())
		leads, rides := n.g.Site().Log().SchedulerStats()
		c.leads += int64(leads)
		c.rides += int64(rides)
		if st, ok := n.g.IndexStats(); ok {
			c.hits += st.Hits
			c.misses += st.Misses
			c.installs += st.Installs
			c.idxBytes += st.Bytes
		}
	}
	c.net = e.net.snap()
	return c
}

// setTimed switches per-write timing (and with it device.write spans)
// on every volume, and span recording on the tracer.
func (e *env) setTimed(on bool) {
	for _, n := range e.nodes {
		n.st.timed.Store(on)
	}
	if e.tr != nil {
		e.tr.on.Store(on)
	}
}
