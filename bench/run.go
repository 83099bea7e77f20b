package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/hybridlog"
)

// metricValue is one reported number. Spread is (max−min)/median over
// the slices (or repetitions) the value is the median of; Samples is
// how many latency samples the smallest slice held.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Spread  float64 `json:"spread,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Slices holds the values Value is the median of.
	Slices []float64 `json:"slices,omitempty"`
}

// runResult is everything one run of one workload found.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Seconds   float64                `json:"seconds"`
	Metrics   map[string]metricValue `json:"metrics"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	AckedLost int64                  `json:"acked_lost"`
	// Errors names what made the run incorrect.
	Errors []string `json:"errors,omitempty"`
	// TraceFile is where the spans went (traced runs).
	TraceFile string `json:"trace_file,omitempty"`
}

// OpFailRatio is failed or refused operations over attempted ones.
func (r *runResult) OpFailRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *runResult) set(name, unit string, v float64) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// setMedian reports the median of vs with its spread.
func (r *runResult) setMedian(name, unit string, vs []float64, samples int) {
	r.Metrics[name] = metricValue{Value: median(vs), Unit: unit, Spread: spread(vs), Samples: samples, Slices: vs}
}

// tracePattern says which measured slices of a traced run record spans
// and device-write times. The untraced slices in between are the
// reference trace_overhead_pct is taken against, in the same process
// and minute as the traced ones.
var tracePattern = [nSlices]bool{false, true, false, true, true}

// connStats is what one connection's loop measured.
type connStats struct {
	lats      [][]int64 // per slice: one latency per sample, ns
	ops       []int64   // per slice: operations that succeeded
	total     int64     // operations that succeeded, slices or not
	attempted int64
	failed    int64
	userBytes int64 // payload of the acknowledged operations
	wrong     error // first reply that contradicted the ledger
}

func newConnStats(slices int) *connStats {
	return &connStats{lats: make([][]int64, slices), ops: make([]int64, slices)}
}

// phase is one timed stretch of nSlices (or, for warm-up, one) slices.
type phase struct {
	start    time.Time
	slices   int
	sliceDur time.Duration
	// traced, when non-nil, is consulted by the first connection at
	// every slice boundary to switch span recording.
	traced func(slice int) bool
}

func (p phase) end() time.Time { return p.start.Add(time.Duration(p.slices) * p.sliceDur) }

// slot files a sample that completed at t: its slice, or -1 when the
// phase is over.
func (p phase) slot(t time.Time) int {
	i := int(t.Sub(p.start) / p.sliceDur)
	if i >= p.slices {
		return -1
	}
	return i
}

// commitLoop drives one connection through a phase: generate depth
// operations, send them, wait for every reply, repeat. An operation is
// filed under the slice it completed in.
func (e *env) commitLoop(c committer, g *gen, depth int, p phase, lead bool) *connStats {
	st := newConnStats(p.slices)
	ops := make([]op, depth)
	end := p.end()
	cur := -1
	for {
		for i := range ops {
			ops[i] = g.next()
		}
		t0 := time.Now()
		if !t0.Before(end) {
			return st
		}
		if lead && p.traced != nil {
			if s := p.slot(t0); s != cur {
				cur = s
				e.setTimed(p.traced(s))
			}
		}
		failed, err := c.commit(ops)
		t1 := time.Now()
		if e.tr.enabled() && e.spec.transport != viaTxn {
			e.tr.add(spanCall, t0, t1, -1, e.tr.nextOp())
		}
		if err != nil && st.wrong == nil {
			st.wrong = err
		}
		st.attempted += int64(depth)
		st.failed += int64(failed)
		st.total += int64(depth - failed)
		for _, o := range ops {
			st.userBytes += userBytes(o)
		}
		if failed > 0 {
			// Which of them failed is in the ledger; their payload was
			// not committed. Serial workloads (the ones with an exact
			// write_amp) have depth 1, so this is exact there.
			st.userBytes -= int64(failed) * userBytes(ops[0])
		}
		if s := p.slot(t1); s >= 0 {
			st.lats[s] = append(st.lats[s], t1.Sub(t0).Nanoseconds())
			st.ops[s] += int64(depth - failed)
		}
	}
}

// readLoop drives the read connection through a phase: one sample is
// one batch of readBatch zipf keys.
func (e *env) readLoop(r reader, g *gen, p phase, exact bool) *connStats {
	st := newConnStats(p.slices)
	keys := make([]uint32, readBatch)
	end := p.end()
	for {
		g.readKeys(keys)
		t0 := time.Now()
		if !t0.Before(end) {
			return st
		}
		failed, err := r.read(keys, exact)
		t1 := time.Now()
		if e.tr.enabled() {
			e.tr.add(spanCall, t0, t1, -1, e.tr.nextOp())
		}
		if err != nil && st.wrong == nil {
			st.wrong = err
		}
		st.attempted += readBatch
		st.failed += int64(failed)
		st.total += int64(readBatch - failed)
		if s := p.slot(t1); s >= 0 {
			st.lats[s] = append(st.lats[s], t1.Sub(t0).Nanoseconds())
			st.ops[s] += int64(readBatch - failed)
		}
	}
}

// sliceSummary is the per-slice view of a phase over its connections.
type sliceSummary struct {
	p50, p99, rate []float64 // one per slice: ns, ns, operations/s
	minSamples     int
}

func summarize(p phase, conns ...*connStats) sliceSummary {
	var s sliceSummary
	s.minSamples = math.MaxInt
	for i := 0; i < p.slices; i++ {
		var lats []int64
		var ops int64
		for _, c := range conns {
			lats = append(lats, c.lats[i]...)
			ops += c.ops[i]
		}
		sortInt64(lats)
		s.p50 = append(s.p50, percentile(lats, 50))
		s.p99 = append(s.p99, percentile(lats, 99))
		s.rate = append(s.rate, float64(ops)/p.sliceDur.Seconds())
		if len(lats) < s.minSamples {
			s.minSamples = len(lats)
		}
	}
	return s
}

// pick returns the values of vs whose slice has traced == want.
func pick(vs []float64, want bool) []float64 {
	var out []float64
	for i, v := range vs {
		if tracePattern[i] == want {
			out = append(out, v)
		}
	}
	return out
}

func scale(vs []float64, f float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * f
	}
	return out
}

// run is one workload run in progress.
type run struct {
	spec *workloadSpec
	cfg  runConfig
	res  *runResult
	e    *env
	tr   *tracer

	attempted, failed int64
	// logBytesPerForce is what one force of the measured slices
	// carried; the log probe forces payloads of that size.
	logBytesPerForce int
}

func (r *run) absorb(sts ...*connStats) {
	for _, st := range sts {
		r.attempted += st.attempted
		r.failed += st.failed
		if st.wrong != nil {
			r.res.fail("wrong reply: %v", st.wrong)
		}
	}
}

// runWorkload runs one workload once: set-up, fixed history, restart
// and housekeeping on that history, then the served commit and read
// slices, then abandon, reopen and the ledger check.
func runWorkload(spec *workloadSpec, cfg runConfig) (*runResult, error) {
	r := &run{spec: spec, cfg: cfg}
	r.res = &runResult{
		Workload: spec.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Metrics: make(map[string]metricValue), Correct: true,
	}
	if cfg.trace {
		r.tr = newTracer()
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("vol-%s-%d", spec.name, os.Getpid()))

	// Set-up, several times over; the last incarnation is the one used.
	var setups []float64
	for i := 0; i < cfg.reps(setupRepeats); i++ {
		if r.e != nil {
			if err := r.e.destroy(); err != nil {
				return nil, err
			}
		}
		r.e = newEnv(spec, cfg, fmt.Sprintf("%s-%d", base, i), r.tr)
		r.e.led = newLedger(spec)
		runtime.GC() // each repetition starts from the same heap
		t0 := time.Now()
		err := r.e.setup()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			// The set-up error is the one to report.
			_ = r.e.destroy()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	r.res.setMedian("setup_s", "s", setups, 0)
	err := r.lifecycle()
	if derr := r.e.destroy(); err == nil {
		err = derr
	}
	if err != nil {
		return nil, err
	}
	r.res.Attempted, r.res.Failed = r.attempted, r.failed
	if r.failed > 0 {
		r.res.fail("%d of %d operations failed or were refused", r.failed, r.attempted)
	}
	if r.res.AckedLost > 0 {
		r.res.Correct = false
	}
	return r.res, nil
}

func (r *run) lifecycle() error {
	e, spec, cfg := r.e, r.spec, r.cfg

	// A fixed history, so that what restart and housekeeping are timed
	// on does not depend on this host's commit rate.
	depth := spec.preloadDepth()
	pre := newGen(spec, cfg.seed, streamPreload, 1, depth)
	left := cfg.count(spec.preload)
	st := newConnStats(0)
	for left > 0 {
		n := min(depth, left)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = pre.next()
		}
		failed, err := e.callers[0].commit(ops)
		if err != nil && st.wrong == nil {
			st.wrong = err
		}
		st.attempted += int64(n)
		st.failed += int64(failed)
		left -= n
	}
	r.absorb(st)
	if err := e.stopServing(); err != nil {
		return err
	}

	if err := r.restartPhases(); err != nil {
		return err
	}

	// Serve the recovered guardians.
	if cfg.onServe != nil {
		cfg.onServe()
	}
	if err := e.serve(); err != nil {
		return err
	}
	share := spec.serveShare
	commitDur := time.Duration(cfg.seconds * commitShare * share / nSlices * float64(time.Second))
	readDur := time.Duration(cfg.seconds * readShare * share / nSlices * float64(time.Second))
	if spec.reader {
		commitDur += readDur
	}
	warm := time.Duration(cfg.seconds * warmupShare * share * float64(time.Second))

	gens := make([]*gen, spec.conns)
	for i := range gens {
		gens[i] = newGen(spec, cfg.seed, i, spec.conns, spec.depth)
	}
	reads := newGen(spec, cfg.seed, streamReads, 1, 1)

	r.servePhase(gens, reads, phase{slices: 1, sliceDur: warm}) // warm-up, discarded
	if cfg.trace {
		if err := r.pingProbe(); err != nil {
			return err
		}
	}
	p := phase{slices: nSlices, sliceDur: commitDur}
	if cfg.trace {
		p.traced = func(s int) bool { return s >= 0 && tracePattern[s] }
	}
	c0, proc0 := e.counters(), procNow()
	commits, beside := r.servePhase(gens, reads, p)
	e.setTimed(false)
	c1, proc1 := e.counters(), procNow()
	// Not the program's doing, but the first thing to look at when a run
	// disagrees with its neighbours: on this host whole runs go 2x
	// slower while something else has a core.
	r.res.set("host.other_cpu_share", "ratio", otherCPUShare(proc0, proc1))

	var readSts *connStats
	rp := p
	if spec.reader {
		readSts = beside
	} else {
		rp = phase{slices: nSlices, sliceDur: readDur, start: time.Now()}
		e.setTimed(cfg.trace)
		readSts = e.readLoop(e.reader, reads, rp, true)
		e.setTimed(false)
		r.absorb(readSts)
	}
	c2 := e.counters()

	cs := summarize(p, commits...)
	rs := summarize(rp, readSts)
	var acked, user int64
	for _, c := range commits {
		acked += c.total
		user += c.userBytes
	}
	if acked == 0 || readSts.total == 0 {
		return fmt.Errorf("%s: no operation completed in the measured slices", spec.name)
	}
	if !cfg.trace {
		res := r.res
		res.setMedian("commit_p50_us", "us", scale(cs.p50, 1e-3), cs.minSamples)
		res.setMedian("commit_p99_us", "us", scale(cs.p99, 1e-3), cs.minSamples)
		res.setMedian("commits_per_s", "1/s", cs.rate, cs.minSamples)
		res.setMedian("read_p50_us", "us", scale(rs.p50, 1e-3), rs.minSamples)
		res.setMedian("read_p99_us", "us", scale(rs.p99, 1e-3), rs.minSamples)
		res.setMedian("reads_per_s", "1/s", rs.rate, rs.minSamples)
		res.set("write_amp", "ratio", float64(c1.meter.writeBytes-c0.meter.writeBytes)/float64(user))
	} else {
		// The tails are per-layer metrics: on this host their run-to-run
		// spread is wider than any bound worth having (README.md). They
		// come from the slices without span recording where there are
		// such (commits).
		r.res.setMedian("commit_p99_us", "us", scale(pick(cs.p99, false), 1e-3), cs.minSamples)
		r.res.setMedian("read_p99_us", "us", scale(rs.p99, 1e-3), rs.minSamples)
		var besideReads int64
		if spec.reader {
			besideReads = readSts.total
		}
		r.layerCounts(c0, c1, proc0, proc1, acked, besideReads, cs, p)
		// Reads may have run after the commit slices; the hit ratio is
		// over both.
		hits, misses := float64(c2.hits-c0.hits), float64(c2.misses-c0.misses)
		r.res.set("objindex.hit_ratio", "ratio", ratio(hits, hits+misses))
	}

	// Abandon: connections closed, server drained, guardians dropped
	// with no word to them; then recover from the media alone and hold
	// the result against the ledger.
	if err := e.stopServing(); err != nil {
		return err
	}
	if cfg.trace {
		if err := r.recoverProbe(); err != nil {
			return err
		}
	}
	if _, err := e.reopen(); err != nil {
		return err
	}
	lost, first := e.led.verify(func(key uint32) ([]byte, error) {
		return e.owner(key).g.ReadKey(e.names[key])
	})
	r.res.AckedLost = lost
	if first != nil {
		r.res.fail("ledger: %v", first)
	}
	for _, n := range e.nodes {
		if err := guardian.CheckRecovered(n.g); err != nil {
			r.res.fail("recovered guardian %d: %v", n.id, err)
		}
	}

	if cfg.trace {
		if err := r.layerProbes(cs); err != nil {
			return err
		}
		r.tr.adopt()
		_, self := r.tr.times()
		for name, ns := range self {
			r.res.set("self_us."+name, "us", us(medianNs(ns)))
		}
		path, err := r.tr.write(cfg.outDir, spec.name, cfg.seed)
		if err != nil {
			return err
		}
		r.res.TraceFile = path
	}
	return nil
}

// servePhase runs every commit connection (and, beside them, the read
// connection of a reader workload) through p and waits for all of them.
func (r *run) servePhase(gens []*gen, reads *gen, p phase) (commits []*connStats, beside *connStats) {
	e := r.e
	p.start = time.Now()
	commits = make([]*connStats, len(e.callers))
	var wg sync.WaitGroup
	for i, c := range e.callers {
		wg.Add(1)
		go func(i int, c committer) {
			defer wg.Done()
			commits[i] = e.commitLoop(c, gens[i], r.spec.depth, p, i == 0)
		}(i, c)
	}
	if r.spec.reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside = e.readLoop(e.reader, reads, p, false)
		}()
	}
	wg.Wait()
	r.absorb(commits...)
	if beside != nil {
		r.absorb(beside)
	}
	return commits, beside
}

// restartPhases times recovery of the fixed history: reopen several
// times, snapshot, reopen several times again. The guardians it leaves
// are the ones served afterwards.
func (r *run) restartPhases() error {
	e, res := r.e, r.res
	reopenMs := func(n int) ([]float64, error) {
		if r.cfg.trace {
			n = 2 // restart times are the untraced pass's; this one only needs the recovered state
		}
		var ms []float64
		for i := 0; i < n; i++ {
			d, err := e.reopen()
			if err != nil {
				return nil, err
			}
			if i > 0 { // the first pays for cold files and a cold heap
				ms = append(ms, float64(d.Nanoseconds())/1e6)
			}
		}
		return ms, nil
	}
	ms, err := reopenMs(r.cfg.reps(r.spec.reopens))
	if err != nil {
		return err
	}
	if r.cfg.trace {
		// One more, to count the device reads of a single recovery.
		before := e.counters().meter.reads
		if _, err := e.reopen(); err != nil {
			return err
		}
		res.set("device.reads_per_restart", "count", float64(e.counters().meter.reads-before))
	} else {
		res.setMedian("restart_ms", "ms", ms, 0)
	}

	var hk []float64
	var last hybridlog.Stats
	passes := r.cfg.reps(housekeeps)
	if r.cfg.trace {
		passes = 1 // for the snapshot's size; its time is the untraced pass's
	}
	for i := 0; i < passes; i++ {
		runtime.GC()
		t0 := time.Now()
		var sum hybridlog.Stats
		for _, n := range e.nodes {
			st, err := n.g.Housekeep(core.HousekeepSnapshot)
			if err != nil {
				return fmt.Errorf("housekeep guardian %d: %w", n.id, err)
			}
			sum.NewLogSize += st.NewLogSize
			sum.ObjectsCopied += st.ObjectsCopied
		}
		hk = append(hk, float64(time.Since(t0).Nanoseconds())/1e6)
		last = sum
	}
	ms, err = reopenMs(r.cfg.reps(r.spec.reopensAfter))
	if err != nil {
		return err
	}
	if r.cfg.trace {
		res.set("hybridlog.snapshot_bytes", "bytes", float64(last.NewLogSize))
		res.set("hybridlog.snapshot_objects", "count", float64(last.ObjectsCopied))
	} else {
		res.setMedian("housekeep_ms", "ms", hk, 0)
		res.setMedian("restart_after_housekeep_ms", "ms", ms, 0)
	}
	return nil
}
