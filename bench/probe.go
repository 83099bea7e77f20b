package main

// The traced pass's per-layer numbers. Counts and ratios come from the
// program's public counters and the benchmark's meters around the
// measured slices; times of single layers come from direct timed calls
// into each layer's exported functions, on storage of the workload's
// kind and with the workload's own keys and values.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/logrec"
	"repro/internal/object"
	"repro/internal/objindex"
	"repro/internal/stable"
	"repro/internal/stablelog"
	"repro/internal/transport"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func us(ns float64) float64 { return ns / 1e3 }

// timeEach runs fn n times and returns each call's duration in ns.
func timeEach(n int, fn func(i int) error) ([]int64, error) {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Nanoseconds())
	}
	return out, nil
}

// perCallNs times calls too short to time one by one: five batches of
// n, the median batch divided by n.
func perCallNs(n int, fn func(i int)) float64 {
	var batches []float64
	for b := 0; b < 5; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(batches)
}

// timeEachWithDevice is timeEach on metered storage: it also returns,
// per call, the part of the call spent inside device writes.
func timeEachWithDevice(n int, fn func(i int) error, sts ...*meterStats) (total, device []int64, err error) {
	for _, st := range sts {
		st.timed.Store(true)
		defer st.timed.Store(false)
		st.takeWriteNs()
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, nil, err
		}
		total = append(total, time.Since(t0).Nanoseconds())
		var dev int64
		for _, st := range sts {
			for _, w := range st.takeWriteNs() {
				dev += w
			}
		}
		device = append(device, dev)
	}
	return total, device, nil
}

func minus(a, b []int64) []int64 {
	out := make([]int64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// pingProbe times liveness round trips on the read connection of the
// running server: the wire, the dispatch and nothing else.
func (r *run) pingProbe() error {
	n := r.cfg.count(probeReps)
	one, err := timeEach(n, func(int) error { return r.e.reader.ping(1) })
	if err != nil {
		return fmt.Errorf("ping: %w", err)
	}
	batch, err := timeEach(n, func(int) error { return r.e.reader.ping(readBatch) })
	if err != nil {
		return fmt.Errorf("ping batch: %w", err)
	}
	r.res.set("server.ping_rtt_us", "us", us(medianNs(one)))
	r.res.set("server.ping_batch16_us", "us", us(medianNs(batch)))
	return nil
}

// layerCounts turns the counter deltas around the measured commit
// slices into per-commit counts and ratios.
func (r *run) layerCounts(c0, c1 counters, p0, p1 procSnap, commits, besideReads int64, cs sliceSummary, p phase) {
	res := r.res
	n := float64(commits)
	writes := float64(c1.meter.writes - c0.meter.writes)
	forces := float64(c1.forces - c0.forces)
	res.set("device.writes_per_commit", "count", writes/n)
	res.set("device.bytes_per_commit", "bytes", float64(c1.meter.writeBytes-c0.meter.writeBytes)/n)
	var writeNs []int64
	var busy int64
	for _, nd := range r.e.nodes {
		for _, w := range nd.st.takeWriteNs() {
			writeNs = append(writeNs, w)
			busy += w
		}
	}
	sortInt64(writeNs)
	res.set("device.write_us_p50", "us", us(percentile(writeNs, 50)))
	res.set("device.write_us_p99", "us", us(percentile(writeNs, 99)))
	tracedSlices := len(pick(cs.rate, true))
	res.set("device.busy_share", "ratio", float64(busy)/(float64(tracedSlices)*float64(p.sliceDur.Nanoseconds())))

	res.set("core.forces_per_commit", "count", forces/n)
	res.set("core.log_bytes_per_commit", "bytes", float64(c1.logBytes-c0.logBytes)/n)
	res.set("stablelog.block_writes_per_force", "count", ratio(writes, forces))
	res.set("stablelog.rides_per_lead", "ratio", ratio(float64(c1.rides-c0.rides), float64(c1.leads-c0.leads)))
	res.set("objindex.installs_per_commit", "count", float64(c1.installs-c0.installs)/n)
	res.set("objindex.bytes", "bytes", float64(c1.idxBytes))

	res.set("net.bytes_in_per_op", "bytes", float64(c1.net.bytesIn-c0.net.bytesIn)/n)
	res.set("net.bytes_out_per_op", "bytes", float64(c1.net.bytesOut-c0.net.bytesOut)/n)
	res.set("net.server_reads_per_op", "count", float64(c1.net.reads-c0.net.reads)/n)
	res.set("net.server_writes_per_op", "count", float64(c1.net.writes-c0.net.writes)/n)

	ops := float64(commits + besideReads)
	res.set("proc.cpu_us_per_op", "us", us(float64((p1.cpu-p0.cpu).Nanoseconds()))/ops)
	res.set("proc.allocs_per_op", "count", float64(p1.mallocs-p0.mallocs)/ops)
	res.set("trace_overhead_pct", "%", 100*(1-ratio(median(pick(cs.rate, true)), median(pick(cs.rate, false)))))
	if r.spec.transport == viaTxn {
		res.set("twopc.forces_per_txn", "count", forces/n)
	}
	r.logBytesPerForce = int(ratio(float64(c1.logBytes-c0.logBytes), forces))
}

// recoverProbe runs the recovery scan alone over what the served
// slices left on the media, for its own count of entries examined.
func (r *run) recoverProbe() error {
	var entries int
	var took time.Duration
	for _, n := range r.e.nodes {
		vol, err := n.vol.reopen()
		if err != nil {
			return err
		}
		n.vol = vol
		site, err := stablelog.OpenSite(vol)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rec, _, err := core.RecoverHybrid(site)
		took += time.Since(t0)
		if err != nil {
			return err
		}
		entries += rec.EntriesRead
	}
	r.res.set("guardian.recover_entries_read", "count", float64(entries))
	r.res.set("guardian.recover_us_per_entry", "us", ratio(us(float64(took.Nanoseconds())), float64(entries)))
	return nil
}

// scratch makes metered storage of the workload's kind for one probe.
func (r *run) scratch(name string) (media, *meterStats, error) {
	st := &meterStats{}
	if r.spec.device == devFile {
		med, err := newFileMedia(filepath.Join(r.e.dir, "probe-"+name))
		return med, st, err
	}
	return newMemMedia(), st, nil
}

// probeValue is a value of the kind the workload's keys hold.
func (r *run) probeValue() value.Value {
	if r.spec.op == opPut {
		return value.Bytes(putValue(1, 1))
	}
	return value.Int(123456)
}

// layerProbes makes the direct timed calls, then closes the budget.
func (r *run) layerProbes(cs sliceSummary) error {
	for _, probe := range []func() error{
		r.probeStable, r.probeLog, r.probeCodecs, r.probeGuardian, r.probeIndex, r.probeTxn,
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	res := r.res
	res.set("proc.peak_rss_mb", "MB", peakRSSMB())

	// The budget of one serial commit: its round trips, the guardian's
	// own work, and its block writes at the device's median. What is
	// left over is what the layers measured apart do not explain.
	p50 := us(median(pick(cs.p50, false)))
	m := func(name string) float64 { return res.Metrics[name].Value }
	res.set("server.invoke_overhead_us", "us", p50-m("guardian.commit_us"))
	explained := m("net.server_writes_per_op")*m("server.ping_rtt_us") +
		m("guardian.commit_self_us") +
		m("device.writes_per_commit")*m("device.write_us_p50")
	res.set("budget.unattributed_us", "us", p50-explained)
	res.Metrics["budget.commit_p50_us"] = metricValue{Value: p50, Unit: "us"}
	return nil
}

func (r *run) probeStable() error {
	med, st, err := r.scratch("stable")
	if err != nil {
		return err
	}
	a, err := med.open("s-a")
	if err != nil {
		return err
	}
	b, err := med.open("s-b")
	if err != nil {
		return err
	}
	store, err := stable.NewStore(&meter{dev: a, st: st}, &meter{dev: b, st: st})
	if err != nil {
		return err
	}
	n := r.cfg.count(probeReps)
	page := make([]byte, store.PageSize())
	w, err := timeEach(n, func(i int) error { return store.WritePage(i%16, page) })
	if err != nil {
		return err
	}
	rd, err := timeEach(n, func(i int) error {
		_, err := store.ReadPage(i % 16)
		return err
	})
	if err != nil {
		return err
	}
	r.res.set("stable.write_page_us", "us", us(medianNs(w)))
	r.res.set("stable.read_page_us", "us", us(medianNs(rd)))
	r.res.set("stable.device_writes_per_page", "count", float64(st.writes.Load())/float64(n))
	return med.destroy()
}

func (r *run) probeLog() error {
	med, st, err := r.scratch("log")
	if err != nil {
		return err
	}
	vol := newVolume(med, st)
	store, err := vol.Generation(1)
	if err != nil {
		return err
	}
	log := stablelog.New(store)
	// One force of a serial commit carries about this much.
	payload := make([]byte, max(r.logBytesPerForce, 16))
	n := r.cfg.count(probeReps)
	total, dev, err := timeEachWithDevice(n, func(int) error {
		_, err := log.ForceWrite(payload)
		return err
	}, st)
	if err != nil {
		return err
	}
	r.res.set("stablelog.force_us", "us", us(medianNs(total)))
	r.res.set("stablelog.force_self_us", "us", us(medianNs(minus(total, dev))))
	var scans []float64
	for i := 0; i < 5; i++ {
		seen := 0
		t0 := time.Now()
		if err := log.ReadBackward(log.Top(), func(stablelog.LSN, []byte) bool {
			seen++
			return true
		}); err != nil {
			return err
		}
		scans = append(scans, float64(time.Since(t0).Nanoseconds())/float64(max(seen, 1)))
	}
	r.res.set("stablelog.scan_ns_per_entry", "ns", median(scans))
	return med.destroy()
}

func (r *run) probeCodecs() error {
	const n = 2000
	res := r.res
	aid := ids.ActionID{Coordinator: 1, Seq: 1<<40 | 77}
	entry := &logrec.Entry{
		Kind: logrec.KindPrepared, AID: aid,
		Pairs: []logrec.UIDLSN{{UID: 42, Addr: 123456}}, Prev: 123400,
	}
	enc := logrec.Encode(logrec.Hybrid, entry)
	if _, err := logrec.Decode(logrec.Hybrid, enc); err != nil {
		return fmt.Errorf("logrec round trip: %w", err)
	}
	res.set("logrec.encode_ns", "ns", perCallNs(n, func(int) { sink = logrec.Encode(logrec.Hybrid, entry) }))
	res.set("logrec.decode_ns", "ns", perCallNs(n, func(int) { sinkAny, _ = logrec.Decode(logrec.Hybrid, enc) }))

	v := r.probeValue()
	flat := value.Flatten(v, nil)
	res.set("value.flatten_ns", "ns", perCallNs(n, func(int) { sink = value.Flatten(v, nil) }))
	res.set("value.unflatten_ns", "ns", perCallNs(n, func(int) { sinkAny, _ = value.Unflatten(flat) }))

	// The frames of one operation of this workload: the invoke of one
	// generated op, and the reply carrying the value back.
	handler, arg := r.e.invokeArg(newGen(r.spec, r.cfg.seed, 0, 1, 1).nextSingle())
	req := wire.Request{Op: wire.OpInvoke, Handler: handler, Arg: value.Flatten(arg, nil)}
	resp := wire.Response{Status: wire.StatusOK, Result: flat}
	reqCodec := func(int) {
		frame, _ := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeRequest, CorrID: 7, Payload: wire.EncodeRequest(req)})
		f, _, _ := wire.DecodeFrame(frame)
		sinkAny, _ = wire.DecodeRequest(f.Payload)
	}
	respCodec := func(int) {
		frame, _ := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeResponse, CorrID: 7, Payload: wire.EncodeResponse(resp)})
		f, _, _ := wire.DecodeFrame(frame)
		sinkAny, _ = wire.DecodeResponse(f.Payload)
	}
	res.set("wire.request_codec_ns", "ns", perCallNs(n, reqCodec))
	res.set("wire.response_codec_ns", "ns", perCallNs(n, respCodec))
	res.set("wire.codec_allocs", "count", allocsPer(n, func(i int) { reqCodec(i); respCodec(i) }))
	reqFrame, err := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeRequest, Payload: wire.EncodeRequest(req)})
	if err != nil {
		return err
	}
	respFrame, err := wire.AppendFrame(nil, wire.Frame{Type: wire.TypeResponse, Payload: wire.EncodeResponse(resp)})
	if err != nil {
		return err
	}
	res.set("wire.bytes_per_op", "bytes", float64(len(reqFrame)+len(respFrame)))

	tbl := shardTable(max(r.spec.shards, 2), "")
	res.set("shard.owner_ns", "ns", perCallNs(n, func(i int) { sinkAny = tbl.Owner(r.e.names[i%len(r.e.names)]) }))
	return nil
}

// sink and sinkAny keep the compiler from discarding a probed call.
var (
	sink    []byte
	sinkAny any
)

// allocsPer is the mean number of heap allocations of one fn call.
func allocsPer(n int, fn func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probeGuardian times the commit and read paths inside the guardian,
// with no server or wire in front: one scratch guardian per shard on
// storage of the workload's kind, the workload's handlers and keys.
func (r *run) probeGuardian() error {
	spec := *r.spec
	spec.keys = min(spec.keys, 1024)
	cfg := r.cfg
	cfg.wrapMedia = nil
	pe := newEnv(&spec, cfg, filepath.Join(r.e.dir, "probe-guardian"), nil)
	if err := pe.create(); err != nil {
		return err
	}
	defer func() {
		// Scratch storage of a finished probe, inside the run's own
		// directory, which the run removes whatever happens here.
		_ = pe.destroy()
	}()
	g := newGen(&spec, r.cfg.seed, 0, 1, 1)
	commit := func(int) error {
		o := g.next()
		if o.kind == opTransfer {
			return inprocTransfer(pe, o)
		}
		handler, arg := pe.invokeArg(o)
		_, err := inprocInvoke(pe.owner(o.key).g, handler, arg)
		return err
	}
	n := r.cfg.count(probeReps)
	if _, err := timeEach(n/4+1, commit); err != nil { // warm the path
		return err
	}
	// Every shard's writes count as device time of the commit.
	var sts []*meterStats
	for _, nd := range pe.nodes {
		sts = append(sts, nd.st)
	}
	total, dev, err := timeEachWithDevice(n, commit, sts...)
	if err != nil {
		return fmt.Errorf("guardian commit probe: %w", err)
	}
	res := r.res
	res.set("guardian.commit_us", "us", us(medianNs(total)))
	res.set("guardian.commit_self_us", "us", us(medianNs(minus(total, dev))))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if err := commit(i); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	res.set("guardian.commit_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(n))
	res.set("guardian.commit_alloc_bytes", "bytes", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))

	keys := make([]uint32, 256)
	g.readKeys(keys)
	readKey := func(i int) error {
		k := keys[i%len(keys)]
		_, err := pe.owner(k).g.ReadKey(pe.names[k])
		return err
	}
	if err := readKey(0); err != nil {
		return err
	}
	res.set("guardian.readkey_ns", "ns", perCallNs(2000, func(i int) { sinkAny = readKey(i) }))
	if _, err := pe.reopen(guardian.WithoutIndex()); err != nil {
		return err
	}
	miss, err := timeEach(n, readKey)
	if err != nil {
		return err
	}
	res.set("guardian.readkey_miss_us", "us", us(medianNs(miss)))
	return nil
}

// inprocTransfer is one cross-shard transfer with every message
// delivered in-process: the guardians' share of a transaction, without
// the client's round trips.
func inprocTransfer(e *env, o op) error {
	from, to := e.owner(o.key).g, e.owner(o.key2).g
	a := from.Begin()
	abort := func(err error) error {
		if aerr := a.Abort(); aerr != nil {
			return fmt.Errorf("%v; abort: %w", err, aerr)
		}
		return err
	}
	if _, err := guardian.Call(transport.Loopback{}, a, from, "incr",
		value.NewList(value.Str(e.names[o.key]), value.Int(-o.delta))); err != nil {
		return abort(err)
	}
	if _, err := guardian.Call(transport.Loopback{}, a, to, "incr",
		value.NewList(value.Str(e.names[o.key2]), value.Int(o.delta))); err != nil {
		return abort(err)
	}
	// The coordinator the routed client runs, with the messages looped
	// back: the two shards prepare and commit, the source shard keeps
	// the committing and done records.
	co := twopc.Coordinator{Self: from.ID(), Net: transport.Loopback{}, Log: from}
	res, err := co.Run(a.ID(), []twopc.Participant{from, to})
	if err != nil {
		return err
	}
	if res.Outcome != twopc.OutcomeCommitted || !res.Done {
		return fmt.Errorf("in-process transfer: outcome %v, done %v", res.Outcome, res.Done)
	}
	return nil
}

// probeIndex times the live-version index alone, at the workload's
// key count and value size.
func (r *run) probeIndex() error {
	idx := objindex.New()
	v := r.probeValue()
	flat := value.Flatten(v, nil)
	objs := make([]*object.Atomic, len(r.e.names))
	pairs := make([]objindex.Binding, len(objs))
	for i := range objs {
		objs[i] = object.NewAtomic(ids.UID(i+2), v, ids.ActionID{})
		pairs[i] = objindex.Binding{Key: r.e.names[i], Obj: objs[i]}
	}
	// What guardian.Open adds when the index is on: one Rebuild from the
	// recovered bindings, flattening each committed base version.
	rebuild, err := timeEach(max(r.cfg.count(probeReps)/10, 3), func(int) error {
		idx.Rebuild(pairs, func(o *object.Atomic) []byte { return o.SnapshotBase(nil) }, 1)
		return nil
	})
	if err != nil {
		return err
	}
	r.res.set("objindex.rebuild_ms", "ms", medianNs(rebuild)/1e6)
	keys := make([]uint32, 4096)
	newGen(r.spec, r.cfg.seed, streamReads, 1, 1).readKeys(keys)
	r.res.set("objindex.get_ns", "ns", perCallNs(20000, func(i int) {
		e, _ := idx.Get(r.e.names[keys[i%len(keys)]])
		sink = e.Flat
	}))
	r.res.set("objindex.install_ns", "ns", perCallNs(20000, func(i int) {
		idx.Install(objs[keys[i%len(keys)]], flat, uint64(i))
	}))
	return nil
}

// probeTxn reports the client's three kinds of transaction round trips
// and the forces a transaction costs. The cross-shard workload has
// them in its own spans and counters; the others run a short
// two-shard transfer loop on storage of their kind.
func (r *run) probeTxn() error {
	tr := r.tr
	if r.spec.transport != viaTxn {
		spec := *r.spec
		spec.name, spec.transport, spec.op = "txn-probe", viaTxn, opTransfer
		spec.shards, spec.keys, spec.conns, spec.depth, spec.reader = 2, 64, 1, 1, false
		cfg := r.cfg
		cfg.wrapMedia = nil
		tr = newTracer()
		pe := newEnv(&spec, cfg, filepath.Join(r.e.dir, "probe-txn"), tr)
		pe.led = newLedger(&spec)
		if err := pe.setup(); err != nil {
			return err
		}
		defer func() {
			// Scratch server and storage of a finished probe, inside the
			// run's own directory, which the run removes anyway.
			_ = pe.destroy()
		}()
		g := newGen(&spec, r.cfg.seed, 0, 1, 1)
		n := r.cfg.count(probeReps)
		c0 := pe.counters()
		pe.setTimed(true)
		for i := 0; i < n; i++ {
			if failed, err := pe.callers[0].commit([]op{g.next()}); err != nil || failed > 0 {
				return fmt.Errorf("txn probe: transfer %d failed (%v)", i, err)
			}
		}
		pe.setTimed(false)
		r.res.set("twopc.forces_per_txn", "count", float64(pe.counters().forces-c0.forces)/float64(n))
	}
	byName, _ := tr.times()
	for span, metric := range map[string]string{
		spanTxnBegin: "client.txn_begin_us", spanTxnInvoke: "client.txn_invoke_us", spanTxnCommit: "client.txn_commit_us",
	} {
		if len(byName[span]) == 0 {
			return fmt.Errorf("txn probe: no %s span recorded", span)
		}
		r.res.set(metric, "us", us(medianNs(byName[span])))
	}
	return nil
}
