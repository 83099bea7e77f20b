package main

import "fmt"

// The method is fixed here, not in flags: every run of a workload does
// the same phases with the same counts, so two runs differ only in
// seed and in what the host did meanwhile.
const (
	nSlices      = 5    // measured slices per phase; metrics are medians over them
	commitShare  = 0.70 // of -seconds spent in the commit slices
	readShare    = 0.30 // of -seconds spent in the read slices
	warmupShare  = 0.10 // of -seconds, before the commit slices, unmeasured
	setupRepeats = 7    // set-ups per run; setup_s is their median
	readBatch    = 16   // keys per read sample (one GetBatch)
	zipfS        = 1.1  // skew of read keys

	pipelineConns = 2 // connections of the pipelined workload
	pipelineDepth = 8 // invokes in flight per connection

	putValueLen = 128 // bytes per put value
	housekeeps  = 15  // snapshot passes per run; housekeep_ms is their median
	probeReps   = 200 // repetitions of each direct per-layer timed call
)

type deviceKind int

const (
	devMem deviceKind = iota
	devFile
)

type transportKind int

const (
	viaTCP    transportKind = iota // client → loopback TCP → server
	viaTxn                         // routed client, client-driven 2PC across 2 shards
	viaInproc                      // direct calls into the guardian, no wire
)

type opKind uint8

const (
	opIncr     opKind = iota + 1 // add delta to an Int key
	opPut                        // replace a key's 128-byte value
	opTransfer                   // incr −1 / +1 on keys of two shards, one transaction
)

// workloadSpec fixes one workload.
type workloadSpec struct {
	name string
	why  string

	device    deviceKind
	transport transportKind
	op        opKind
	keys      int // key-space size, all created in set-up
	shards    int // guardians (one server)

	conns int // commit connections (closed loop, each waits for its replies)
	depth int // invokes in flight per connection
	// reader adds one more connection issuing read batches during the
	// commit slices; otherwise reads run alone in their own slices.
	reader bool

	// preload is the fixed number of commits applied before the restart
	// phases, so restart and housekeeping are timed on a history whose
	// length does not depend on how fast this host commits.
	preload int
	// reopens is how many times the guardian is reopened (first
	// discarded) for restart_ms, and again after housekeeping.
	reopens, reopensAfter int
	// serveShare scales the commit and read slices; the count-based
	// workload spends its time on the history instead.
	serveShare float64
}

var workloads = []workloadSpec{
	{
		name:   "commit-serial-file",
		why:    "1 connection, 1 incr in flight, fsync-per-block files: device-bound, latency = forces x block writes x fsync",
		device: devFile, transport: viaTCP, op: opIncr, keys: 1024, shards: 1,
		conns: 1, depth: 1, preload: 2048, reopens: 12, reopensAfter: 24, serveShare: 1,
	},
	{
		name:   "commit-pipelined-file",
		why:    "2 connections x 8 invokes in flight on files: committers share force rounds, so coalescing shows here and not in serial",
		device: devFile, transport: viaTCP, op: opIncr, keys: 1024, shards: 1,
		conns: pipelineConns, depth: pipelineDepth, preload: 2048, reopens: 12, reopensAfter: 24, serveShare: 1,
	},
	{
		name:   "commit-serial-mem",
		why:    "as commit-serial-file on a zero-latency memory device: CPU-bound, so codec, dispatch and alloc changes show only here",
		device: devMem, transport: viaTCP, op: opIncr, keys: 1024, shards: 1,
		conns: 1, depth: 1, preload: 4096, reopens: 12, reopensAfter: 24, serveShare: 1,
	},
	{
		name:   "read-beside-writes-mem",
		why:    "GetBatch of 16 zipf keys on one connection beside continuous puts on another: objindex Get and Install contend",
		device: devMem, transport: viaTCP, op: opPut, keys: 10000, shards: 1,
		conns: 1, depth: 1, reader: true, preload: 4096, reopens: 12, reopensAfter: 24, serveShare: 1,
	},
	{
		name:   "xshard-transfer-file",
		why:    "serial transfers across 2 shards by client-driven 2PC on files: round trips and coordinator forces on the critical path",
		device: devFile, transport: viaTxn, op: opTransfer, keys: 1024, shards: 2,
		conns: 1, depth: 1, preload: 256, reopens: 12, reopensAfter: 24, serveShare: 1,
	},
	{
		name:   "restart-50k",
		why:    "50 000 in-process commits of history, then reopen x8, snapshot, reopen x22: the recovery-speed axis at a measurable log length",
		device: devMem, transport: viaInproc, op: opIncr, keys: 1024, shards: 1,
		conns: 1, depth: 1, preload: 50000, reopens: 8, reopensAfter: 22, serveShare: 0.25,
	},
}

// preloadDepth is how many history commits are in flight at once: a
// pipelined batch where the transport has one (it only builds history
// faster), one at a time elsewhere.
func (s *workloadSpec) preloadDepth() int {
	if s.transport == viaTCP {
		return readBatch
	}
	return 1
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric with its unit and better-direction.
// Bound is the share of the baseline median by which an end-to-end
// metric may worsen before -compare calls it regressed (unused for
// per-layer metrics).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_us", "us", "lower", 0.25},
	{"commits_per_s", "1/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"reads_per_s", "1/s", "higher", 0.25},
	{"write_amp", "ratio", "lower", 0.05},
	{"restart_ms", "ms", "lower", 0.25},
	{"restart_after_housekeep_ms", "ms", "lower", 0.25},
	{"housekeep_ms", "ms", "lower", 0.25},
}

// perLayer is one list for every workload; the traced pass reports all
// of it.
var perLayer = []metricDef{
	// The served tails: what a user sees, but demoted from the bounded
	// list because their run-to-run spread on a 2-core shared host
	// (10–17%) leaves no room for a bound under the 25% cap.
	{"commit_p99_us", "us", "lower", 0},
	{"read_p99_us", "us", "lower", 0},

	{"device.writes_per_commit", "count", "lower", 0},
	{"device.bytes_per_commit", "bytes", "lower", 0},
	{"device.write_us_p50", "us", "lower", 0},
	{"device.write_us_p99", "us", "lower", 0},
	{"device.busy_share", "ratio", "lower", 0},
	{"device.reads_per_restart", "count", "lower", 0},

	{"stable.write_page_us", "us", "lower", 0},
	{"stable.read_page_us", "us", "lower", 0},
	{"stable.device_writes_per_page", "count", "lower", 0},

	{"stablelog.force_us", "us", "lower", 0},
	{"stablelog.force_self_us", "us", "lower", 0},
	{"stablelog.block_writes_per_force", "count", "lower", 0},
	{"stablelog.rides_per_lead", "ratio", "higher", 0},
	{"stablelog.scan_ns_per_entry", "ns", "lower", 0},

	{"logrec.encode_ns", "ns", "lower", 0},
	{"logrec.decode_ns", "ns", "lower", 0},
	{"value.flatten_ns", "ns", "lower", 0},
	{"value.unflatten_ns", "ns", "lower", 0},

	{"core.forces_per_commit", "count", "lower", 0},
	{"core.log_bytes_per_commit", "bytes", "lower", 0},
	{"hybridlog.snapshot_bytes", "bytes", "lower", 0},
	{"hybridlog.snapshot_objects", "count", "lower", 0},

	{"guardian.commit_us", "us", "lower", 0},
	{"guardian.commit_self_us", "us", "lower", 0},
	{"guardian.commit_allocs", "count", "lower", 0},
	{"guardian.commit_alloc_bytes", "bytes", "lower", 0},
	{"guardian.readkey_ns", "ns", "lower", 0},
	{"guardian.readkey_miss_us", "us", "lower", 0},
	{"guardian.recover_entries_read", "count", "lower", 0},
	{"guardian.recover_us_per_entry", "us", "lower", 0},

	{"objindex.get_ns", "ns", "lower", 0},
	{"objindex.install_ns", "ns", "lower", 0},
	{"objindex.hit_ratio", "ratio", "higher", 0},
	{"objindex.installs_per_commit", "count", "lower", 0},
	{"objindex.bytes", "bytes", "lower", 0},
	{"objindex.rebuild_ms", "ms", "lower", 0},

	{"wire.request_codec_ns", "ns", "lower", 0},
	{"wire.response_codec_ns", "ns", "lower", 0},
	{"wire.codec_allocs", "count", "lower", 0},
	{"wire.bytes_per_op", "bytes", "lower", 0},

	{"server.ping_rtt_us", "us", "lower", 0},
	{"server.ping_batch16_us", "us", "lower", 0},
	{"server.invoke_overhead_us", "us", "lower", 0},
	{"net.bytes_in_per_op", "bytes", "lower", 0},
	{"net.bytes_out_per_op", "bytes", "lower", 0},
	{"net.server_reads_per_op", "count", "lower", 0},
	{"net.server_writes_per_op", "count", "lower", 0},

	{"client.txn_begin_us", "us", "lower", 0},
	{"client.txn_invoke_us", "us", "lower", 0},
	{"client.txn_commit_us", "us", "lower", 0},
	{"twopc.forces_per_txn", "count", "lower", 0},
	{"shard.owner_ns", "ns", "lower", 0},

	{"proc.cpu_us_per_op", "us", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
	{"host.other_cpu_share", "ratio", "lower", 0},

	{"budget.unattributed_us", "us", "lower", 0},
}
