package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Every span is recorded by the benchmark's own code around
// a call into a layer; nothing inside the program is instrumented.
const (
	spanCall      = "client.call"  // one served (or in-process) operation, root
	spanTxn       = "client.txn"   // one cross-shard transaction, root
	spanTxnBegin  = "txn_begin"    // child of client.txn
	spanTxnInvoke = "txn_invoke"   // child of client.txn, one per leg
	spanTxnCommit = "txn_commit"   // child of client.txn: client-driven 2PC
	spanDevWrite  = "device.write" // one metered WriteBlock
)

// maxSpans bounds the spans kept for the trace file. The aggregate
// meters (counts, write-time samples) cover every operation; the span
// list is a sample from the start of the traced slices, enough to read
// a commit's shape without writing hundreds of megabytes.
const maxSpans = 200_000

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch. Parent is the index of the causing span, -1 for a root. Op is
// the operation the span belongs to (shared by a root and its
// children), -1 when unknown.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. It records only
// while on is set, which the runner does for the traced slices.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	ops atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// enabled reports whether spans are being recorded. A nil tracer never
// records, so the untraced pass pays one nil check per call.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// nextOp allocates an operation id.
func (t *tracer) nextOp() int64 { return t.ops.Add(1) }

// add records one span and returns its index, or -1 once the sample is
// full.
func (t *tracer) add(name string, start, end time.Time, parent int32, op int64) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	t.spans = append(t.spans, span{
		Name:   name,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		End:    end.Sub(t.epoch).Nanoseconds(),
		Parent: parent,
		Op:     op,
	})
	return int32(len(t.spans) - 1)
}

// setEnd closes a span that was added before its end was known (a root
// whose children need its index). A negative id is ignored.
func (t *tracer) setEnd(id int32, end time.Time) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end.Sub(t.epoch).Nanoseconds()
}

// adopt parents every orphan device.write span to the root span whose
// interval contains it. That is only meaningful when one operation runs
// at a time (the single-client workloads); with overlapping roots a
// device write serves several operations at once and stays an orphan.
func (t *tracer) adopt() {
	t.mu.Lock()
	defer t.mu.Unlock()
	var roots []int
	for i, s := range t.spans {
		if s.Parent == -1 && s.Name != spanDevWrite {
			roots = append(roots, i)
		}
	}
	sort.Slice(roots, func(a, b int) bool { return t.spans[roots[a]].Start < t.spans[roots[b]].Start })
	for i := 1; i < len(roots); i++ {
		if t.spans[roots[i]].Start < t.spans[roots[i-1]].End {
			return // overlapping roots: containment is ambiguous
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != spanDevWrite || s.Parent != -1 {
			continue
		}
		// Last root starting at or before the write.
		j := sort.Search(len(roots), func(k int) bool { return t.spans[roots[k]].Start > s.Start }) - 1
		if j >= 0 && t.spans[roots[j]].End >= s.End {
			s.Parent = int32(roots[j])
			s.Op = t.spans[roots[j]].Op
		}
	}
}

// times returns, per span name, each span's duration and its self time
// in nanoseconds: the duration minus the part covered by its direct
// children.
func (t *tracer) times() (total, self map[string][]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	total, self = make(map[string][]int64), make(map[string][]int64)
	for i, s := range t.spans {
		total[s.Name] = append(total[s.Name], s.End-s.Start)
		self[s.Name] = append(self[s.Name], s.End-s.Start-child[i])
	}
	return total, self
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Capped   bool   `json:"capped"`
	Spans    []span `json:"spans"`
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Capped: len(t.spans) >= maxSpans, Spans: t.spans}
	t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
