package stablelog

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stable"
)

// refLog is the uncached reference reader: it serves a log's durable
// bytes straight from the store, one Store.ReadPage per page touched
// per call — the read path as it was before the page cursor — and is
// the oracle the cursor is checked against. Test-only.
type refLog struct {
	store   *stable.Store
	durable uint64
}

// bytes returns the n durable bytes at off, or nil if the range runs
// past the durable boundary or past what the store holds.
func (r refLog) bytes(off uint64, n int) ([]byte, error) {
	if off+uint64(n) > r.durable {
		return nil, nil
	}
	out := make([]byte, 0, n)
	ps := uint64(r.store.PageSize())
	for len(out) < n {
		data, err := r.store.ReadPage(firstDataPage + int(off/ps))
		if err != nil {
			return nil, err
		}
		in := off % ps
		if uint64(len(data)) <= in {
			return nil, nil
		}
		take := min(uint64(n-len(out)), uint64(len(data))-in)
		out = append(out, data[in:in+take]...)
		off += take
	}
	return out, nil
}

// frame is Log.readFrame over the reference bytes.
func (r refLog) frame(lsn LSN) ([]byte, uint32, error) {
	hdr, err := r.bytes(uint64(lsn), frameHeaderSize)
	if err != nil {
		return nil, 0, err
	}
	h, ok := decodeHeader(hdr)
	if !ok {
		return nil, 0, ErrNoEntry
	}
	payload, err := r.bytes(uint64(lsn)+frameHeaderSize, int(h.plen))
	if err != nil {
		return nil, 0, err
	}
	if payload == nil || !h.seals(payload) {
		return nil, 0, ErrNoEntry
	}
	return payload, h.prevLen, nil
}

// checkAgainstReference compares every read the log offers over its
// durable prefix with the reference reader: Read, a Reader's ReadAppend
// and Prev at every byte offset (frame boundary or not), the backward
// scans from Top, and the raw run replication would ship. The log must
// be fully forced.
func checkAgainstReference(t *testing.T, l *Log) {
	t.Helper()
	ref := refLog{store: l.store, durable: l.durable}
	if l.tail != l.durable {
		t.Fatalf("log has %d unforced bytes", l.tail-l.durable)
	}
	rd := l.NewReader()
	defer rd.Close()
	for off := uint64(0); off < ref.durable; off++ {
		want, wantPrev, wantErr := ref.frame(LSN(off))
		got, err := l.Read(LSN(off))
		if !errors.Is(err, wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("Read(%d) = (%q, %v), reference (%q, %v)", off, got, err, want, wantErr)
		}
		if got, err := rd.ReadAppend(nil, LSN(off)); !errors.Is(err, wantErr) || !bytes.Equal(got, want) {
			t.Fatalf("Reader.ReadAppend(%d) = (%q, %v), reference (%q, %v)", off, got, err, want, wantErr)
		}
		if wantErr != nil {
			continue
		}
		wantLSN := NoLSN
		if wantPrev != 0 {
			wantLSN = LSN(off - uint64(wantPrev))
		}
		if prev, err := l.Prev(LSN(off)); err != nil || prev != wantLSN {
			t.Fatalf("Prev(%d) = (%v, %v), reference %v", off, prev, err, wantLSN)
		}
	}
	for _, scan := range []struct {
		name string
		read func(LSN, func(LSN, []byte) bool) error
	}{{"ReadBackward", l.ReadBackward}, {"Reader.ReadBackward", rd.ReadBackward}} {
		lsn := l.Top()
		err := scan.read(lsn, func(at LSN, payload []byte) bool {
			want, prevLen, err := ref.frame(at)
			if at != lsn || err != nil || !bytes.Equal(payload, want) {
				t.Fatalf("%s visited (%v, %q), reference at %v is (%q, %v)", scan.name, at, payload, lsn, want, err)
			}
			lsn = NoLSN
			if prevLen != 0 {
				lsn = LSN(uint64(at) - uint64(prevLen))
			}
			return true
		})
		if err != nil || lsn != NoLSN {
			t.Fatalf("%s stopped at %v: %v", scan.name, lsn, err)
		}
	}
	if ref.durable == 0 {
		return
	}
	want, err := ref.bytes(0, int(ref.durable))
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []int{1, 100, int(ref.durable) + 1} {
		for from := uint64(0); from < ref.durable; {
			raw, _, err := l.ReadRaw(from, max)
			if err != nil || len(raw) == 0 || !bytes.Equal(raw, want[from:from+uint64(len(raw))]) {
				t.Fatalf("ReadRaw(%d, %d) = (%x, %v), reference %x", from, max, raw, err, want[from:])
			}
			from += uint64(len(raw))
		}
	}
}

// checkCursor asserts that whatever the cursor holds is a non-empty
// prefix of what the store holds for that page: no error, empty or
// stale page is ever left cached.
func checkCursor(t *testing.T, l *Log) {
	t.Helper()
	for i, no := range l.pages.no {
		if no == 0 {
			continue
		}
		held := l.pages.data[i]
		data, err := l.store.ReadPage(no)
		if err != nil {
			t.Fatalf("cursor holds page %d, which the store cannot read: %v", no, err)
		}
		if len(held) == 0 || !bytes.HasPrefix(data, held) {
			t.Fatalf("cursor holds %x for page %d, store has %x", held, no, data)
		}
	}
}

// entry is a self-describing payload: its index, then a body that is a
// function of the index and varies in length, so frames straddle page
// boundaries at every alignment.
func entry(i int) []byte {
	return append([]byte(fmt.Sprintf("%06d:", i)), bytes.Repeat([]byte{byte('a' + i%26)}, (i*7)%90)...)
}

// entryIndex recovers i from entry(i) and fails unless the payload is
// exactly that entry.
func entryIndex(t *testing.T, payload []byte) int {
	t.Helper()
	var i int
	if _, err := fmt.Sscanf(string(payload), "%06d:", &i); err != nil || !bytes.Equal(payload, entry(i)) {
		t.Fatalf("payload %q is not an entry (%v)", payload, err)
	}
	return i
}

// faultFirstRead returns a plan injecting rf on the first read of block.
func faultFirstRead(block int, rf stable.ReadFault) stable.FaultPlan {
	done := false
	return stable.ReadFaultFunc(func(b int) stable.ReadFault {
		if b != block || done {
			return stable.ReadFaultNone
		}
		done = true
		return rf
	})
}

// faulted is a log reopened cold over devices a and b, scanned backward
// once with read-fault plans armed.
type faulted struct {
	l       *Log
	a, b    *stable.MemDevice
	repairs int   // device writes the scan caused (read-repair; the log wrote nothing)
	seen    int   // entries the scan visited, each checked to be the one written there
	err     error // what the scan returned
}

// faultedScan builds a forced log of faultEntries entries over several
// pages, reopens it, arms the plans, and scans backward from Top.
func faultedScan(t *testing.T, planA, planB stable.FaultPlan) faulted {
	t.Helper()
	l, a, b := freshLog(t, 128)
	for i := 0; i < faultEntries; i++ {
		if _, err := l.Write(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	f := faulted{l: reopen(t, a, b), a: a, b: b}
	a.SetPlan(planA)
	b.SetPlan(planB)
	before := a.Writes() + b.Writes()
	f.seen, f.err = scanBackward(t, f.l, faultEntries)
	f.repairs = a.Writes() + b.Writes() - before
	return f
}

// scanBackward scans from Top expecting entries n-1, n-2, … and returns
// how many it saw before the scan ended.
func scanBackward(t *testing.T, l *Log, n int) (int, error) {
	t.Helper()
	seen := 0
	err := l.ReadBackward(l.Top(), func(_ LSN, payload []byte) bool {
		if i := entryIndex(t, payload); i != n-1-seen {
			t.Fatalf("backward scan visited entry %d, want %d", i, n-1-seen)
		}
		seen++
		return true
	})
	return seen, err
}

const (
	faultEntries = 40
	faultPage    = firstDataPage + 5 // mid-log: the scan is well under way when it gets here
)

// TestCursorTransientReadFault: a soft read error inside a backward
// scan. On one copy the scan does not notice (ReadPage serves the
// sibling and rewrites the copy that failed); on both copies the scan
// returns the store's error, leaves nothing of the page in the cursor,
// and a retry — the blocks are intact — reads the whole log.
func TestCursorTransientReadFault(t *testing.T) {
	f := faultedScan(t, faultFirstRead(faultPage, stable.ReadFaultTransient), nil)
	if f.err != nil || f.seen != faultEntries {
		t.Fatalf("single transient fault: scan saw %d of %d entries, err %v", f.seen, faultEntries, f.err)
	}
	if f.repairs != 1 || f.a.Bad(faultPage) {
		t.Fatalf("single transient fault: %d repair writes, want the failed copy rewritten once", f.repairs)
	}
	checkCursor(t, f.l)

	f = faultedScan(t, faultFirstRead(faultPage, stable.ReadFaultTransient), faultFirstRead(faultPage, stable.ReadFaultTransient))
	if !errors.Is(f.err, stable.ErrDataLoss) || !strings.HasPrefix(f.err.Error(), "stablelog: backward read at L") {
		t.Fatalf("double transient fault: err = %v, want the store's ErrDataLoss under the scan's prefix", f.err)
	}
	if f.seen == 0 || f.seen == faultEntries {
		t.Fatalf("double transient fault: scan saw %d entries, want a proper newest part of %d", f.seen, faultEntries)
	}
	if f.repairs != 0 {
		t.Fatalf("double transient fault: %d device writes for a page with no readable copy", f.repairs)
	}
	checkCursor(t, f.l)
	if seen, err := scanBackward(t, f.l, faultEntries); err != nil || seen != faultEntries {
		t.Fatalf("retry after transient fault: scan saw %d of %d entries, err %v", seen, faultEntries, err)
	}
	checkCursor(t, f.l)
	checkAgainstReference(t, f.l)
}

// TestCursorDecayReadFault: media failure discovered by a backward
// scan. Decay of one copy is invisible to the scan and read-repaired by
// ReadPage; decay of both is data loss on every attempt, never cached,
// and the scan stops at the same entry each time.
func TestCursorDecayReadFault(t *testing.T) {
	f := faultedScan(t, faultFirstRead(faultPage, stable.ReadFaultDecay), nil)
	if f.err != nil || f.seen != faultEntries {
		t.Fatalf("single decay: scan saw %d of %d entries, err %v", f.seen, faultEntries, f.err)
	}
	if f.repairs != 1 || f.a.Bad(faultPage) {
		t.Fatalf("single decay: %d repair writes, want the decayed copy rewritten from its sibling", f.repairs)
	}
	checkCursor(t, f.l)
	checkAgainstReference(t, f.l)

	f = faultedScan(t, faultFirstRead(faultPage, stable.ReadFaultDecay), faultFirstRead(faultPage, stable.ReadFaultDecay))
	if !errors.Is(f.err, stable.ErrDataLoss) {
		t.Fatalf("double decay: err = %v, want ErrDataLoss", f.err)
	}
	if !f.a.Bad(faultPage) || !f.b.Bad(faultPage) {
		t.Fatal("double decay: a lost page was papered over")
	}
	for _, no := range f.l.pages.no {
		if no == faultPage {
			t.Fatal("the lost page is in the cursor")
		}
	}
	checkCursor(t, f.l)
	again, err := scanBackward(t, f.l, faultEntries)
	if !errors.Is(err, stable.ErrDataLoss) || again != f.seen {
		t.Fatalf("retry after double decay: saw %d entries (first scan %d), err %v", again, f.seen, err)
	}
}

// TestCursorShortPageReloads pins the "short, never stale" rule: the
// tail page is cached while it holds one entry, more entries become
// durable in the same page, and each is readable — through every
// reader — as soon as its force returns.
func TestCursorShortPageReloads(t *testing.T) {
	l, _, _ := freshLog(t, 512)
	for i := 0; i < 12; i++ {
		lsn, err := l.ForceWrite(entry(i))
		if err != nil {
			t.Fatal(err)
		}
		// Each of these caches the tail page at its current length.
		got, err := l.Read(lsn)
		if err != nil || !bytes.Equal(got, entry(i)) {
			t.Fatalf("Read(entry %d) right after its force = (%q, %v)", i, got, err)
		}
		raw, _, err := l.ReadRaw(uint64(lsn), 1)
		if err != nil || !bytes.Equal(raw[frameHeaderSize:], entry(i)) {
			t.Fatalf("ReadRaw(entry %d) right after its force = (%q, %v)", i, raw, err)
		}
		if seen, err := scanBackward(t, l, i+1); err != nil || seen != i+1 {
			t.Fatalf("backward scan after force %d saw %d entries, err %v", i, seen, err)
		}
		checkCursor(t, l)
	}
	checkAgainstReference(t, l)
}

// TestCursorDropsBytesBeyondTheTail: a force crashes after laying down
// the first page of a frame that spans three, so the reopened log's
// tail page carries bytes beyond the durable boundary — through Open
// (superblock intact: the tail-image read) and through the salvage scan
// (superblock lost: the scan reads the torn frame's header). The next
// force overwrites those bytes; the cursor must not have kept them.
func TestCursorDropsBytesBeyondTheTail(t *testing.T) {
	for _, loseSuper := range []bool{false, true} {
		l, a, b := freshLog(t, 128)
		for i := 0; i < 4; i++ {
			if _, err := l.Write(entry(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Force(); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Write(bytes.Repeat([]byte{0xEE}, 250)); err != nil {
			t.Fatal(err)
		}
		a.SetPlan(stable.CrashAfter(2)) // the tail page lands on both devices, the next one tears
		if err := l.Force(); !errors.Is(err, stable.ErrCrashed) {
			t.Fatalf("torn force: err = %v, want ErrCrashed", err)
		}
		if loseSuper {
			a.Decay(superPage)
			b.Decay(superPage)
		}
		l = reopen(t, a, b)
		if n := l.Entries(); n != 4 {
			t.Fatalf("loseSuper=%v: reopened with %d entries, want the 4 acknowledged", loseSuper, n)
		}
		lsn, err := l.ForceWrite(entry(4))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := l.Read(lsn); err != nil || !bytes.Equal(got, entry(4)) {
			t.Fatalf("loseSuper=%v: entry forced over the torn frame reads back (%q, %v)", loseSuper, got, err)
		}
		checkCursor(t, l)
		checkAgainstReference(t, l)
	}
}

// TestCursorCoherentUnderConcurrency runs the log's four kinds of
// reader beside an appender and a forcer that keep extending the tail
// page (run it under -race). Every read must return exactly the payload
// written at that address, and an entry must be readable the moment its
// force returns even though readers cached its page while it was
// shorter.
func TestCursorCoherentUnderConcurrency(t *testing.T) {
	const total = 2000
	l, _, _ := freshLog(t, 128)
	lsns := make([]LSN, total)
	var published atomic.Int64 // lsns[i] is set for every i below this
	// at reports whether entry i was written at lsn, as far as the
	// appender has said yet (a force can outrun its bookkeeping).
	at := func(i int, lsn LSN) bool {
		return int64(i) >= published.Load() || lsns[i] == lsn
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	run := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}

	run(func() { // appender; forces some of its own entries and reads them straight back
		defer done.Store(true)
		for i := 0; i < total; i++ {
			lsn, err := l.Write(entry(i))
			if err != nil {
				t.Errorf("Write(entry %d): %v", i, err)
				return
			}
			lsns[i] = lsn
			published.Store(int64(i + 1))
			if i%3 != 0 {
				continue
			}
			if err := l.ForceTo(lsn); err != nil {
				t.Errorf("ForceTo(entry %d): %v", i, err)
				return
			}
			if got, err := l.Read(lsn); err != nil || !bytes.Equal(got, entry(i)) {
				t.Errorf("Read(entry %d) right after its force = (%q, %v)", i, got, err)
				return
			}
			if raw, _, err := l.ReadRaw(uint64(lsn), 1); err != nil || !bytes.Equal(raw[frameHeaderSize:], entry(i)) {
				t.Errorf("ReadRaw(entry %d) right after its force = (%q, %v)", i, raw, err)
				return
			}
		}
	})
	run(func() { // forcer
		for !done.Load() {
			if err := l.Force(); err != nil {
				t.Errorf("Force: %v", err)
				return
			}
			runtime.Gosched()
		}
	})
	run(func() { // old addresses, as housekeeping reads them
		rng := rand.New(rand.NewSource(1))
		for !done.Load() {
			n := int(published.Load())
			if n == 0 {
				runtime.Gosched()
				continue
			}
			i := rng.Intn(n)
			if got, err := l.Read(lsns[i]); err != nil || !bytes.Equal(got, entry(i)) {
				t.Errorf("Read(entry %d @ %v) = (%q, %v)", i, lsns[i], got, err)
				return
			}
		}
	})
	run(func() { // backward from Top, as recovery reads
		for !done.Load() {
			next, steps := -1, 0
			err := l.ReadBackward(l.Top(), func(lsn LSN, payload []byte) bool {
				i := entryIndex(t, payload)
				if next >= 0 && i != next {
					t.Errorf("backward scan visited entry %d, want %d", i, next)
				}
				if !at(i, lsn) {
					t.Errorf("backward scan found entry %d at %v, written elsewhere", i, lsn)
				}
				next = i - 1
				steps++
				return steps < 64 && !t.Failed()
			})
			if err != nil {
				t.Errorf("ReadBackward: %v", err)
			}
			if t.Failed() {
				return
			}
		}
	})
	run(func() { // backward through a Reader, handing its cursor back each time
		for !done.Load() {
			top := l.Top()
			rd := l.NewReader()
			next, steps := -1, 0
			err := rd.ReadBackward(top, func(lsn LSN, payload []byte) bool {
				i := entryIndex(t, payload)
				if next >= 0 && i != next {
					t.Errorf("Reader scan visited entry %d, want %d", i, next)
				}
				if !at(i, lsn) {
					t.Errorf("Reader scan found entry %d at %v, written elsewhere", i, lsn)
				}
				next = i - 1
				steps++
				return steps < 64 && !t.Failed()
			})
			rd.Close()
			if err != nil {
				t.Errorf("Reader.ReadBackward: %v", err)
			}
			if t.Failed() {
				return
			}
		}
	})
	run(func() { // raw runs from a moving cursor, as replication ships
		var (
			from    uint64
			lastLen uint32
			next    int
		)
		for next < total && !t.Failed() {
			if durable, _ := l.TailInfo(); from >= durable { // caught up
				if done.Load() {
					if err := l.Force(); err != nil {
						t.Errorf("Force: %v", err)
						return
					}
				}
				runtime.Gosched()
				continue
			}
			raw, prevLen, err := l.ReadRaw(from, 300)
			if err != nil || prevLen != lastLen {
				t.Errorf("ReadRaw(%d) = back-chain %d, %v; want back-chain %d", from, prevLen, err, lastLen)
				return
			}
			frames, err := ParseFrames(from, prevLen, raw)
			if err != nil {
				t.Errorf("ReadRaw(%d) shipped a run that does not parse: %v", from, err)
				return
			}
			for _, f := range frames {
				if i := entryIndex(t, f.Payload); i != next || !at(i, f.LSN) {
					t.Errorf("raw run carries entry %d at %v, want entry %d", i, f.LSN, next)
					return
				}
				next++
				lastLen = uint32(frameHeaderSize + len(f.Payload))
			}
			from += uint64(len(raw))
		}
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
	checkCursor(t, l)
	if seen, err := scanBackward(t, l, total); err != nil || seen != total {
		t.Fatalf("final scan saw %d of %d entries, err %v", seen, total, err)
	}
}

// volumeImage renders both devices of a store, block by block, as text.
func volumeImage(t *testing.T, a, b *stable.MemDevice) string {
	t.Helper()
	var sb strings.Builder
	for _, dev := range []struct {
		name string
		d    *stable.MemDevice
	}{{"a", a}, {"b", b}} {
		for i := 0; i < dev.d.NumBlocks(); i++ {
			blk, err := dev.d.ReadBlock(i)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%s %d %s\n", dev.name, i, hex.EncodeToString(blk))
		}
	}
	return sb.String()
}

// formatHistory is the fixed history of the durable-format test: 30
// entries, forced in uneven batches so pages are rewritten as they fill.
func formatHistory(t *testing.T, l *Log) {
	t.Helper()
	for i := 0; i < 30; i++ {
		if _, err := l.Write(entry(i)); err != nil {
			t.Fatal(err)
		}
		if i%4 == 2 {
			if err := l.Force(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Force(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableFormatUnchanged: testdata/volume_parent.txt is the device
// image the commit before the page cursor wrote for formatHistory. This
// tree must write the same bytes (so that commit opens what this one
// writes) and must recover the history from that image (so this one
// opens what that commit wrote).
func TestDurableFormatUnchanged(t *testing.T) {
	golden, err := os.ReadFile("testdata/volume_parent.txt")
	if err != nil {
		t.Fatal(err)
	}
	l, a, b := freshLog(t, 128)
	formatHistory(t, l)
	if got := volumeImage(t, a, b); got != string(golden) {
		t.Fatalf("device image differs from the parent commit's:\n%s\nwant:\n%s", got, golden)
	}

	a = stable.NewMemDevice(128, nil)
	b = stable.NewMemDevice(128, nil)
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		var (
			name  string
			block int
			data  string
		)
		if _, err := fmt.Sscanf(line, "%s %d %s", &name, &block, &data); err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		raw, err := hex.DecodeString(data)
		if err != nil {
			t.Fatal(err)
		}
		dev := a
		if name == "b" {
			dev = b
		}
		if err := dev.WriteBlock(block, raw); err != nil {
			t.Fatal(err)
		}
	}
	l = reopen(t, a, b)
	if n := l.Entries(); n != 30 {
		t.Fatalf("parent's volume opened with %d entries, want 30", n)
	}
	if seen, err := scanBackward(t, l, 30); err != nil || seen != 30 {
		t.Fatalf("scan of parent's volume saw %d of 30 entries, err %v", seen, err)
	}
	checkAgainstReference(t, l)
}
