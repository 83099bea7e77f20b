// Package stablelog implements the stable log abstraction of thesis
// §3.1: an append-only array of entries addressed by log addresses
// (LSNs), layered on atomic stable storage (package stable).
//
// The abstraction's operations map to the thesis's interface as follows
// ([Raible 83] operations in parentheses):
//
//	Write       (write)         — buffered append; durable only after a force
//	ForceWrite  (force_write)   — append and force this and all older entries
//	Read        (read)          — entry at a given log address
//	ReadAppend  (read)          — the same, into a caller's buffer
//	ReadBackward(read_backward) — iterate entries backward from an address
//	Top         (get_top)       — address of the last forced entry
//	CreateSite / Site.Destroy (create/destroy)
//
// Entries are framed with a length, a back-pointer to the previous
// frame, and a CRC; a crash can lose buffered (unforced) entries and at
// worst leave a torn tail, which Open detects and discards. Each
// guardian has its own log (§3.1); housekeeping (thesis ch. 5) replaces
// the log with a new one "in one atomic step", which Site implements
// with a generation pointer held on its own stable page.
package stablelog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/stable"
)

// LSN is a log address: the byte offset of an entry's frame in the log.
type LSN uint64

// NoLSN is the nil log address (used, e.g., as the chain terminator of
// the hybrid log's backward chain of outcome entries).
const NoLSN LSN = ^LSN(0)

func (l LSN) String() string {
	if l == NoLSN {
		return "L<nil>"
	}
	return fmt.Sprintf("L%d", uint64(l))
}

const (
	frameMagic      = 0xA7
	frameHeaderSize = 1 + 4 + 4 + 4 // magic, payload len, prev frame len, crc

	// superPage is the store page holding the log's superblock: the
	// durable byte count and the address of the last forced entry. It
	// is rewritten (atomically, like any stable page) at the end of
	// every force, which is what makes get_top O(1) — the stable log
	// abstraction is "presumably implemented in an efficient way"
	// (§3.1). Log bytes start at page 1.
	superPage     = 0
	firstDataPage = 1
	superSize     = 8 + 8 + 4 // durable bytes, last entry LSN, last frame len
)

// MaxEntry bounds one entry's payload. Replication ships whole frames
// and can never split one (ReadRaw always returns at least one frame),
// so a frame must fit a single rep.append request within the wire
// layer's 1 MiB payload bound with room for the frame header and the
// message envelopes — otherwise the entry could be written and forced
// locally but never replicated, wedging every subsequent quorum wait.
// The 1 KiB of slack comfortably covers those headers; a test in
// internal/replog pins the arithmetic against wire.MaxPayload.
const MaxEntry = 1<<20 - 1024

// ErrEntryTooLarge is returned by Write and ForceWrite for a payload
// exceeding MaxEntry.
var ErrEntryTooLarge = errors.New("stablelog: entry exceeds MaxEntry")

// ErrNoEntry is returned by Read for an address that does not hold an
// entry.
var ErrNoEntry = errors.New("stablelog: no entry at address")

// Log is one guardian's stable log. All methods are safe for concurrent
// use; the thesis assumes recovery-system operations are sequential
// (§2.3), but housekeeping reads the old log while writes continue, and
// independent actions append and await forces concurrently.
type Log struct {
	// forceMu serializes force rounds. A force snapshots the buffered
	// suffix under mu, performs the store I/O with mu released — so
	// appends and reads proceed while the device writes run — and then
	// publishes the new durable boundary under mu. Lock order:
	// forceMu → mu → Store → Device; never the reverse.
	forceMu  sync.Mutex
	mu       sync.Mutex
	store    *stable.Store
	pageSize int

	durable  uint64 // byte offset up to which the store holds the log
	tail     uint64 // next append offset (durable + buffered)
	buf      []byte // appended but unforced bytes [durable, tail)
	tailImg  []byte // contents of the partially filled durable page
	lastLSN  LSN    // address of the most recently appended entry
	last     uint32 // frame length of the most recently appended entry
	forced   LSN    // address of the last entry known forced
	nEntries int    // appended entries (including buffered)
	nForces  int    // force operations performed (statistics)
	pages    pageCursor

	// sched coalesces concurrent ForceTo waiters into shared force
	// rounds (see scheduler.go).
	sched forceScheduler

	// tr receives append and force events; nil (the default) traces
	// nothing. Guarded by mu; emission sites capture it under mu and
	// emit after unlocking where practical, so a sink never runs
	// inside the log's locks except on the append path.
	tr obs.Tracer

	// rep, when non-nil, extends ForceTo with a replica quorum wait
	// after local durability (see rep.go). Guarded by mu; the wait
	// itself runs with every log lock released.
	rep Replicator
}

// SetTracer installs (or, with nil, removes) the log's event tracer
// and emits a log.open event carrying the current durable boundary, so
// a stream consumer — in particular obs.Checker's force-barrier rule —
// learns the boundary that subsequent appends and forces start from.
// It is called on a fresh log, on a log reopened after a crash, and on
// the new generation installed by a housekeeping switch.
func (l *Log) SetTracer(tr obs.Tracer) {
	l.mu.Lock()
	l.tr = tr
	durable := l.durable
	l.mu.Unlock()
	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindLogOpen, Durable: durable})
	}
}

// tracer returns the installed tracer (nil for none).
func (l *Log) tracer() obs.Tracer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr
}

// New returns an empty log over a fresh store.
func New(store *stable.Store) *Log {
	l := &Log{
		store:    store,
		pageSize: store.PageSize(),
		lastLSN:  NoLSN,
		forced:   NoLSN,
		tailImg:  make([]byte, store.PageSize()),
	}
	l.sched.cond = sync.NewCond(&l.sched.mu)
	return l
}

// Open reconstructs a log from a store after a crash. Buffered entries
// that were never forced are gone: the superblock — rewritten at the
// end of every force — names the durable prefix, and anything beyond it
// (including a torn tail from a crash mid-force) is discarded. The
// store itself must already have been repaired (stable.Store.Recover).
//
// If the superblock itself is lost on both devices (double decay), the
// log is salvaged instead: the superblock is redundant with the frame
// chain, so a forward scan over the data pages rebuilds the durable
// prefix frame by frame, stopping at the first torn or unreadable
// frame, and rewrites the superblock.
func Open(store *stable.Store) (*Log, error) {
	l := New(store)
	sb, err := store.ReadPage(superPage)
	if err != nil {
		if errors.Is(err, stable.ErrDataLoss) {
			return salvageOpen(store)
		}
		return nil, err
	}
	if len(sb) < superSize {
		// Never forced: the log is empty.
		return l, nil
	}
	off := binary.LittleEndian.Uint64(sb[0:8])
	lastLSN := LSN(binary.LittleEndian.Uint64(sb[8:16]))
	last := binary.LittleEndian.Uint32(sb[16:20])
	l.durable = off
	l.tail = off
	l.lastLSN = lastLSN
	l.last = last
	l.forced = lastLSN
	l.nEntries = -1 // unknown without a scan; counted lazily below
	// Rebuild the partial tail page image so the next flush preserves
	// the bytes that precede the append point within that page.
	pageStart := off - off%uint64(l.pageSize)
	if off > pageStart {
		img, ok, err := l.appendAt(nil, pageStart, int(off-pageStart), off)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("stablelog: superblock names %d durable bytes but tail page is short", off)
		}
		copy(l.tailImg, img)
	}
	return l, nil
}

// salvageOpen rebuilds a log whose superblock is lost on both devices.
// Frames are laid down contiguously from byte 0 of the first data page,
// each self-describing (magic, lengths, CRC) and back-chained by the
// previous frame's length, so the durable prefix is reconstructible by
// a forward scan: accept frames while they validate, stop at the first
// hole. A complete suffix whose superblock write was interrupted is
// thereby resurrected — the crash-during-force ambiguity is resolved as
// "the force happened", which is always safe (forces are not
// acknowledged to clients until the superblock lands, and replaying a
// complete unacknowledged suffix only adds entries the upper layer
// wrote itself). The scan then heals the superblock.
func salvageOpen(store *stable.Store) (*Log, error) {
	l := New(store)
	ps := uint64(l.pageSize)
	limit := uint64(0)
	if n := store.NumPages(); n > firstDataPage {
		limit = uint64(n-firstDataPage) * ps
	}
	var (
		off     uint64
		prevLen uint32
		payload []byte
	)
	l.nEntries = 0
	// The scan treats every written page as candidate log: nothing is
	// known durable yet, so nothing is clipped or served from buf.
	l.durable, l.tail = limit, limit
	for {
		h, p, ok, err := l.frameAt(payload[:0], off)
		if err != nil || !ok || h.prevLen != prevLen {
			// Hole, lost page, end of extent, torn frame, or a
			// back-chain mismatch (stale bytes, not a live frame): the
			// durable prefix ends here.
			break
		}
		payload = p
		l.lastLSN = LSN(off)
		l.last = uint32(h.size())
		prevLen = l.last
		off += h.size()
		l.nEntries++
	}
	l.durable = off
	l.tail = off
	l.forced = l.lastLSN
	// The scan cached pages whole, beyond what it accepted; those bytes
	// will be overwritten by the next force, so they must not stay.
	l.pages = pageCursor{}
	pageStart := off - off%ps
	if off > pageStart {
		img, ok, err := l.appendAt(nil, pageStart, int(off-pageStart), off)
		if err != nil || !ok {
			return nil, fmt.Errorf("stablelog: salvage cannot reread tail page at %d: %v", pageStart, err)
		}
		copy(l.tailImg, img)
	}
	var sb [superSize]byte
	binary.LittleEndian.PutUint64(sb[0:8], l.tail)
	binary.LittleEndian.PutUint64(sb[8:16], uint64(l.lastLSN))
	binary.LittleEndian.PutUint32(sb[16:20], l.last)
	if err := store.WritePage(superPage, sb[:]); err != nil {
		return nil, fmt.Errorf("stablelog: salvage cannot heal superblock: %w", err)
	}
	return l, nil
}

// frameCRC is the frame checksum: CRC-32 (IEEE) over the magic byte,
// the two little-endian lengths and the payload.
func frameCRC(plen, prevLen uint32, payload []byte) uint32 {
	return crc32.Update(headerCRC(plen, prevLen), crc32.IEEETable, payload)
}

// headerCRC is crc32.ChecksumIEEE of the frame header's first nine
// bytes, folded a byte at a time through crc32.IEEETable. Passing those
// bytes to crc32 as an array would move the array to the heap, one
// allocation per frame written or read.
func headerCRC(plen, prevLen uint32) uint32 {
	crc := ^uint32(0)
	crc = crc32.IEEETable[byte(crc)^frameMagic] ^ crc>>8
	for _, x := range [2]uint32{plen, prevLen} {
		for i := 0; i < 32; i += 8 {
			crc = crc32.IEEETable[byte(crc)^byte(x>>i)] ^ crc>>8
		}
	}
	return ^crc
}

// frameHeader is a decoded frame header.
type frameHeader struct{ plen, prevLen, crc uint32 }

// decodeHeader decodes the frame header at the start of b; ok is false
// if b is too short to hold one or does not start with the frame magic.
func decodeHeader(b []byte) (h frameHeader, ok bool) {
	if len(b) < frameHeaderSize || b[0] != frameMagic {
		return h, false
	}
	h.plen = binary.LittleEndian.Uint32(b[1:5])
	h.prevLen = binary.LittleEndian.Uint32(b[5:9])
	h.crc = binary.LittleEndian.Uint32(b[9:13])
	return h, true
}

// size is the frame's length in the log, header included.
func (h frameHeader) size() uint64 { return frameHeaderSize + uint64(h.plen) }

// seals reports whether payload is what the header was checksummed over.
func (h frameHeader) seals(payload []byte) bool {
	return frameCRC(h.plen, h.prevLen, payload) == h.crc
}

// cursorPages is how many verified pages a Log keeps. Two is the floor
// (a frame straddling a page boundary thrashes a one-page cache); the
// rest absorb recovery hopping between the outcome chain and the data
// entries it points at.
const cursorPages = 4

// pageCursor is the log's read cache: the payloads of the last few data
// pages Store.ReadPage returned, so that each page is read and verified
// once per scan instead of twice per frame. It rests on one invariant:
// within a Log's lifetime a durable byte offset is written once. The
// buffer is append-only, forceRound re-lays the same prefix of the tail
// page, a refused force retries the same bytes, and a generation switch
// installs a new Log. So a cached page — clipped on load to the durable
// boundary, beyond which an earlier incarnation's bytes may linger —
// can be short but never stale: a read running past the cached length
// reloads it, and nothing else ever invalidates. Guarded by Log.mu.
type pageCursor struct {
	no   [cursorPages]int // store page held by each slot; 0 (the superblock) = empty
	data [cursorPages][]byte
	next int // slot the next load replaces
}

// page returns the verified payload of data page no, from the cursor if
// it holds at least need bytes of it and from the store otherwise. The
// result is shorter than need only if the store holds no more; such a
// page, like a failed read, is not cached.
func (l *Log) page(no, need int) ([]byte, error) {
	c := &l.pages
	slot := -1
	for i, held := range c.no {
		if held == no {
			if len(c.data[i]) >= need {
				return c.data[i], nil
			}
			slot = i
			break
		}
	}
	data, err := l.store.ReadPage(no)
	if err != nil {
		return nil, err
	}
	start := uint64(no-firstDataPage) * uint64(l.pageSize)
	if start+uint64(len(data)) > l.durable {
		data = data[:l.durable-start]
	}
	if len(data) < need {
		return data, nil
	}
	if slot < 0 {
		slot, c.next = c.next, (c.next+1)%cursorPages
	}
	c.no[slot], c.data[slot] = no, data
	return data, nil
}

// spanAt hands fn the n log bytes at byte offset off, in order, one
// contiguous run at a time: durable bytes in place from the page
// cursor, bytes past the durable boundary from the append buffer. The
// runs are valid only during the call. ok is false if the range runs
// past limit (at most the tail) or past what the store holds; fn may
// then have seen a prefix of it.
func (l *Log) spanAt(off uint64, n int, limit uint64, fn func([]byte)) (ok bool, err error) {
	if off+uint64(n) > limit {
		return false, nil
	}
	ps := uint64(l.pageSize)
	for n > 0 && off < l.durable {
		in := off % ps
		take := min(uint64(n), ps-in, l.durable-off)
		data, err := l.page(firstDataPage+int(off/ps), int(in+take))
		if err != nil {
			return false, err
		}
		if uint64(len(data)) < in+take {
			return false, nil // page shorter than expected: past the end
		}
		fn(data[in : in+take])
		off += take
		n -= int(take)
	}
	if n > 0 {
		fn(l.buf[off-l.durable:][:n])
	}
	return true, nil
}

// appendAt appends the n log bytes at byte offset off to dst (see
// spanAt).
func (l *Log) appendAt(dst []byte, off uint64, n int, limit uint64) (_ []byte, ok bool, err error) {
	if off+uint64(n) > limit {
		return dst, false, nil
	}
	dst = slices.Grow(dst, n)
	ok, err = l.spanAt(off, n, limit, func(b []byte) { dst = append(dst, b...) })
	return dst, ok, err
}

// headerAt decodes the frame header at byte offset off; ok is false if
// no header lies there below limit.
func (l *Log) headerAt(off, limit uint64) (h frameHeader, ok bool, err error) {
	var b [frameHeaderSize]byte
	hdr, ok, err := l.appendAt(b[:0], off, frameHeaderSize, limit)
	if err != nil || !ok {
		return h, false, err
	}
	h, ok = decodeHeader(hdr)
	return h, ok, nil
}

// frameAt reads the frame at byte offset off, appending its payload to
// dst; ok is false if no whole frame with a good checksum lies there
// below the tail. It is the one frame reader under Read, ReadAppend,
// ReadBackward and the salvage scan.
func (l *Log) frameAt(dst []byte, off uint64) (h frameHeader, payload []byte, ok bool, err error) {
	// Most frames lie whole inside one durable page: decode and check
	// those in place, one cursor lookup per frame. Anything else — a
	// frame straddling pages or the durable boundary, a bad header, a
	// cached page shorter than the frame — takes the general path.
	ps := uint64(l.pageSize)
	if in := off % ps; off+frameHeaderSize <= l.durable && in+frameHeaderSize <= ps {
		data, err := l.page(firstDataPage+int(off/ps), int(in+frameHeaderSize))
		if err != nil {
			return h, nil, false, err
		}
		if uint64(len(data)) >= in+frameHeaderSize {
			b := data[in:]
			if h, ok := decodeHeader(b); ok && h.size() <= uint64(len(b)) {
				p := b[frameHeaderSize:h.size()]
				if !h.seals(p) {
					return h, nil, false, nil
				}
				return h, append(dst, p...), true, nil
			}
		}
	}
	h, ok, err = l.headerAt(off, l.tail)
	if err != nil || !ok {
		return h, nil, false, err
	}
	payload, ok, err = l.appendAt(dst, off+frameHeaderSize, int(h.plen), l.tail)
	if err != nil || !ok || !h.seals(payload[len(dst):]) {
		return h, nil, false, err
	}
	return h, payload, true, nil
}

// checkFrameAt is frameAt for a reader that wants only the header: it
// checksums the payload in place instead of copying it out. Prev and
// Entries use it.
func (l *Log) checkFrameAt(off uint64) (h frameHeader, ok bool, err error) {
	h, ok, err = l.headerAt(off, l.tail)
	if err != nil || !ok {
		return h, false, err
	}
	crc := headerCRC(h.plen, h.prevLen)
	ok, err = l.spanAt(off+frameHeaderSize, int(h.plen), l.tail, func(b []byte) {
		crc = crc32.Update(crc, crc32.IEEETable, b)
	})
	return h, ok && crc == h.crc, err
}

// Write appends an entry and returns its address. The entry is durable
// only after a subsequent Force/ForceWrite ("the actual writing of the
// data to the stable storage device may not have happened when this
// operation returns", §3.1). Payloads above MaxEntry are refused with
// ErrEntryTooLarge — see the constant for why the bound exists.
func (l *Log) Write(payload []byte) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeLocked(payload)
}

func (l *Log) writeLocked(payload []byte) (LSN, error) {
	if len(payload) > MaxEntry {
		return NoLSN, fmt.Errorf("%w: %d > %d bytes", ErrEntryTooLarge, len(payload), MaxEntry)
	}
	lsn := LSN(l.tail)
	plen := uint32(len(payload))
	prev := uint32(0)
	if l.lastLSN != NoLSN {
		prev = l.last
	}
	// The frame is laid straight into the append buffer, whose capacity
	// survives each force, so a steady append stream allocates nothing.
	size := frameHeaderSize + len(payload)
	l.buf = slices.Grow(l.buf, size)
	l.buf = append(l.buf, frameMagic)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, plen)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, prev)
	l.buf = binary.LittleEndian.AppendUint32(l.buf, frameCRC(plen, prev, payload))
	l.buf = append(l.buf, payload...)
	l.tail += uint64(size)
	l.lastLSN = lsn
	l.last = uint32(size)
	if l.nEntries >= 0 {
		l.nEntries++
	}
	if l.tr != nil {
		l.tr.Emit(obs.Event{Kind: obs.KindLogAppend, LSN: uint64(lsn), Bytes: size})
	}
	return lsn, nil
}

// ForceWrite appends an entry and forces it — and every older buffered
// entry — to stable storage before returning (§3.1). It is Write
// followed by ForceTo, so concurrent ForceWrite callers share force
// rounds through the scheduler.
func (l *Log) ForceWrite(payload []byte) (LSN, error) {
	lsn, err := l.Write(payload)
	if err != nil {
		return NoLSN, err
	}
	if err := l.ForceTo(lsn); err != nil {
		return NoLSN, err
	}
	return lsn, nil
}

// Force flushes all buffered entries to stable storage.
func (l *Log) Force() error {
	l.forceMu.Lock()
	defer l.forceMu.Unlock()
	return l.forceRound()
}

// forceRound performs one device force: it snapshots the buffered
// suffix under mu, writes it to the store with mu released (appends and
// reads continue meanwhile; appendAt never serves past the unchanged
// durable boundary, and the flushed prefix of the tail page keeps its
// byte values), seals the force with the superblock, and publishes the
// new durable boundary. Entries appended after the snapshot stay
// buffered for the next round. Callers hold forceMu, which serializes
// rounds, so the snapshot's prefix of buf is stable throughout.
func (l *Log) forceRound() error {
	l.mu.Lock()
	if len(l.buf) == 0 {
		l.forced = l.lastLSN
		l.mu.Unlock()
		return nil
	}
	snapBuf := l.buf
	snapTail := l.tail
	snapLastLSN := l.lastLSN
	snapLast := l.last
	ps := uint64(l.pageSize)
	start := l.durable
	partial := start % ps
	tr := l.tr
	// Assemble the byte stream from the start of the tail page.
	data := make([]byte, 0, int(partial)+len(snapBuf))
	data = append(data, l.tailImg[:partial]...)
	data = append(data, snapBuf...)
	l.mu.Unlock()

	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindForceStart, LSN: uint64(snapLastLSN),
			Durable: start, Bytes: len(snapBuf)})
	}
	fail := func(err error) error {
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.KindForceDone, LSN: uint64(snapLastLSN),
				Durable: start, Bytes: len(snapBuf), Note: err.Error()})
		}
		return err
	}
	page := firstDataPage + int(start/ps)
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > int(ps) {
			n = int(ps)
		}
		if err := l.store.WritePage(page, data[off:off+n]); err != nil {
			return fail(err)
		}
		off += n
		page++
	}
	// Seal the force with the superblock: once this atomic page write
	// lands, the new prefix is the durable log; if the node crashes
	// first, Open falls back to the previous superblock and the
	// unacknowledged entries vanish, as §2.2.3 requires.
	var sb [superSize]byte
	binary.LittleEndian.PutUint64(sb[0:8], snapTail)
	binary.LittleEndian.PutUint64(sb[8:16], uint64(snapLastLSN))
	binary.LittleEndian.PutUint32(sb[16:20], snapLast)
	if err := l.store.WritePage(superPage, sb[:]); err != nil {
		return fail(err)
	}

	l.mu.Lock()
	l.durable = snapTail
	// Drop the flushed prefix; entries appended during the round remain.
	l.buf = append(l.buf[:0], l.buf[len(snapBuf):]...)
	newPartial := l.durable % ps
	tailStart := len(data) - int(newPartial)
	copy(l.tailImg, data[tailStart:])
	l.forced = snapLastLSN
	l.nForces++
	l.mu.Unlock()
	if tr != nil {
		// Emitted before the scheduler broadcasts the round's
		// completion, so this force.done precedes every outcome it
		// covers in the stream (obs.Checker's R1 relies on that).
		tr.Emit(obs.Event{Kind: obs.KindForceDone, LSN: uint64(snapLastLSN),
			Durable: snapTail, Bytes: len(snapBuf), OK: true})
	}
	return nil
}

// Read returns the entry whose frame starts at address lsn, in a new
// slice the caller owns.
func (l *Log) Read(lsn LSN) ([]byte, error) {
	return l.ReadAppend(nil, lsn)
}

// ReadAppend appends the entry whose frame starts at address lsn to dst
// and returns the extended slice. A scan that passes the same buffer
// back, truncated, reads every entry without allocating.
func (l *Log) ReadAppend(dst []byte, lsn LSN) ([]byte, error) {
	payload, _, err := l.readFrame(dst, lsn)
	return payload, err
}

// readFrame appends the payload at lsn to dst and also returns the
// length of the previous frame (0 if lsn is the first entry).
func (l *Log) readFrame(dst []byte, lsn LSN) ([]byte, uint32, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readFrameLocked(dst, lsn)
}

func (l *Log) readFrameLocked(dst []byte, lsn LSN) ([]byte, uint32, error) {
	if lsn == NoLSN || uint64(lsn) >= l.tail {
		return nil, 0, ErrNoEntry
	}
	h, payload, ok, err := l.frameAt(dst, uint64(lsn))
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, ErrNoEntry
	}
	return payload, h.prevLen, nil
}

// prevLenLocked returns the length of the frame before the one at lsn
// (0 if lsn is the first entry), checking that a whole frame lies at
// lsn without copying its payload.
func (l *Log) prevLenLocked(lsn LSN) (uint32, error) {
	if lsn == NoLSN || uint64(lsn) >= l.tail {
		return 0, ErrNoEntry
	}
	h, ok, err := l.checkFrameAt(uint64(lsn))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoEntry
	}
	return h.prevLen, nil
}

// Top returns the address of the last entry forced to the log, or NoLSN
// if the log is empty (§3.1 get_top).
func (l *Log) Top() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forced
}

// LastAppended returns the address of the most recently appended entry,
// forced or not.
func (l *Log) LastAppended() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// Prev returns the address of the entry preceding lsn, or NoLSN if lsn
// is the first entry.
func (l *Log) Prev(lsn LSN) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	prevLen, err := l.prevLenLocked(lsn)
	if err != nil {
		return NoLSN, err
	}
	if prevLen == 0 {
		return NoLSN, nil
	}
	return LSN(uint64(lsn) - uint64(prevLen)), nil
}

// ReadBackward calls fn for each entry from lsn back to the first entry,
// stopping early if fn returns false (§3.1 read_backward).
//
// The payload fn receives is borrowed: it is valid only until fn
// returns, and the next entry is read into the same buffer. A caller
// that keeps bytes past its callback copies them (an Entry that
// logrec.DecodeInto fills aliases them too). The scan thereby
// allocates nothing per entry.
func (l *Log) ReadBackward(lsn LSN, fn func(lsn LSN, payload []byte) bool) error {
	return readBackward(l.readFrame, lsn, fn)
}

// readBackward is read_backward over a frame reader (Log.readFrame or
// a Reader's lock-free one), reading every payload into one buffer.
func readBackward(read func(dst []byte, lsn LSN) ([]byte, uint32, error), lsn LSN, fn func(lsn LSN, payload []byte) bool) error {
	var buf []byte
	for lsn != NoLSN {
		payload, prevLen, err := read(buf[:0], lsn)
		if err != nil {
			return fmt.Errorf("stablelog: backward read at %v: %w", lsn, err)
		}
		if !fn(lsn, payload) {
			return nil
		}
		if prevLen == 0 {
			return nil
		}
		buf = payload
		lsn = LSN(uint64(lsn) - uint64(prevLen))
	}
	return nil
}

// Entries returns the number of entries in the log (including
// buffered). On a log just reopened after a crash the count is
// determined by a one-time walk of the frame back-chain; recovery
// itself never needs it, so Open defers the walk until asked.
func (l *Log) Entries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nEntries < 0 {
		n := 0
		for lsn := l.lastLSN; lsn != NoLSN; {
			prevLen, err := l.prevLenLocked(lsn)
			if err != nil {
				break
			}
			n++
			if prevLen == 0 {
				break
			}
			lsn = LSN(uint64(lsn) - uint64(prevLen))
		}
		l.nEntries = n
	}
	return l.nEntries
}

// Forces returns how many force operations the log has performed.
func (l *Log) Forces() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nForces
}

// Size returns the log length in bytes (including buffered entries).
func (l *Log) Size() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tail
}
