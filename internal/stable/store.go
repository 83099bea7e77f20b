package stable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
)

// ErrDataLoss is returned when both copies of a page are explicitly bad
// (torn or decayed): the independence assumption of the two-copy
// protocol was violated and the page's contents are gone. Callers must
// surface this loudly — it is never acceptable to paper over it with an
// empty page, which would silently corrupt committed state. It wraps
// ErrBadBlock, so existing bad-block handling still matches.
var ErrDataLoss = fmt.Errorf("stable: page lost on both devices: %w", ErrBadBlock)

// pageHeaderSize is the per-copy on-disk overhead: 8-byte version,
// 4-byte payload length, 4-byte CRC32 of (version, length, payload).
const pageHeaderSize = 8 + 4 + 4

// Store is atomic stable storage: an array of pages whose writes are
// atomic with respect to crashes and single-device failures. Each page
// is represented by one block on each of two devices with independent
// failure modes; WritePage updates "one and then the other" (§1.1), each
// copy carrying a version stamp and checksum.
//
// Invariant maintained by the protocol: at any instant at least one copy
// of each page is good, and a good copy holds either the old or the new
// value in its entirety. Cleanup (run on restart after a crash) repairs
// divergent pairs by copying the newer good copy over its sibling, which
// completes or rolls back the interrupted write.
type Store struct {
	mu   sync.Mutex
	a, b Device
	// versions caches the current version stamp per page so writes can
	// monotonically advance it without a read.
	versions []uint64
}

// NewStore builds stable storage over two devices of equal block size.
// Call Recover before first use if the devices may hold prior state
// (i.e. after a crash); a brand-new pair needs no recovery.
func NewStore(a, b Device) (*Store, error) {
	if a.BlockSize() != b.BlockSize() {
		return nil, fmt.Errorf("stable: mismatched block sizes %d and %d", a.BlockSize(), b.BlockSize())
	}
	if a.BlockSize() <= pageHeaderSize {
		return nil, fmt.Errorf("stable: block size %d too small for page header", a.BlockSize())
	}
	return &Store{a: a, b: b}, nil
}

// PageSize returns the usable payload bytes per page.
func (s *Store) PageSize() int { return s.a.BlockSize() - pageHeaderSize }

// NumPages returns the number of pages ever written (the maximum extent
// of either device).
func (s *Store) NumPages() int {
	n := s.a.NumBlocks()
	if m := s.b.NumBlocks(); m > n {
		n = m
	}
	return n
}

func encodePage(blockSize int, version uint64, payload []byte) []byte {
	buf := make([]byte, blockSize)
	binary.LittleEndian.PutUint64(buf[0:8], version)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(payload)))
	copy(buf[16:], payload)
	crc := crc32.ChecksumIEEE(buf[0:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(buf[12:16], crc)
	return buf
}

// decodePage validates a raw block and returns (version, payload, ok).
// The payload aliases raw — a block ReadBlock handed over is the
// caller's, so a verified page reaches ReadPage's caller without a
// second copy — with its capacity clipped so an append cannot run into
// the block's padding.
func decodePage(raw []byte) (uint64, []byte, bool) {
	if len(raw) < pageHeaderSize {
		return 0, nil, false
	}
	version := binary.LittleEndian.Uint64(raw[0:8])
	length := binary.LittleEndian.Uint32(raw[8:12])
	if int(length) > len(raw)-pageHeaderSize {
		return 0, nil, false
	}
	end := pageHeaderSize + int(length)
	payload := raw[pageHeaderSize:end:end]
	crc := crc32.ChecksumIEEE(raw[0:12])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != binary.LittleEndian.Uint32(raw[12:16]) {
		return 0, nil, false
	}
	return version, payload, true
}

// copyState classifies one device copy of a page.
type copyState uint8

const (
	// copyGood: the block read back and passed its checksum.
	copyGood copyState = iota
	// copyBad: the device reported ErrBadBlock — the block was written
	// but is torn or decayed.
	copyBad
	// copyBlank: the block is missing or holds no validly written page
	// (all zeroes on a fresh device, or scribble that never carried a
	// checksum). Distinct from copyBad: nothing was ever lost here.
	copyBlank
)

// readCopy reads one copy of page i from dev and classifies it. A
// device error other than ErrBadBlock (notably ErrCrashed) is returned
// as err.
func readCopy(dev Device, i int) (version uint64, payload []byte, st copyState, err error) {
	raw, err := dev.ReadBlock(i)
	if err != nil {
		if errors.Is(err, ErrBadBlock) {
			return 0, nil, copyBad, nil
		}
		if i >= dev.NumBlocks() {
			return 0, nil, copyBlank, nil
		}
		return 0, nil, copyBlank, err
	}
	v, p, ok := decodePage(raw)
	if !ok {
		return 0, nil, copyBlank, nil
	}
	return v, p, copyGood, nil
}

// ReadPage returns the payload of page i. It prefers the copy with the
// higher version; if one copy is bad it falls back to the other. A page
// never written reads as an empty payload.
func (s *Store) ReadPage(i int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readPageLocked(i)
}

func (s *Store) readPageLocked(i int) ([]byte, error) {
	if i < 0 {
		return nil, fmt.Errorf("stable: negative page %d", i)
	}
	if i >= s.NumPages() {
		return []byte{}, nil
	}
	va, pa, sa, err := readCopy(s.a, i)
	if err != nil {
		return nil, err
	}
	vb, pb, sb, err := readCopy(s.b, i)
	if err != nil {
		return nil, err
	}
	switch {
	case sa == copyGood && sb == copyGood:
		if vb > va {
			return pb, nil
		}
		return pa, nil
	case sa == copyGood:
		// Read-repair: the read succeeded from one copy only. If the
		// sibling is explicitly bad (torn or decayed), rewrite it from
		// the survivor so a later failure of this copy cannot lose the
		// page. Best-effort: the data in hand is returned regardless.
		if sb == copyBad {
			//roslint:besteffort read-repair; the page is already safely in hand and the next WritePage retries the sibling
			_ = s.b.WriteBlock(i, encodePage(s.b.BlockSize(), va, pa))
		}
		return pa, nil
	case sb == copyGood:
		if sa == copyBad {
			//roslint:besteffort read-repair; the page is already safely in hand and the next WritePage retries the sibling
			_ = s.a.WriteBlock(i, encodePage(s.a.BlockSize(), vb, pb))
		}
		return pb, nil
	case sa == copyBad && sb == copyBad:
		// Both copies were written and both are bad: the independence
		// assumption was violated and the page is gone.
		return nil, fmt.Errorf("stable: page %d: %w", i, ErrDataLoss)
	default:
		// No good copy but nothing durable was lost (a first write that
		// never completed on either device, or a never-written page
		// inside the extent).
		return nil, fmt.Errorf("stable: page %d unreadable (never completely written): %w", i, ErrBadBlock)
	}
}

// WritePage atomically replaces the payload of page i. If a crash occurs
// between the two copy writes, Cleanup on restart resolves the pair to
// either the old or the new payload in full — never a mixture.
func (s *Store) WritePage(i int, payload []byte) error {
	if len(payload) > s.PageSize() {
		return fmt.Errorf("stable: payload %d exceeds page size %d", len(payload), s.PageSize())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	version := s.nextVersionLocked(i)
	block := encodePage(s.a.BlockSize(), version, payload)
	if err := s.a.WriteBlock(i, block); err != nil {
		return err
	}
	return s.b.WriteBlock(i, block)
}

func (s *Store) nextVersionLocked(i int) uint64 {
	for i >= len(s.versions) {
		s.versions = append(s.versions, 0)
	}
	if s.versions[i] == 0 {
		// Cold cache: consult the devices so the stamp keeps rising
		// across restarts.
		if va, _, sa, err := readCopy(s.a, i); err == nil && sa == copyGood && va > s.versions[i] {
			s.versions[i] = va
		}
		if vb, _, sb, err := readCopy(s.b, i); err == nil && sb == copyGood && vb > s.versions[i] {
			s.versions[i] = vb
		}
	}
	s.versions[i]++
	return s.versions[i]
}

// ScrubReport summarizes one scrub (read-repair) pass over a store.
type ScrubReport struct {
	// Pages is the number of page pairs examined.
	Pages int
	// Repaired lists pages where one copy was rewritten from its good
	// sibling (bad, stale, or blank sibling healed).
	Repaired []int
	// Reset lists pages with no good copy and no evidence of durable
	// data (a first write that crashed before either copy completed);
	// they were reinitialized as never-written.
	Reset []int
	// Lost lists pages where both copies were explicitly bad: committed
	// data is gone. The blocks are left bad so every later read fails
	// with ErrDataLoss rather than serving fabricated contents.
	Lost []int
}

// Scrub is the read-repair/salvager pass: every page pair is read and
// divergent pairs are repaired by copying the newer good copy over its
// sibling, which completes or rolls back an interrupted write and heals
// single-copy decay. It is the Lampson-Sturgis cleanup pass; recovery
// runs it before a store is used after a restart, and it is safe to run
// at any quiescent point (an online salvager).
//
// Pages whose both copies are explicitly bad are reported in
// ScrubReport.Lost and deliberately left bad: data loss must surface on
// read, not be papered over. The error return is reserved for device
// failures (notably ErrCrashed).
func (s *Store) Scrub() (ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep ScrubReport
	n := s.NumPages()
	rep.Pages = n
	for i := 0; i < n; i++ {
		va, pa, sa, err := readCopy(s.a, i)
		if err != nil {
			return rep, err
		}
		vb, pb, sb, err := readCopy(s.b, i)
		if err != nil {
			return rep, err
		}
		switch {
		case sa == copyGood && sb == copyGood && va == vb:
			// Consistent.
		case sa == copyGood && (sb != copyGood || va > vb):
			if err := s.b.WriteBlock(i, encodePage(s.b.BlockSize(), va, pa)); err != nil {
				return rep, err
			}
			rep.Repaired = append(rep.Repaired, i)
		case sb == copyGood:
			if err := s.a.WriteBlock(i, encodePage(s.a.BlockSize(), vb, pb)); err != nil {
				return rep, err
			}
			rep.Repaired = append(rep.Repaired, i)
		case sa == copyBad && sb == copyBad:
			// Both copies written, both bad: double failure. Committed
			// data is gone; leave the pair bad and report the loss.
			rep.Lost = append(rep.Lost, i)
			continue
		default:
			// Neither copy good, at most one ever written (a first
			// write that crashed mid-block, or single decay of a
			// never-written page). No committed value existed:
			// reinitialize as never-written. Order matters — rewrite
			// the bad copy first. A crash during that write leaves the
			// pair (bad, blank) again, and a crash during the second
			// leaves one good copy (the ordinary repair case); writing
			// the blank copy first could tear it and leave both copies
			// bad, indistinguishable from genuine double loss.
			empty := encodePage(s.a.BlockSize(), 1, nil)
			first, second := s.a, s.b
			if sb == copyBad {
				first, second = s.b, s.a
			}
			if err := first.WriteBlock(i, empty); err != nil {
				return rep, err
			}
			if err := second.WriteBlock(i, empty); err != nil {
				return rep, err
			}
			rep.Reset = append(rep.Reset, i)
		}
		for i >= len(s.versions) {
			s.versions = append(s.versions, 0)
		}
		if va > vb {
			s.versions[i] = va
		} else {
			s.versions[i] = vb
		}
	}
	return rep, nil
}

// Recover repairs every page pair after a crash by running Scrub. After
// Recover returns, both copies of every repairable page agree, restoring
// the invariant that a later single-device failure cannot lose data.
// Pages lost on both devices are left bad (reads return ErrDataLoss);
// recovery above this layer decides whether such a page held live state.
func (s *Store) Recover() error {
	_, err := s.Scrub()
	return err
}
