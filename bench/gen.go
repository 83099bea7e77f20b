package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/shard"
)

// op is one generated operation. The program under test only ever sees
// operations that came out of a gen.
type op struct {
	kind  opKind
	key   uint32 // incr/put target; transfer source
	key2  uint32 // transfer destination
	delta int64  // incr amount; transfer amount
	seq   uint64 // put: version number, unique within the run
}

// append serializes o (the generator test compares streams byte for
// byte).
func (o op) append(dst []byte) []byte {
	dst = append(dst, byte(o.kind))
	dst = binary.LittleEndian.AppendUint32(dst, o.key)
	dst = binary.LittleEndian.AppendUint32(dst, o.key2)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(o.delta))
	return binary.LittleEndian.AppendUint64(dst, o.seq)
}

func keyName(i uint32) string { return fmt.Sprintf("k%06d", i) }

// shardTable is the routing table of a workload with several shards:
// hash ownership, every shard at addr. Ownership ignores the address,
// so the generator can compute it before the server listens.
func shardTable(shards int, addr string) shard.Table {
	t := shard.Table{Version: 1, Kind: shard.KindHash}
	for i := 1; i <= shards; i++ {
		t.Shards = append(t.Shards, shard.Shard{ID: shard.ID(i), Addr: addr})
	}
	return t
}

// keyOwners maps each key index to the position (0-based) of the shard
// owning it; all zero for a single guardian.
func keyOwners(spec *workloadSpec) []uint8 {
	owners := make([]uint8, spec.keys)
	if spec.shards < 2 {
		return owners
	}
	t := shardTable(spec.shards, "")
	for i := range owners {
		owners[i] = uint8(t.Owner(keyName(uint32(i))).ID - 1)
	}
	return owners
}

// gen produces one connection's operation stream: a pure function of
// (workload, seed, stream). Streams of one workload draw from disjoint
// key classes (key index mod streams), and within a stream no key
// repeats inside any window of `window` consecutive operations, so
// whatever is in flight at once touches distinct keys and no operation
// can meet a lock conflict.
type gen struct {
	spec    *workloadSpec
	rng     *rand.Rand
	zipf    *rand.Zipf
	class   []uint32   // keys this stream may write
	byShard [][]uint32 // class split by owning shard (transfers)
	recent  []uint32   // last window-1 keys issued
	stream  int
	puts    uint64 // put versions issued so far
}

// Stream ids. Commit connections are 0..conns-1; the others are fixed
// so that adding one never shifts another's stream.
const (
	streamPreload = 100
	streamReads   = 200
)

// newGen returns stream `stream` of `streams` for the given seed.
// window is the in-flight depth the stream must stay conflict-free at.
func newGen(spec *workloadSpec, seed int64, stream, streams, window int) *gen {
	g := &gen{
		spec:   spec,
		rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919 + int64(len(spec.name)))),
		stream: stream,
	}
	g.zipf = rand.NewZipf(g.rng, zipfS, 1, uint64(spec.keys-1))
	owners := keyOwners(spec)
	g.byShard = make([][]uint32, spec.shards)
	for i := 0; i < spec.keys; i++ {
		if i%streams != stream%streams {
			continue
		}
		g.class = append(g.class, uint32(i))
		g.byShard[owners[i]] = append(g.byShard[owners[i]], uint32(i))
	}
	if window > 1 {
		g.recent = make([]uint32, 0, window-1)
	}
	return g
}

// fresh draws uniformly from keys until it finds one not issued in the
// current window, and remembers it.
func (g *gen) fresh(keys []uint32) uint32 {
	for {
		k := keys[g.rng.Intn(len(keys))]
		dup := false
		for _, r := range g.recent {
			if r == k {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if cap(g.recent) > 0 {
			if len(g.recent) == cap(g.recent) {
				copy(g.recent, g.recent[1:])
				g.recent = g.recent[:len(g.recent)-1]
			}
			g.recent = append(g.recent, k)
		}
		return k
	}
}

// next returns the stream's next write operation.
func (g *gen) next() op {
	switch g.spec.op {
	case opPut:
		// Versions are unique across the streams of a run, so the
		// oracle can name the exact put a recovered value came from.
		g.puts++
		return op{kind: opPut, key: g.fresh(g.class), seq: uint64(g.stream+1)<<40 | g.puts}
	case opTransfer:
		from := g.rng.Intn(len(g.byShard))
		to := (from + 1 + g.rng.Intn(len(g.byShard)-1)) % len(g.byShard)
		return op{kind: opTransfer, key: g.fresh(g.byShard[from]), key2: g.fresh(g.byShard[to]), delta: 1}
	default:
		return op{kind: opIncr, key: g.fresh(g.class), delta: 1 + g.rng.Int63n(9)}
	}
}

// nextSingle is next reduced to one key: a transfer becomes the incr of
// its source (the wire probe wants one invoke's frames).
func (g *gen) nextSingle() op {
	o := g.next()
	if o.kind == opTransfer {
		return op{kind: opIncr, key: o.key, delta: o.delta}
	}
	return o
}

// readKeys fills dst with zipf-distributed key indexes (rank 0 is the
// hottest key).
func (g *gen) readKeys(dst []uint32) {
	for i := range dst {
		dst[i] = uint32(g.zipf.Uint64())
	}
}

// putValue is the 128-byte value of version seq of key: the key and
// version in the clear, then filler derived from both, so a reader can
// tell a whole version from a torn or misplaced one without knowing
// which version to expect.
func putValue(key uint32, seq uint64) []byte {
	v := make([]byte, putValueLen)
	binary.LittleEndian.PutUint32(v[0:4], key)
	binary.LittleEndian.PutUint64(v[4:12], seq)
	x := uint64(key)<<32 ^ seq ^ 0x9E3779B97F4A7C15
	for i := 12; i < putValueLen; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// putValueOK reports whether v is a whole version of key, and which.
func putValueOK(key uint32, v []byte) (seq uint64, ok bool) {
	if len(v) != putValueLen || binary.LittleEndian.Uint32(v[0:4]) != key {
		return 0, false
	}
	seq = binary.LittleEndian.Uint64(v[4:12])
	want := putValue(key, seq)
	for i := range v {
		if v[i] != want[i] {
			return seq, false
		}
	}
	return seq, true
}
