package main

import (
	"bytes"
	"testing"
)

// streamBytes serializes the first n operations of every stream a run
// of spec draws from — the commit connections, the history, the read
// keys — in a fixed order.
func streamBytes(spec *workloadSpec, seed int64, n int) []byte {
	var out []byte
	gens := []*gen{newGen(spec, seed, streamPreload, 1, spec.preloadDepth())}
	for c := 0; c < spec.conns; c++ {
		gens = append(gens, newGen(spec, seed, c, spec.conns, spec.depth))
	}
	for _, g := range gens {
		for i := 0; i < n; i++ {
			out = g.next().append(out)
		}
	}
	reads := newGen(spec, seed, streamReads, 1, 1)
	keys := make([]uint32, readBatch)
	for i := 0; i < n/readBatch; i++ {
		reads.readKeys(keys)
		for _, k := range keys {
			out = op{key: k}.append(out)
		}
	}
	return out
}

func TestStreamIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		a, b := streamBytes(spec, 7, 4000), streamBytes(spec, 7, 4000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave two different streams", spec.name)
		}
		if c := streamBytes(spec, 8, 4000); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", spec.name)
		}
	}
}

func TestReadKeysAreZipfSkewed(t *testing.T) {
	spec, err := findWorkload("read-beside-writes-mem")
	if err != nil {
		t.Fatal(err)
	}
	g := newGen(spec, 3, streamReads, 1, 1)
	counts := make([]int, spec.keys)
	keys := make([]uint32, readBatch)
	const batches = 20000
	for i := 0; i < batches; i++ {
		g.readKeys(keys)
		for _, k := range keys {
			if int(k) >= spec.keys {
				t.Fatalf("read key %d outside the key-space of %d", k, spec.keys)
			}
			counts[k]++
		}
	}
	total := batches * readBatch
	hot := 0
	for _, c := range counts[:spec.keys/100] {
		hot += c
	}
	// zipf(1.1) over 10 000 keys: the hottest key draws ~15% of the
	// reads and the hottest 1% of keys ~65%.
	if share := float64(counts[0]) / float64(total); share < 0.10 || share > 0.20 {
		t.Errorf("hottest key drew %.3f of the reads, want about 0.15", share)
	}
	if share := float64(hot) / float64(total); share < 0.55 || share > 0.75 {
		t.Errorf("hottest 1%% of keys drew %.3f of the reads, want about 0.65", share)
	}
	if !(counts[0] > counts[10] && counts[10] > counts[1000]) {
		t.Errorf("read counts do not fall with rank: rank0 %d, rank10 %d, rank1000 %d", counts[0], counts[10], counts[1000])
	}
}

// TestInFlightKeysAreDistinct checks what lets the benchmark promise
// "no operation fails": whatever can be in flight at once — a window of
// depth operations on each connection, all connections together —
// touches pairwise distinct keys.
func TestInFlightKeysAreDistinct(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		type stream struct {
			g     *gen
			depth int
		}
		streams := []stream{{newGen(spec, 5, streamPreload, 1, spec.preloadDepth()), spec.preloadDepth()}}
		var conns []stream
		for c := 0; c < spec.conns; c++ {
			conns = append(conns, stream{newGen(spec, 5, c, spec.conns, spec.depth), spec.depth})
		}
		streams = append(streams, conns...)

		owners := keyOwners(spec)
		classOf := make(map[uint32]int) // key → connection that wrote it
		for si, s := range streams {
			for w := 0; w < 500; w++ {
				seen := make(map[uint32]bool)
				for j := 0; j < s.depth; j++ {
					o := s.g.next()
					ks := []uint32{o.key}
					if o.kind == opTransfer {
						ks = append(ks, o.key2)
						if owners[o.key] == owners[o.key2] {
							t.Fatalf("%s: transfer between keys %d and %d of one shard", spec.name, o.key, o.key2)
						}
					}
					for _, k := range ks {
						if int(k) >= spec.keys {
							t.Fatalf("%s: key %d outside the key-space", spec.name, k)
						}
						if seen[k] {
							t.Fatalf("%s stream %d: key %d twice within %d operations in flight", spec.name, si, k, s.depth)
						}
						seen[k] = true
						if si > 0 { // a commit connection
							if c, ok := classOf[k]; ok && c != si {
								t.Fatalf("%s: key %d written by connections %d and %d", spec.name, k, c, si)
							}
							classOf[k] = si
						}
					}
				}
			}
		}
	}
}

func TestPutValueNamesItsKeyAndVersion(t *testing.T) {
	v := putValue(42, 1<<40|9)
	if seq, ok := putValueOK(42, v); !ok || seq != 1<<40|9 {
		t.Fatalf("whole value judged (%d, %v)", seq, ok)
	}
	if _, ok := putValueOK(43, v); ok {
		t.Fatal("value accepted under another key")
	}
	v[100] ^= 1
	if _, ok := putValueOK(42, v); ok {
		t.Fatal("damaged value accepted")
	}
}
