package logrec

import (
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/stablelog"
)

// FuzzDecode checks that both entry decoders never panic and that
// accepted entries survive a re-encode/decode round trip unchanged.
// (Byte-level canonicality does not hold: the varint reader accepts
// non-minimal encodings that the writer never produces.) It also checks
// DecodeInto's reset: decoding into an Entry left over from other
// input — one with every field set, and each decoded stale entry —
// must accept exactly what Decode accepts and yield a deeply equal
// entry, so no stale Pairs, GIDs, Value, UID or Prev survives.
func FuzzDecode(f *testing.F) {
	aid := ids.ActionID{Coordinator: 2, Seq: 5}
	f.Add(byte(Simple), Encode(Simple, &Entry{Kind: KindPrepared, AID: aid}))
	f.Add(byte(Hybrid), Encode(Hybrid, &Entry{Kind: KindPrepared, AID: aid,
		Pairs: []UIDLSN{{UID: 1, Addr: 2}}, Prev: 3}))
	f.Add(byte(Simple), Encode(Simple, &Entry{Kind: KindData, UID: 7,
		ObjType: object.KindAtomic, Value: []byte("v"), AID: aid}))
	f.Add(byte(Hybrid), Encode(Hybrid, &Entry{Kind: KindCommittedSS,
		Pairs: []UIDLSN{{UID: 9, Addr: 1}}, Prev: stablelog.NoLSN}))
	f.Add(byte(Hybrid), []byte{0xFF, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, format byte, data []byte) {
		fm := Format(format)
		if fm != Simple && fm != Hybrid {
			fm = Simple
		}
		e, err := Decode(fm, data)
		for _, prior := range staleEntries(t, fm) {
			if errInto := DecodeInto(fm, data, prior); (errInto == nil) != (err == nil) {
				t.Fatalf("DecodeInto over a stale entry: %v; Decode: %v", errInto, err)
			}
			if err == nil && !reflect.DeepEqual(prior, e) {
				t.Fatalf("DecodeInto over a stale entry = %#v, fresh Decode = %#v", *prior, *e)
			}
		}
		if err != nil {
			return
		}
		e2, err := Decode(fm, Encode(fm, e))
		if err != nil {
			t.Fatalf("re-encode of accepted entry failed: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip changed entry: %+v vs %+v", e, e2)
		}
	})
}

// staleEntries returns entries of format fm as a scan leaves them
// behind: one with every field set, then one decoded from each kind
// that carries a list, a value or a chain pointer.
func staleEntries(t *testing.T, fm Format) []*Entry {
	t.Helper()
	aid := ids.ActionID{Coordinator: 3, Seq: 9}
	out := []*Entry{{
		Kind: KindCommitting, UID: 4, ObjType: object.KindMutex, Value: []byte("stale"),
		AID: aid, GIDs: []ids.GuardianID{1, 2, 3}, Pairs: []UIDLSN{{UID: 5, Addr: 6}}, Prev: 7,
	}}
	for _, src := range []*Entry{
		{Kind: KindData, UID: 8, ObjType: object.KindAtomic, Value: []byte("old version"), AID: aid},
		{Kind: KindPrepared, AID: aid, Pairs: []UIDLSN{{UID: 1, Addr: 2}, {UID: 3, Addr: 4}}, Prev: 11},
		{Kind: KindCommitting, AID: aid, GIDs: []ids.GuardianID{4, 5}, Prev: 12},
		{Kind: KindPreparedData, UID: 6, AID: aid, Value: []byte("pd"), Prev: 13},
	} {
		if fm == Simple {
			src.Pairs, src.Prev = nil, stablelog.NoLSN
		}
		e := new(Entry)
		if err := DecodeInto(fm, Encode(fm, src), e); err != nil {
			t.Fatalf("stale %v entry: %v", src.Kind, err)
		}
		out = append(out, e)
	}
	return out
}
