package main

import (
	"fmt"

	"repro/internal/value"
)

// ledger is the oracle: what every key must hold, derived only from
// the operations the system acknowledged. Int keys hold the sum of
// their acknowledged deltas; put keys hold their last acknowledged
// version.
//
// It takes no lock. Streams write disjoint key classes, one operation
// per key at a time, and every check runs after the writers of a phase
// have been waited for; counters are per stream and summed afterwards.
type ledger struct {
	spec *workloadSpec
	ints []int64  // expected Int value per key
	seqs []uint64 // expected put version per key (0: the set-up value)
	// unsure marks keys touched by an operation that failed: its
	// outcome is unknown, so the key's recovered value is not judged.
	unsure []bool
}

func newLedger(spec *workloadSpec) *ledger {
	return &ledger{
		spec:   spec,
		ints:   make([]int64, spec.keys),
		seqs:   make([]uint64, spec.keys),
		unsure: make([]bool, spec.keys),
	}
}

// ack records that o was acknowledged.
func (l *ledger) ack(o op) {
	switch o.kind {
	case opIncr:
		l.ints[o.key] += o.delta
	case opPut:
		l.seqs[o.key] = o.seq
	case opTransfer:
		l.ints[o.key] -= o.delta
		l.ints[o.key2] += o.delta
	}
}

// fail records that o failed with its outcome unknown.
func (l *ledger) fail(o op) {
	l.unsure[o.key] = true
	if o.kind == opTransfer {
		l.unsure[o.key2] = true
	}
}

// userBytes is the payload a user handed over with o: key name(s) plus
// value bytes (8 for an Int delta). write_amp divides device bytes by
// the sum of these.
func userBytes(o op) int64 {
	const keyLen = 7 // len(keyName(i))
	switch o.kind {
	case opPut:
		return keyLen + putValueLen
	case opTransfer:
		return 2 * (keyLen + 8)
	default:
		return keyLen + 8
	}
}

// expectInt is the value an acknowledged incr of key must have
// returned, given the ledger already holds it.
func (l *ledger) expectInt(key uint32) int64 { return l.ints[key] }

// checkValue judges one value read for key. With exact set it must be
// precisely what the ledger holds (nothing is writing); without, it
// must be a whole version of that key (puts) or any Int.
func (l *ledger) checkValue(key uint32, v value.Value, exact bool) error {
	if l.spec.op == opPut {
		b, ok := v.(value.Bytes)
		if !ok {
			return fmt.Errorf("key %d: got %T, want Bytes", key, v)
		}
		seq, whole := putValueOK(key, b)
		if !whole {
			return fmt.Errorf("key %d: value is not a whole version (claims version %d)", key, seq)
		}
		if exact && !l.unsure[key] && seq != l.seqs[key] {
			return fmt.Errorf("key %d: version %d, ledger has %d", key, seq, l.seqs[key])
		}
		return nil
	}
	n, ok := v.(value.Int)
	if !ok {
		return fmt.Errorf("key %d: got %T, want Int", key, v)
	}
	if exact && !l.unsure[key] && int64(n) != l.ints[key] {
		return fmt.Errorf("key %d: value %d, ledger has %d", key, n, l.ints[key])
	}
	return nil
}

// verify compares recovered state with the ledger. get returns the
// flattened committed value of a key as a reopened guardian serves it.
// The result counts acknowledged operations whose effect is missing
// plus effects present that were never acknowledged: for Int keys the
// distance between recovered and expected value (deltas are ≥ 1, so a
// distance of d is at least one and at most d operations), for put
// keys one per key holding another version than the last acknowledged.
// first describes the first discrepancy.
func (l *ledger) verify(get func(key uint32) ([]byte, error)) (lost int64, first error) {
	note := func(err error) {
		if first == nil {
			first = err
		}
	}
	var sum, want int64
	for k := 0; k < l.spec.keys; k++ {
		key := uint32(k)
		flat, err := get(key)
		if err != nil {
			lost++
			note(fmt.Errorf("key %d: %w", key, err))
			continue
		}
		v, err := value.Unflatten(flat)
		if err != nil {
			lost++
			note(fmt.Errorf("key %d: %w", key, err))
			continue
		}
		if l.unsure[key] {
			continue
		}
		if l.spec.op == opPut {
			if err := l.checkValue(key, v, true); err != nil {
				lost++
				note(err)
			}
			continue
		}
		n, ok := v.(value.Int)
		if !ok {
			lost++
			note(fmt.Errorf("key %d: recovered %T, want Int", key, v))
			continue
		}
		sum += int64(n)
		want += l.ints[key]
		if d := int64(n) - l.ints[key]; d != 0 {
			if d < 0 {
				d = -d
			}
			lost += d
			note(fmt.Errorf("key %d: recovered %d, ledger has %d", key, n, l.ints[key]))
		}
	}
	// Transfers conserve the total across shards; per-key equality
	// implies it, so this only ever fires together with a key error —
	// it is here to name the failure for what it is.
	if l.spec.op == opTransfer && sum != want && first != nil {
		first = fmt.Errorf("sum across shards %d, ledger has %d (first: %v)", sum, want, first)
	}
	return lost, first
}
