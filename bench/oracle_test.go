package main

import (
	"sync/atomic"
	"testing"

	"repro/internal/stable"
	"repro/internal/value"
)

// amnesiacMedia hands out devices that, once forget is set, acknowledge
// every write and keep none: a disk whose write cache lies. It is what
// a commit path that stopped forcing would look like from outside.
type amnesiacMedia struct {
	media
	forget *atomic.Bool
}

func (a amnesiacMedia) open(name string) (stable.Device, error) {
	d, err := a.media.open(name)
	if err != nil {
		return nil, err
	}
	return amnesiacDevice{Device: d, forget: a.forget}, nil
}

type amnesiacDevice struct {
	stable.Device
	forget *atomic.Bool
}

func (d amnesiacDevice) WriteBlock(i int, p []byte) error {
	if d.forget.Load() {
		return nil
	}
	return d.Device.WriteBlock(i, p)
}

// TestOracleCatchesAcknowledgedButLostWrites is the proof that the
// durability check bites: from the moment serving starts the devices
// drop every write while still acknowledging it, so every commit of the
// measured slices is acknowledged and gone after abandon-and-reopen.
// The run must count them in acked_lost and the command must fail.
func TestOracleCatchesAcknowledgedButLostWrites(t *testing.T) {
	for _, name := range []string{"commit-serial-mem", "commit-serial-file", "read-beside-writes-mem", "xshard-transfer-file"} {
		t.Run(name, func(t *testing.T) {
			spec, err := findWorkload(name)
			if err != nil {
				t.Fatal(err)
			}
			var forget atomic.Bool
			cfg := runConfig{
				seed: 1, seconds: 0.2, quick: true, outDir: t.TempDir(),
				wrapMedia: func(m media) media { return amnesiacMedia{media: m, forget: &forget} },
				onServe:   func() { forget.Store(true) },
			}
			res, err := runWorkload(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.AckedLost <= 0 {
				t.Fatalf("acked_lost = %d after the devices dropped every served write", res.AckedLost)
			}
			if res.Correct {
				t.Fatal("run reported correct")
			}
			if exitCode(res) == 0 {
				t.Fatal("command would exit 0")
			}
			if res.Failed != 0 {
				t.Fatalf("%d operations failed: the writes must have been acknowledged, not refused", res.Failed)
			}

			// The same run on honest devices is clean.
			cfg.wrapMedia, cfg.onServe = nil, nil
			res, err = runWorkload(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.AckedLost != 0 || !res.Correct || exitCode(res) != 0 {
				t.Fatalf("honest run: acked_lost %d, correct %v, errors %v", res.AckedLost, res.Correct, res.Errors)
			}
		})
	}
}

func TestLedgerVerify(t *testing.T) {
	spec := &workloadSpec{name: "t", op: opIncr, keys: 4, shards: 1}
	l := newLedger(spec)
	l.ack(op{kind: opIncr, key: 1, delta: 5})
	l.ack(op{kind: opIncr, key: 1, delta: 2})
	l.ack(op{kind: opTransfer, key: 2, key2: 3, delta: 4})
	state := []int64{0, 7, -4, 4}
	get := func(k uint32) ([]byte, error) { return value.Flatten(value.Int(state[k]), nil), nil }
	if lost, err := l.verify(get); lost != 0 || err != nil {
		t.Fatalf("matching state: lost %d, %v", lost, err)
	}
	state[1] = 5 // the +2 went missing
	if lost, err := l.verify(get); lost != 2 || err == nil {
		t.Fatalf("missing delta: lost %d, %v", lost, err)
	}
	state[1], state[0] = 7, 3 // an effect nobody acknowledged
	if lost, err := l.verify(get); lost != 3 || err == nil {
		t.Fatalf("phantom effect: lost %d, %v", lost, err)
	}
	state[0] = 0
	l.fail(op{kind: opIncr, key: 0, delta: 9}) // outcome unknown: not judged
	state[0] = 9
	if lost, err := l.verify(get); lost != 0 || err != nil {
		t.Fatalf("unsure key judged: lost %d, %v", lost, err)
	}

	pspec := &workloadSpec{name: "p", op: opPut, keys: 2, shards: 1}
	pl := newLedger(pspec)
	pl.ack(op{kind: opPut, key: 1, seq: 12})
	vers := []uint64{0, 12}
	pget := func(k uint32) ([]byte, error) { return value.Flatten(value.Bytes(putValue(k, vers[k])), nil), nil }
	if lost, err := pl.verify(pget); lost != 0 || err != nil {
		t.Fatalf("matching versions: lost %d, %v", lost, err)
	}
	vers[1] = 11
	if lost, err := pl.verify(pget); lost != 1 || err == nil {
		t.Fatalf("stale version: lost %d, %v", lost, err)
	}
}
