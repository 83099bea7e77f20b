package replog

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/stablelog"
	"repro/internal/wire"
)

// BackupConfig configures a Backup.
type BackupConfig struct {
	// ID is this replica's own transport address.
	ID ids.GuardianID
	// Primary is the replicated guardian's id: the identity the backup
	// assumes when promoted (the guardian moves; its id does not).
	Primary ids.GuardianID
	// Backend is the primary's storage organization — the shipped log
	// must be recovered by the writer family that produced it. Default
	// hybrid.
	Backend core.Backend
	// Volume holds the received log. Nil creates a fresh in-memory
	// volume; a rejoining replica passes its surviving volume and the
	// backup resumes from the durable prefix found there.
	Volume stablelog.Volume
	// BlockSize sizes the default in-memory volume's devices (512 when
	// zero). Ignored when Volume is set.
	BlockSize int
	// Tracer receives rep.* events and, at promotion, the takeover's
	// recovery.* events (nil traces nothing).
	Tracer obs.Tracer
}

// Backup is the replication receiver: it validates, persists, and acks
// frame runs shipped by a Primary, and can take over as the guardian by
// running the existing backward-scan recovery over its received prefix
// (Promote). It implements Replica for in-process wiring; over TCP a
// rosd server hosts it and dispatches the rep.* ops to these methods.
type Backup struct {
	cfg BackupConfig
	vol stablelog.Volume
	tr  obs.Tracer

	// promoting serializes Promote across guardian.Open, so concurrent
	// callers recover the volume once and share the one guardian. It is
	// not mu: every rep handler takes mu, and none may wait out a
	// recovery. Lock order: promoting → mu.
	promoting sync.Mutex

	mu       sync.Mutex
	site     *stablelog.Site
	epoch    uint64 // highest epoch seen; adopted from the primary
	promoted bool
	g        *guardian.Guardian // set by Promote
}

// NewBackup opens (or creates) the backup's receiving log. With an
// existing volume the durable prefix found on it is resumed — the
// rejoin path: the next append either extends it or the primary
// rewinds to it.
func NewBackup(cfg BackupConfig) (*Backup, error) {
	if cfg.Backend == 0 {
		cfg.Backend = core.BackendHybrid
	}
	if cfg.BlockSize <= 0 {
		cfg.BlockSize = 512
	}
	vol := cfg.Volume
	if vol == nil {
		vol = stablelog.NewMemVolume(cfg.BlockSize)
	}
	site, err := stablelog.OpenSite(vol)
	if err != nil {
		if !errors.Is(err, stablelog.ErrNoSite) {
			return nil, fmt.Errorf("replog: backup volume: %w", err)
		}
		site, err = stablelog.CreateSite(vol)
		if err != nil {
			return nil, fmt.Errorf("replog: backup volume: %w", err)
		}
	}
	return &Backup{
		cfg:  cfg,
		vol:  vol,
		tr:   obs.WithGuardian(cfg.Tracer, uint64(cfg.ID)),
		site: site,
		// Epochs start at 1 everywhere (replog.Config does the same), so
		// even a never-contacted backup promotes past a default primary.
		// Higher epochs are adopted from the first contact.
		epoch: 1,
	}, nil
}

// ID implements Replica.
func (b *Backup) ID() ids.GuardianID { return b.cfg.ID }

// refuseLocked acks the backup's current state without applying
// anything: the in-band refusal (Applied false, Durable naming the
// unchanged tail) or, for a stale sender, the higher-epoch notice.
// Caller holds b.mu.
func (b *Backup) refuseLocked() wire.RepAck {
	durable, _ := b.site.Log().TailInfo()
	return wire.RepAck{Epoch: b.epoch, Durable: durable}
}

// Append implements Replica: validate the run against the local tail,
// apply and force it, ack the new durable offset. A run that does not
// extend the tail exactly — wrong offset, broken back-chain, torn
// bytes — is refused by acking the unchanged tail; the sender rewinds
// or offers a snapshot. Nothing is ever partially applied and acked.
func (b *Backup) Append(app wire.RepAppend) (wire.RepAck, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promoted || app.Epoch < b.epoch {
		return b.refuseLocked(), nil
	}
	b.epoch = app.Epoch
	log := b.site.Log()
	durable, lastLen := log.TailInfo()
	if app.Start != durable || app.PrevLen != lastLen {
		return b.refuseLocked(), nil
	}
	frames, err := stablelog.ParseFrames(app.Start, app.PrevLen, app.Frames)
	if err != nil {
		return b.refuseLocked(), nil
	}
	for _, f := range frames {
		lsn, err := log.Write(f.Payload)
		if err != nil {
			return wire.RepAck{}, fmt.Errorf("replog: backup %d apply: %w", b.cfg.ID, err)
		}
		if lsn != f.LSN {
			// Frames are a pure function of the payload sequence, so a
			// replayed payload landing at a different address means this
			// log is not the byte-identical copy the protocol maintains.
			return wire.RepAck{}, fmt.Errorf("replog: backup %d applied frame at %v, primary wrote it at %v", b.cfg.ID, lsn, f.LSN)
		}
	}
	if err := log.Force(); err != nil {
		return wire.RepAck{}, fmt.Errorf("replog: backup %d force: %w", b.cfg.ID, err)
	}
	newDurable, _ := log.TailInfo()
	if b.tr != nil {
		b.tr.Emit(obs.Event{Kind: obs.KindRepRecv, Durable: newDurable, Bytes: len(app.Frames)})
	}
	return wire.RepAck{Epoch: b.epoch, Durable: newDurable, Applied: true}, nil
}

// Heartbeat implements Replica.
func (b *Backup) Heartbeat(hb wire.RepHeartbeat) (wire.RepAck, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.promoted && hb.Epoch > b.epoch {
		b.epoch = hb.Epoch
	}
	return b.refuseLocked(), nil
}

// Snapshot implements Replica: accept the snapshot offer by discarding
// the received log — a fresh generation installed through the ch. 5
// switch machinery — and re-acking offset zero. The primary then ships
// its whole compacted log through the append path.
func (b *Backup) Snapshot(snap wire.RepSnapshot) (wire.RepAck, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.promoted || snap.Epoch < b.epoch {
		return b.refuseLocked(), nil
	}
	b.epoch = snap.Epoch
	newLog, gen, err := b.site.NewLog()
	if err != nil {
		return wire.RepAck{}, fmt.Errorf("replog: backup %d reset: %w", b.cfg.ID, err)
	}
	if err := b.site.Switch(newLog, gen); err != nil {
		return wire.RepAck{}, fmt.Errorf("replog: backup %d reset: %w", b.cfg.ID, err)
	}
	if b.tr != nil {
		b.tr.Emit(obs.Event{Kind: obs.KindRepCatchup, Durable: 0})
	}
	return wire.RepAck{Epoch: b.epoch, Durable: 0, Applied: true}, nil
}

// Promote makes the backup take over as the guardian: it bumps the
// replication epoch — appends from the deposed primary are refused
// from here on — and runs the existing crash recovery (guardian.Open)
// over the received prefix. The decision is explicit and external; a
// replica never promotes itself. Idempotent: a second call returns the
// already-recovered guardian, and a concurrent one waits for the first
// to finish and returns its guardian.
func (b *Backup) Promote() (*guardian.Guardian, error) {
	b.promoting.Lock()
	defer b.promoting.Unlock()
	b.mu.Lock()
	if b.promoted && b.g != nil {
		g := b.g
		b.mu.Unlock()
		return g, nil
	}
	if !b.promoted {
		// The epoch claim comes first: the bumped epoch is the fence
		// every rep handler checks, so no observer may see the promoted
		// latch without the epoch that justifies refusing the deposed
		// primary.
		b.epoch++
		b.promoted = true
	}
	durable, _ := b.site.Log().TailInfo()
	tr := b.tr
	b.mu.Unlock()

	if tr != nil {
		tr.Emit(obs.Event{Kind: obs.KindRepPromote, Durable: durable})
	}
	// The guardian keeps its identity (cfg.Primary) across the move:
	// recovery over the received prefix sees its own log. The tracer is
	// handed to Open unstamped so the takeover's recovery events carry
	// the promoted guardian's id, like any other recovery.
	g, err := guardian.Open(b.cfg.Primary, b.vol, b.cfg.Backend, guardian.WithTracer(b.cfg.Tracer))
	if err != nil {
		return nil, fmt.Errorf("replog: promote backup %d: %w", b.cfg.ID, err)
	}
	b.mu.Lock()
	//roslint:unfenced the epoch bump above published the takeover before recovery ran; this only caches the recovered guardian for the idempotent re-call
	b.g = g
	b.mu.Unlock()
	return g, nil
}

// Promoted reports whether Promote has been called.
func (b *Backup) Promoted() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.promoted
}

// Guardian returns the recovered guardian after promotion (nil
// before).
func (b *Backup) Guardian() *guardian.Guardian {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.g
}

// Status reports the backup's replication state (the OpStatus answer).
func (b *Backup) Status() wire.RepStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	durable, _ := b.site.Log().TailInfo()
	role := wire.RoleBackup
	if b.promoted {
		role = wire.RolePrimary
	}
	return wire.RepStatus{
		Role:        role,
		Epoch:       b.epoch,
		Durable:     durable,
		QuorumBytes: durable,
	}
}
