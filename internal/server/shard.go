// Shard registry: the one hosting model. A node maps shard ids to
// entries, each a serving guardian or a replication receiver that
// becomes one. Requests carry a shard id in the header; the server
// dispatches them to the entry's guardian, refuses the ones it does not
// host (StatusWrongShard, with its routing table in-band so the caller
// learns the owner for free), and serves the table itself over
// OpRoute/OpRouteInstall. Shard 0 is the node's one unrouted shard (a
// standalone or replicated guardian, a failover backup's receiver) and
// appears in no table; the nonzero ids are the routed keyspace slices.
//
// A shard moves between nodes by an explicit operator handoff
// (OpHandoff): drain the guardian, compact its log to live state via
// housekeeping (§5.2 — the snapshot is what makes the shipped log
// small), ship it to the receiver through the replication receiver's
// append path (same validation, same refusal semantics), then publish
// a rehomed routing table whose bumped version retires the old route
// everywhere it propagates. Rebalancing policy — when to move what —
// stays outside the server.
package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wire"
)

// handoffChunk bounds one shipped frame run; a shard's compacted log
// crosses the wire in runs well under wire.MaxPayload.
const handoffChunk = 256 << 10

// hosted is one registry entry. A shard registered with AddShard (or
// New) serves g from the start; one that arrived as a receiver — a
// failover backup, an inbound handoff — answers StatusRetry until adopt
// publishes the guardian b recovers.
type hosted struct {
	g        *guardian.Guardian // serving, nil until adopted; read under Server.smu (or adopting), written by adopt under both
	b        *replog.Backup     // the receiver g comes from; nil for a directly registered guardian
	adopting sync.Mutex         // serializes adopt: a second caller returns only once the first published
}

// AddShard registers g as the guardian serving shard id. Requests whose
// header names id dispatch to g from the next request on.
func (s *Server) AddShard(id uint32, g *guardian.Guardian) {
	s.smu.Lock()
	s.shards[id] = &hosted{g: g}
	s.smu.Unlock()
}

// lookup returns shard id's entry and the guardian it serves; either
// may be nil.
func (s *Server) lookup(id uint32) (h *hosted, g *guardian.Guardian) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if h = s.shards[id]; h != nil {
		g = h.g
	}
	return h, g
}

// Shard returns the guardian serving shard id, if any.
func (s *Server) Shard(id uint32) (*guardian.Guardian, bool) {
	_, g := s.lookup(id)
	return g, g != nil
}

// adopt is the one receiver → guardian transition, shared by OpPromote
// and the last step of an inbound handoff: promote the receiver (epoch
// bump, recovery over the received prefix), hand the guardian to
// OnAdopt, then publish it as the one shard id serves. Idempotent:
// Promote re-answers the same guardian, and only the call that finds it
// unpublished (first) runs the hook. A direct entry has no receiver.
func (s *Server) adopt(id uint32, h *hosted) (first bool, err error) {
	if h.b == nil {
		return false, nil
	}
	h.adopting.Lock()
	defer h.adopting.Unlock()
	g, err := h.b.Promote()
	if err != nil || h.g == g {
		return false, err
	}
	if s.cfg.OnAdopt != nil {
		s.cfg.OnAdopt(id, g)
	}
	s.smu.Lock()
	h.g = g
	s.smu.Unlock()
	return true, nil
}

// durableOf returns g's durable log boundary (0: no guardian, no site).
func durableOf(g *guardian.Guardian) (durable uint64) {
	if g != nil {
		if site := g.Site(); site != nil {
			durable, _ = site.Log().TailInfo()
		}
	}
	return durable
}

// InstallTable installs t as the server's routing table when strictly
// newer than the current one. An equal version is a no-op; an older
// one is refused wrapping transport.ErrStaleRoute, so a delayed table
// from before a handoff can never resurrect a superseded route.
func (s *Server) InstallTable(t shard.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	s.smu.Lock()
	if cur := s.table; cur != nil {
		if t.Version < cur.Version {
			have := cur.Version
			s.smu.Unlock()
			return fmt.Errorf("server: table v%d offered, v%d installed: %w", t.Version, have, transport.ErrStaleRoute)
		}
		if t.Version == cur.Version {
			s.smu.Unlock()
			return nil
		}
	}
	s.table = &t
	s.smu.Unlock()
	s.emit(obs.Event{Kind: obs.KindShardInstall, Durable: t.Version, Bytes: len(t.Shards)})
	return nil
}

// Table returns the server's current routing table.
func (s *Server) Table() (shard.Table, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.table == nil {
		return shard.Table{}, false
	}
	return *s.table, true
}

// resolve maps a request's shard id to the guardian serving it. An
// unhosted shard yields the StatusWrongShard refusal, carrying the
// current table so the caller re-routes without a second round trip; a
// receiver not yet adopted yields StatusRetry for the client's backoff.
func (s *Server) resolve(id uint32) (*guardian.Guardian, *wire.Response) {
	h, g := s.lookup(id)
	switch {
	case g != nil:
		return g, nil
	case h != nil:
		return nil, &wire.Response{Status: wire.StatusRetry, Err: fmt.Sprintf("shard %d not adopted yet", id)}
	}
	resp := wire.Response{Status: wire.StatusWrongShard, Err: fmt.Sprintf("shard %d not hosted here", id)}
	tbl, ok := s.Table()
	if ok {
		resp.Result = tbl.Encode()
	}
	s.emit(obs.Event{Kind: obs.KindShardWrong, From: uint64(id), Durable: tbl.Version})
	return nil, &resp
}

// route answers OpRoute with the current table.
func (s *Server) route() wire.Response {
	tbl, ok := s.Table()
	if !ok {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not sharded"}
	}
	s.emit(obs.Event{Kind: obs.KindShardRoute, Durable: tbl.Version})
	return wire.Response{Status: wire.StatusOK, Result: tbl.Encode()}
}

// routeInstall answers OpRouteInstall: install the offered table when
// newer, and answer the current table either way — a stale offer is
// not an error to the caller, it just teaches them the newer table.
func (s *Server) routeInstall(req wire.Request) wire.Response {
	offered, err := shard.Decode(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	if _, sharded := s.Table(); !sharded {
		return wire.Response{Status: wire.StatusBadRequest, Err: "not sharded"}
	}
	//roslint:besteffort a stale offer is answered with the newer installed table, not an error
	_ = s.InstallTable(offered)
	tbl, _ := s.Table()
	return wire.Response{Status: wire.StatusOK, Result: tbl.Encode()}
}

// statusReport builds the OpStatus answer: the node-level replication
// report — shard 0's — plus one row per serving routed shard, in
// ascending id order. The node-level idx.* counters aggregate every
// serving guardian; each row carries its own guardian's.
func (s *Server) statusReport() wire.StatusReport {
	rep := wire.StatusReport{Rep: s.status()}
	type serving struct {
		id uint32
		g  *guardian.Guardian
	}
	var all []serving
	s.smu.Lock()
	for id, h := range s.shards { // draining for membership; sorted below
		if h.g != nil {
			all = append(all, serving{id, h.g})
		}
	}
	s.smu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].id < all[j].id })
	// Durable boundaries and index counters are read outside smu:
	// TailInfo takes log locks, and smu stays a leaf.
	for _, sh := range all {
		st, _ := sh.g.IndexStats()
		rep.Rep.IdxHits += st.Hits
		rep.Rep.IdxMisses += st.Misses
		rep.Rep.IdxEntries += uint64(st.Entries)
		rep.Rep.IdxBytes += uint64(st.Bytes)
		if sh.id != 0 {
			rep.Shards = append(rep.Shards, wire.ShardStatus{
				ID: sh.id, Role: wire.RoleStandalone, Durable: durableOf(sh.g),
				IdxHits: st.Hits, IdxMisses: st.Misses,
			})
		}
	}
	return rep
}

// handoff answers OpHandoff: move one serving routed shard to the
// target node. The shard is unregistered first — its requests answer
// StatusWrongShard for the duration, and routed clients ride that out
// with their retry budget — then drained, compacted, shipped, and
// finally published out of this node by a version-bumped table. Any
// failure before the target adopts re-registers the entry: the handoff
// never leaves the shard unhosted.
func (s *Server) handoff(req wire.Request) wire.Response {
	h, err := wire.DecodeHandoffReq(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	tbl, sharded := s.Table()
	switch {
	case s.cfg.HandoffShip == nil:
		return wire.Response{Status: wire.StatusBadRequest, Err: "handoff not configured"}
	case !sharded:
		return wire.Response{Status: wire.StatusBadRequest, Err: "not sharded"}
	case h.Target == "":
		return wire.Response{Status: wire.StatusBadRequest, Err: "handoff without a target"}
	}
	// An id no table names is refused here — shard 0 always: Validate
	// keeps the unrouted shard out of every table.
	newTable, err := tbl.WithAddr(shard.ID(h.Shard), h.Target)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	s.smu.Lock()
	e := s.shards[h.Shard]
	if e != nil && e.g != nil {
		delete(s.shards, h.Shard)
	}
	s.smu.Unlock()
	if e == nil || e.g == nil {
		if _, miss := s.resolve(h.Shard); miss != nil {
			return *miss
		}
		return wire.Response{Status: wire.StatusBadRequest, Err: fmt.Sprintf("shard %d not hosted here", h.Shard)}
	}
	g, adopted := e.g, false
	defer func() {
		if !adopted {
			s.smu.Lock()
			s.shards[h.Shard] = e
			s.smu.Unlock()
		}
	}()
	// Drain: in-flight actions finish or the handoff yields. Bounded —
	// a wedged action must not hold the operator's call forever.
	for i := 0; len(g.LiveActions()) != 0; i++ {
		if i == 100 {
			return wire.Response{Status: wire.StatusRetry, Err: fmt.Sprintf("shard %d has live actions", h.Shard)}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Compact to live state so the shipped log is a snapshot, not the
	// full history. Simplelog backends cannot housekeep; their whole
	// log ships instead.
	// Best-effort: compaction shrinks the shipped bytes, but an
	// uncompacted handoff is still correct.
	_, _ = g.Housekeep(core.HousekeepSnapshot)
	site := g.Site()
	if site == nil {
		return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("shard %d has no open site", h.Shard)}
	}
	lg := site.Log()
	durable, _ := lg.TailInfo()
	s.emit(obs.Event{Kind: obs.KindShardHandoff, From: uint64(h.Shard), Bytes: int(durable), Note: "begin"})
	hf := wire.HandoffFrames{Shard: h.Shard, Backend: uint8(g.Backend()), BlockSize: uint32(g.VolumeBlockSize())}
	var cursor uint64
	for cursor < durable {
		frames, prevLen, err := lg.ReadRaw(cursor, handoffChunk)
		if err != nil {
			return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff read at %d: %v", cursor, err)}
		}
		hf.App = wire.RepAppend{Epoch: 1, Start: cursor, PrevLen: prevLen, Frames: frames}
		ack, err := s.cfg.HandoffShip(h.Target, hf)
		if err != nil {
			return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff ship at %d: %v", cursor, err)}
		}
		want := cursor + uint64(len(frames))
		// A refused duplicate (a resend after a lost ack) still acks
		// the already-advanced tail; anything short means the receiver
		// holds a different log and the handoff must not publish.
		if ack.Durable != want {
			return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff receiver at %d, want %d", ack.Durable, want)}
		}
		cursor = want
	}
	hf.Done = true
	hf.App = wire.RepAppend{Epoch: 1, Start: cursor}
	hf.Table = newTable.Encode()
	if _, err := s.cfg.HandoffShip(h.Target, hf); err != nil {
		return wire.Response{Status: wire.StatusError, Err: fmt.Sprintf("handoff adopt: %v", err)}
	}
	adopted = true
	// The receiver serves the shard now; publish the rehomed table
	// locally so this node's refusals teach the new route. The moved
	// guardian is dropped — its volume stays intact, but nothing
	// routes to it again under the new version.
	if err := s.InstallTable(newTable); err != nil {
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	s.emit(obs.Event{Kind: obs.KindShardHandoff, From: uint64(h.Shard), Durable: newTable.Version, Note: "publish"})
	return wire.Response{Status: wire.StatusOK, Result: newTable.Encode()}
}

// handoffInstall answers OpHandoffInstall on the receiving node.
func (s *Server) handoffInstall(req wire.Request) wire.Response {
	hf, err := wire.DecodeHandoffFrames(req.Arg)
	if err != nil {
		return wire.Response{Status: wire.StatusBadRequest, Err: err.Error()}
	}
	ack, err := s.ApplyHandoff(hf)
	if err != nil {
		return wire.Response{Status: wire.StatusError, Err: err.Error()}
	}
	return wire.Response{Status: wire.StatusOK, Result: wire.EncodeRepAck(ack)}
}

// ApplyHandoff applies one inbound handoff step: frame runs accumulate
// in a receiver registered under the shard (same validation and refusal
// semantics as backup replication), and the Done step adopts the
// guardian it recovers over the received prefix and installs the
// shipped table. Idempotent: a resent run is refused with the
// already-advanced tail acked, and a resent Done re-acks the adopted
// shard's durable boundary.
func (s *Server) ApplyHandoff(hf wire.HandoffFrames) (wire.RepAck, error) {
	if hf.Shard == 0 {
		// No table can name shard 0: it would serve where nothing routes.
		return wire.RepAck{}, errors.New("server: shard 0 is unrouted and cannot be handed off")
	}
	h, g := s.lookup(hf.Shard)
	if h == nil {
		b, err := replog.NewBackup(replog.BackupConfig{
			ID:        ids.GuardianID(hf.Shard),
			Primary:   ids.GuardianID(hf.Shard),
			Backend:   core.Backend(hf.Backend),
			BlockSize: int(hf.BlockSize),
			Tracer:    s.cfg.Tracer,
		})
		if err != nil {
			return wire.RepAck{}, err
		}
		// The receiver's site was created outside smu; a racing first
		// step may have registered the shard meanwhile, and wins.
		s.smu.Lock()
		if h = s.shards[hf.Shard]; h == nil {
			h = &hosted{b: b}
			s.shards[hf.Shard] = h
		}
		g = h.g
		s.smu.Unlock()
	}
	if !hf.Done {
		if g != nil {
			return wire.RepAck{}, fmt.Errorf("server: shard %d already adopted", hf.Shard)
		}
		return h.b.Append(hf.App)
	}
	first, err := s.adopt(hf.Shard, h)
	if err != nil {
		return wire.RepAck{}, fmt.Errorf("server: adopt shard %d: %w", hf.Shard, err)
	}
	if first && len(hf.Table) > 0 {
		tbl, err := shard.Decode(hf.Table)
		if err != nil {
			return wire.RepAck{}, fmt.Errorf("server: handoff table: %w", err)
		}
		if err := s.InstallTable(tbl); err != nil {
			return wire.RepAck{}, err
		}
	}
	g, _ = s.Shard(hf.Shard)
	ack := wire.RepAck{Epoch: hf.App.Epoch, Durable: durableOf(g), Applied: true}
	if first {
		s.emit(obs.Event{Kind: obs.KindShardHandoff, From: uint64(hf.Shard), Durable: ack.Durable, Note: "adopt"})
	}
	return ack, nil
}
