// Command rosd serves the guardians of one node over TCP: the reliable
// object store as a daemon. Each carries a small durable key/value
// interface (get, put, incr — each a complete atomic action, or a
// subaction of a caller-coordinated one), runs the hybrid log, and is
// served through internal/server under a shard id.
//
// Usage:
//
//	rosd [-addr 127.0.0.1:4146] [-id 1]
//	     [-workers 8] [-maxconns 64]
//	     [-trace] [-tracefile path]
//	     [-data dir] [-datacap bytes] [-datasync]
//	     [-role standalone|primary|backup] [-backups id=addr,...]
//	     [-quorum 2] [-primary-id 1]
//	     [-shards 2,3] [-routemap 2=host:port,3=host:port,...]
//	     [-routekind hash|range]
//
// Persistence (-data):
//
//	With -data set, each guardian's stable storage lives in a
//	subdirectory of that directory (g<id> for guardians, b<id> for a
//	backup's received log) and a restarted rosd recovers it; without
//	it, stable storage is the in-memory simulation and dies with the
//	process. -datacap caps each subdirectory's size: writes that
//	would grow it past the cap fail like a full disk (overwrites of
//	existing blocks still succeed, so a full volume still recovers).
//	-datasync fsyncs every block write; it defaults off because the
//	chaos harness kills processes, not the machine, and the page
//	cache survives a SIGKILL — forced state is durable across process
//	death without paying for per-write fsync.
//
//	On recovery the daemon resolves its own in-doubt actions: an
//	action this guardian coordinated is committed if its committing
//	record survived and presumed aborted otherwise. Actions prepared
//	here for a foreign coordinator stay in doubt until that
//	coordinator (or an operator, via rosctl) delivers the verdict.
//
// Replication (-role):
//
//	standalone   the default: one unreplicated guardian.
//	primary      ships every forced log prefix to the -backups list
//	             and acknowledges commits only at -quorum durable
//	             copies (counting itself). Each -backups entry is
//	             id=host:port naming a rosd running -role backup.
//	backup       hosts a replog.Backup: receives, persists, and acks
//	             the primary's frames, serving no application traffic
//	             until `rosctl promote` makes it the guardian.
//
// Sharding (-shards, standalone role only):
//
//	-shards 2,3 hosts one guardian per listed shard id (the id doubles
//	as the guardian id) instead of the single -id guardian; requests
//	must carry a shard id, and a request for an unhosted shard is
//	refused with the node's routing table in-band. -routemap names
//	every shard in the cluster (id=host:port for -routekind hash;
//	id=host:port=start for range, ordered by start with the first
//	empty) and installs as table version 1; nodes and routed clients
//	exchange newer versions as handoffs publish them. `rosctl handoff`
//	moves a hosted shard to another node; any rosd accepts the inbound
//	transfer and serves the shard from its shipped log.
//
// SIGINT/SIGTERM drain gracefully: in-flight requests finish, then
// connections close. With -trace every rpc.* event streams to stderr
// in the golden-trace text format (rep.* events included when
// replicating). With -tracefile every event is also appended to a
// binary trace file (obs.FileSink), flushed on a periodic tick and
// fsynced after the drain, so a chaos harness can merge per-node
// traces and run the invariant checker over the whole cluster.
//
// The handlers:
//
//	get  (Str key)           -> stored value, or error
//	put  (List[Str key, V])  -> V
//	incr (List[Str key, Int delta]) -> Int new total (missing key
//	     starts at 0)
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/guardian"
	"repro/internal/ids"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/replog"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stablelog"
	"repro/internal/twopc"
	"repro/internal/value"
	"repro/internal/wire"
)

var (
	addr      = flag.String("addr", "127.0.0.1:4146", "listen address")
	id        = flag.Uint("id", 1, "guardian id")
	workers   = flag.Int("workers", 8, "request worker pool size")
	maxconns  = flag.Int("maxconns", 64, "concurrent connection limit")
	trace     = flag.Bool("trace", false, "stream rpc.* events to stderr")
	role      = flag.String("role", "standalone", "replication role: standalone, primary, backup")
	backups   = flag.String("backups", "", "primary: comma-separated id=host:port backup list")
	quorum    = flag.Int("quorum", 2, "primary: durable copies a force needs, counting the primary")
	primaryID = flag.Uint("primary-id", 1, "backup: the replicated guardian's id")
	shards    = flag.String("shards", "", "standalone: comma-separated shard ids this node hosts")
	routemap  = flag.String("routemap", "", "cluster routing table: id=host:port[=start],...")
	routekind = flag.String("routekind", "hash", "routing table kind: hash or range")
	data      = flag.String("data", "", "persistent data directory (empty: in-memory stable storage)")
	datacap   = flag.Int64("datacap", 0, "per-guardian byte cap on the -data subdirectory (0: uncapped); growth past it fails like a full disk")
	datasync  = flag.Bool("datasync", false, "fsync every stable-storage block write (off is sound for process-kill faults: the page cache survives SIGKILL)")
	tracefile = flag.String("tracefile", "", "append the binary obs event stream to this file")
)

// backend is what every served guardian runs: replication and handoff
// need a log site, and hybrid is the log that can housekeep. Simple and
// shadow are in-process comparisons only (DESIGN.md "Serving layer").
const backend = core.BackendHybrid

// dataBlockSize is the stable-device block size for -data volumes,
// matching the guardian's in-memory default.
const dataBlockSize = 512

// traceFlushEvery paces the -tracefile background flush, bounding how
// much trace a SIGKILL can cost to roughly one tick of events.
const traceFlushEvery = 100 * time.Millisecond

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rosd:", err)
		os.Exit(1)
	}
}

// stderrTracer streams each event as one text line.
type stderrTracer struct{}

func (stderrTracer) Emit(e obs.Event) { fmt.Fprintln(os.Stderr, e.Text()) }

// teeTracer fans one event out to several tracers (-trace and
// -tracefile together).
type teeTracer []obs.Tracer

func (t teeTracer) Emit(e obs.Event) {
	for _, tr := range t {
		tr.Emit(e)
	}
}

func run() error {
	var tr obs.Tracer
	if *trace {
		tr = stderrTracer{}
	}
	if *tracefile != "" {
		sink, err := obs.NewFileSink(*tracefile, fmt.Sprintf("%s-%d@%s", *role, *id, *addr))
		if err != nil {
			return err
		}
		if tr != nil {
			tr = teeTracer{sink, tr}
		} else {
			tr = sink
		}
		// The sink buffers; a background tick bounds what a SIGKILL can
		// lose, and the deferred Flush makes the graceful-drain exit
		// paths (SIGTERM included) leave a complete, fsynced trace.
		stop := make(chan struct{})
		flusherDone := make(chan struct{})
		go func() {
			defer close(flusherDone)
			t := time.NewTicker(traceFlushEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if err := sink.Flush(); err != nil {
						fmt.Fprintln(os.Stderr, "rosd: trace flush:", err)
						return
					}
				case <-stop:
					return
				}
			}
		}()
		defer func() {
			close(stop)
			<-flusherDone
			if err := sink.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "rosd: trace close:", err)
			}
		}()
	}
	cfg := server.Config{Workers: *workers, MaxConns: *maxconns, Tracer: tr}
	// Every rosd can ship a shard out (rosctl handoff) and adopt one
	// shipped in.
	cfg.HandoffShip = func(target string, hf wire.HandoffFrames) (wire.RepAck, error) {
		c := client.New(target, client.Options{Tracer: tr})
		//roslint:besteffort one-shot ship client; the HandoffInstall result carries the errors that matter
		defer c.Close()
		return c.HandoffInstall(hf)
	}
	// A guardian recovered from a receiver — a promoted backup, a shard
	// shipped in — gets the same handlers and settles the actions it
	// coordinated: their verdicts are in the log just recovered.
	cfg.OnAdopt = func(id uint32, g *guardian.Guardian) {
		registerKV(g)
		if err := settleSelf(g); err != nil {
			fmt.Fprintf(os.Stderr, "rosd: adopted shard %d: settle: %v\n", id, err)
		}
	}

	s, err := buildServer(tr, cfg)
	if err != nil {
		return err
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "rosd: draining")
		done <- s.Close()
	}()

	fmt.Fprintf(os.Stderr, "rosd: %s %d (%v) serving on %s\n", *role, *id, backend, *addr)
	if err := s.ListenAndServe(*addr); !errors.Is(err, server.ErrClosed) {
		return err
	}
	return <-done
}

// buildServer opens what this node hosts and registers each under its
// shard id: one guardian per -shards entry, else shard 0 holding the
// -id guardian (standalone, primary) or a replication receiver for it
// (backup).
func buildServer(tr obs.Tracer, cfg server.Config) (*server.Server, error) {
	sharded := strings.TrimSpace(*shards) != ""
	switch {
	case sharded && *role != "standalone":
		return nil, fmt.Errorf("-shards combines only with -role standalone (shard guardians are unreplicated)")

	case sharded:
		s := server.New(nil, cfg)
		for _, part := range strings.Split(*shards, ",") {
			n, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("-shards entry %q: want a nonzero shard id", part)
			}
			g, err := openOrNewGuardian(ids.GuardianID(n), tr)
			if err != nil {
				return nil, err
			}
			registerKV(g)
			s.AddShard(uint32(n), g)
		}
		if strings.TrimSpace(*routemap) != "" {
			t, err := parseRouteMap(*routemap, *routekind)
			if err != nil {
				return nil, err
			}
			if err := s.InstallTable(t); err != nil {
				return nil, err
			}
		}
		return s, nil

	case *role == "standalone", *role == "primary":
		g, err := openOrNewGuardian(ids.GuardianID(*id), tr)
		if err != nil {
			return nil, err
		}
		registerKV(g)
		if *role == "primary" {
			p, err := replicate(g, tr)
			if err != nil {
				return nil, err
			}
			cfg.Status = p.Status
		}
		return server.New(g, cfg), nil

	case *role == "backup":
		bcfg := replog.BackupConfig{
			ID: ids.GuardianID(*id), Primary: ids.GuardianID(*primaryID),
			Backend: backend, Tracer: tr,
		}
		if *data != "" {
			vol, err := dataVol(fmt.Sprintf("b%d", *id))
			if err != nil {
				return nil, err
			}
			bcfg.Volume = vol
		}
		bk, err := replog.NewBackup(bcfg)
		if err != nil {
			return nil, err
		}
		cfg.Backup = bk
		return server.New(nil, cfg), nil

	default:
		return nil, fmt.Errorf("unknown role %q (want standalone, primary, or backup)", *role)
	}
}

// replicate makes g the primary of the -backups set, acknowledging
// commits at -quorum durable copies.
func replicate(g *guardian.Guardian, tr obs.Tracer) (*replog.Primary, error) {
	peers, err := parseBackups(*backups)
	if err != nil {
		return nil, err
	}
	tp := client.NewTransport()
	tp.SetTracer(tr)
	reps := make([]replog.Replica, 0, len(peers))
	for _, pe := range peers {
		tp.Register(pe.id, client.New(pe.addr, client.Options{Tracer: tr}))
		r, err := tp.Replica(pe.id)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	p, err := replog.NewPrimary(replog.Config{
		Self: g.ID(), Site: g.Site(), Quorum: *quorum,
		Net: tp, Replicas: reps, Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	g.SetReplicator(p)
	return p, nil
}

// dataVol opens (creating if needed) the persistent volume under
// -data/<sub>. With -datacap the subdirectory is size-capped, so each
// guardian fills its own "disk" independently.
func dataVol(sub string) (*stablelog.FileVolume, error) {
	dir := filepath.Join(*data, sub)
	if *datacap > 0 {
		return stablelog.NewFileVolumeCapped(dir, dataBlockSize, *datasync, *datacap)
	}
	return stablelog.NewFileVolume(dir, dataBlockSize, *datasync)
}

// openOrNewGuardian builds the guardian for gid: in memory when -data
// is unset, otherwise recovered from (or created in) the g<gid>
// subdirectory. An existing site recovers through guardian.Open; a
// directory with no completed site (first boot, or a crash before
// creation finished) falls through to guardian.New on the same volume.
func openOrNewGuardian(gid ids.GuardianID, tr obs.Tracer) (*guardian.Guardian, error) {
	if *data == "" {
		return guardian.New(gid, guardian.WithBackend(backend), guardian.WithTracer(tr))
	}
	vol, err := dataVol(fmt.Sprintf("g%d", gid))
	if err != nil {
		return nil, err
	}
	g, err := guardian.Open(gid, vol, backend, guardian.WithTracer(tr))
	if errors.Is(err, stablelog.ErrNoSite) {
		g, err = guardian.New(gid, guardian.WithBackend(backend), guardian.WithTracer(tr), guardian.WithVolume(vol))
	}
	if err != nil {
		return nil, err
	}
	if err := settleSelf(g); err != nil {
		return nil, fmt.Errorf("guardian %d: settle recovered actions: %w", gid, err)
	}
	return g, nil
}

// settleSelf resolves the recovered guardian's own in-doubt actions:
// for an action this guardian coordinated, its coordinator log is the
// authority — a surviving committing record means committed, anything
// less is the presumed abort (§2.2.3). Actions prepared here for a
// foreign coordinator are left in doubt; only that coordinator (or an
// operator re-driving outcomes through rosctl) may settle them.
func settleSelf(g *guardian.Guardian) error {
	for _, aid := range g.InDoubt() {
		if aid.Coordinator != g.ID() {
			continue
		}
		var err error
		if g.OutcomeOf(aid) == twopc.OutcomeCommitted {
			err = g.HandleCommit(aid)
		} else {
			err = g.HandleAbort(aid)
		}
		if err != nil {
			return fmt.Errorf("action %v: %w", aid, err)
		}
	}
	return nil
}

// parseRouteMap reads -routemap into a version-1 table. Entries are
// id=host:port for a hash table, id=host:port=start for a range table
// (in range order; the first start is the empty string).
func parseRouteMap(m, kind string) (shard.Table, error) {
	t := shard.Table{Version: 1}
	switch kind {
	case "hash":
		t.Kind = shard.KindHash
	case "range":
		t.Kind = shard.KindRange
	default:
		return shard.Table{}, fmt.Errorf("unknown -routekind %q (want hash or range)", kind)
	}
	for _, part := range strings.Split(m, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), "=", 3)
		if t.Kind == shard.KindRange && len(fields) != 3 {
			return shard.Table{}, fmt.Errorf("-routemap entry %q: want id=host:port=start", part)
		}
		if len(fields) < 2 {
			return shard.Table{}, fmt.Errorf("-routemap entry %q: want id=host:port", part)
		}
		n, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil || n == 0 {
			return shard.Table{}, fmt.Errorf("-routemap entry %q: want a nonzero shard id", part)
		}
		if fields[1] == "" {
			return shard.Table{}, fmt.Errorf("-routemap entry %q: empty address", part)
		}
		sh := shard.Shard{ID: shard.ID(n), Addr: fields[1]}
		if t.Kind == shard.KindRange {
			sh.Start = fields[2]
		}
		t.Shards = append(t.Shards, sh)
	}
	if err := t.Validate(); err != nil {
		return shard.Table{}, fmt.Errorf("-routemap: %w", err)
	}
	return t, nil
}

// backupPeer is one -backups entry.
type backupPeer struct {
	id   ids.GuardianID
	addr string
}

// parseBackups reads the -backups list: comma-separated id=host:port.
func parseBackups(s string) ([]backupPeer, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-role primary needs a -backups list (id=host:port,...)")
	}
	var peers []backupPeer
	for _, part := range strings.Split(s, ",") {
		gid, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("backup entry %q: want id=host:port", part)
		}
		n, err := strconv.ParseUint(gid, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("backup entry %q: id: %v", part, err)
		}
		if addr == "" {
			return nil, fmt.Errorf("backup entry %q: empty address", part)
		}
		peers = append(peers, backupPeer{id: ids.GuardianID(n), addr: addr})
	}
	return peers, nil
}

// registerKV installs the key/value handlers. Keys are stable
// variables holding atomic objects, so every committed put/incr
// survives a crash and every action sees a consistent version (§2.1).
func registerKV(g *guardian.Guardian) {
	// keyObj fetches (or, when create is set, makes and registers) the
	// atomic behind a key.
	keyObj := func(sub *guardian.Sub, key string, create bool) (*object.Atomic, error) {
		if o, ok := g.VarAtomic(key); ok {
			return o, nil
		}
		if !create {
			return nil, fmt.Errorf("no such key %q", key)
		}
		o, err := sub.NewAtomic(value.Int(0))
		if err != nil {
			return nil, err
		}
		if err := sub.SetVar(key, o); err != nil {
			return nil, err
		}
		return o, nil
	}

	g.RegisterHandler("get", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		key, ok := arg.(value.Str)
		if !ok {
			return nil, fmt.Errorf("get wants a Str key")
		}
		o, err := keyObj(sub, string(key), false)
		if err != nil {
			return nil, err
		}
		return sub.Read(o)
	})

	g.RegisterHandler("put", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		l, ok := arg.(*value.List)
		if !ok || len(l.Elems) != 2 {
			return nil, fmt.Errorf("put wants List[key, value]")
		}
		key, ok := l.Elems[0].(value.Str)
		if !ok {
			return nil, fmt.Errorf("put wants a Str key")
		}
		o, err := keyObj(sub, string(key), true)
		if err != nil {
			return nil, err
		}
		if err := sub.Set(o, l.Elems[1]); err != nil {
			return nil, err
		}
		return sub.Read(o)
	})

	g.RegisterHandler("incr", func(sub *guardian.Sub, arg value.Value) (value.Value, error) {
		key, delta, err := incrArgs(arg)
		if err != nil {
			return nil, err
		}
		o, err := keyObj(sub, key, true)
		if err != nil {
			return nil, err
		}
		if err := sub.Update(o, func(cur value.Value) value.Value {
			n, _ := cur.(value.Int)
			return n + delta
		}); err != nil {
			return nil, err
		}
		return sub.Read(o)
	})
}

func incrArgs(arg value.Value) (string, value.Int, error) {
	switch a := arg.(type) {
	case value.Str:
		return string(a), 1, nil
	case *value.List:
		if len(a.Elems) == 2 {
			key, kok := a.Elems[0].(value.Str)
			delta, dok := a.Elems[1].(value.Int)
			if kok && dok {
				return string(key), delta, nil
			}
		}
	}
	return "", 0, fmt.Errorf("incr wants a Str key or List[key, delta]")
}
