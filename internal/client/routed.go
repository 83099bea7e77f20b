package client

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// Routed is a table-aware client over a sharded cluster: it fetches
// the routing table from seed nodes, maps each key to its owning shard
// (shard.Table.Owner), and sends the request to the node hosting that
// shard. A wrong-shard refusal carries the refusing server's table
// in-band; the routed client installs it when newer, refreshes from
// the seeds when it is not (the refuser may itself be stale), and
// retries — so a client that raced a handoff converges in one or two
// extra round trips without operator help.
//
// Safe for concurrent use. Per-node Clients are created lazily and
// owned by the Routed client; Close closes them all.
type Routed struct {
	seeds []string
	opt   Options

	// tp presents the per-shard clients as a transport.Transport, so
	// the twopc coordinator drives cross-shard commits through the
	// identical interface the simulated network implements.
	tp *Transport

	mu      sync.Mutex
	table   shard.Table
	have    bool
	clients map[string]*Client
}

// NewRouted returns a routed client seeded with the addresses of one
// or more cluster nodes. No I/O happens until the first call.
func NewRouted(seeds []string, opt Options) *Routed {
	return &Routed{
		seeds:   seeds,
		opt:     opt.withDefaults(),
		tp:      NewTransport(),
		clients: make(map[string]*Client),
	}
}

// Transport returns the routed client's transport view of the cluster:
// one peer per shard, kept registered as tables install.
func (r *Routed) Transport() *Transport { return r.tp }

// Close closes every per-node client.
func (r *Routed) Close() error {
	r.mu.Lock()
	addrs := make([]string, 0, len(r.clients))
	//roslint:nondet draining the client pool for teardown; closing order does not matter beyond determinism, sorted below
	for a := range r.clients {
		addrs = append(addrs, a)
	}
	clients := make([]*Client, 0, len(addrs))
	sort.Strings(addrs)
	for _, a := range addrs {
		clients = append(clients, r.clients[a])
	}
	r.clients = make(map[string]*Client)
	r.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *Routed) emit(e obs.Event) {
	if r.opt.Tracer != nil {
		r.opt.Tracer.Emit(e)
	}
}

// client returns (creating if needed) the client for a node address.
func (r *Routed) client(addr string) *Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clientLocked(addr)
}

func (r *Routed) clientLocked(addr string) *Client {
	if c, ok := r.clients[addr]; ok {
		return c
	}
	c := New(addr, r.opt)
	r.clients[addr] = c
	return c
}

// Table returns the currently installed routing table.
func (r *Routed) Table() (shard.Table, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.table, r.have
}

// Install adopts a routing table when strictly newer than the current
// one (equal versions are a no-op; older ones fail wrapping
// transport.ErrStaleRoute) and re-registers the transport's per-shard
// peers from it.
func (r *Routed) Install(t shard.Table) error {
	if err := t.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	if r.have && t.Version <= r.table.Version {
		cur := r.table.Version
		r.mu.Unlock()
		if t.Version == cur {
			return nil
		}
		return fmt.Errorf("client: table v%d offered, v%d installed: %w", t.Version, cur, transport.ErrStaleRoute)
	}
	r.table = t
	r.have = true
	for _, s := range t.Shards {
		r.tp.Register(ids.GuardianID(s.ID), r.clientLocked(s.Addr))
	}
	r.mu.Unlock()
	r.emit(obs.Event{Kind: obs.KindShardInstall, Durable: t.Version, Bytes: len(t.Shards)})
	return nil
}

// Refresh polls every seed for its routing table and installs the
// newest. It succeeds when at least one seed answers.
func (r *Routed) Refresh() (shard.Table, error) {
	if len(r.seeds) == 0 {
		return shard.Table{}, errors.New("client: no seeds configured")
	}
	var best shard.Table
	var found bool
	var last error
	for _, addr := range r.seeds {
		t, err := r.client(addr).Route()
		if err != nil {
			last = err
			continue
		}
		if !found || t.Version > best.Version {
			best, found = t, true
		}
	}
	if !found {
		return shard.Table{}, fmt.Errorf("client: no seed answered a route query: %w", last)
	}
	if err := r.Install(best); err != nil && !errors.Is(err, transport.ErrStaleRoute) {
		return shard.Table{}, err
	}
	t, _ := r.Table()
	r.emit(obs.Event{Kind: obs.KindShardRoute, Durable: t.Version})
	return t, nil
}

// tableOrRefresh returns the installed table, fetching one from the
// seeds on first use.
func (r *Routed) tableOrRefresh() (shard.Table, error) {
	if t, ok := r.Table(); ok {
		return t, nil
	}
	return r.Refresh()
}

// call routes one key-addressed request: it addresses req to the shard
// owning key, sends it to the node hosting that shard, and returns the
// reply with the owner it came from. A wrong-shard refusal hands back
// the refuser's table; call installs it, falls back to a seed refresh
// when that made no progress, and re-routes. The refusal happens before
// the server dispatches to any guardian, so re-sending is always safe
// regardless of the operation.
func (r *Routed) call(key string, req wire.Request) (wire.Response, shard.Shard, error) {
	for attempt := 1; ; attempt++ {
		tbl, err := r.tableOrRefresh()
		if err != nil {
			return wire.Response{}, shard.Shard{}, err
		}
		owner := tbl.Owner(key)
		req.Shard = uint32(owner.ID)
		resp, err := r.client(owner.Addr).call(req)
		var wse *WrongShardError
		if !errors.As(err, &wse) {
			return resp, owner, err
		}
		r.routeCorrection(uint64(owner.ID), tbl.Version, wse)
		if attempt >= r.opt.MaxAttempts {
			return wire.Response{}, owner, fmt.Errorf("client: key %q still misrouted after %d attempts: %w", key, attempt, err)
		}
		r.opt.Clock.Sleep(r.opt.backoff(attempt))
	}
}

// callValue is call for the requests whose reply is a flattened value.
func (r *Routed) callValue(key string, req wire.Request) (value.Value, shard.Shard, error) {
	resp, owner, err := r.call(key, req)
	if err != nil {
		return nil, owner, err
	}
	v, err := unflatten(resp.Result)
	if err != nil {
		return nil, owner, fmt.Errorf("client: result: %w", err)
	}
	return v, owner, nil
}

// routeCorrection digests one wrong-shard refusal: install the
// in-band table, or refresh from the seeds when the refuser's table is
// no newer than ours (both sides stale).
func (r *Routed) routeCorrection(sh uint64, haveVersion uint64, wse *WrongShardError) {
	t, err := wse.Table()
	if err == nil {
		r.emit(obs.Event{Kind: obs.KindShardWrong, From: sh, Durable: t.Version})
		if t.Version > haveVersion {
			//roslint:besteffort a racing install may already have adopted a newer table; the retry re-reads it
			_ = r.Install(t)
			return
		}
	} else {
		r.emit(obs.Event{Kind: obs.KindShardWrong, From: sh})
	}
	//roslint:besteffort refresh failure leaves the old table; the retry loop bounds further attempts
	_, _ = r.Refresh()
}

// Get routes a read of key's committed value (OpGet, the index-served
// path) to the shard owning key.
func (r *Routed) Get(key string) (value.Value, error) {
	v, _, err := r.callValue(key, wire.Request{Op: wire.OpGet, Handler: key})
	return v, err
}

// Invoke routes a complete single-key atomic action to the shard
// owning key and returns its result.
func (r *Routed) Invoke(key, handler string, arg value.Value) (value.Value, error) {
	v, _, err := r.callValue(key, invokeReq(ids.ActionID{}, handler, arg))
	return v, err
}
