// Command rosctl talks to a running rosd over its wire protocol: a
// small operator CLI for poking the served guardian.
//
// Usage:
//
//	rosctl [-addr 127.0.0.1:4146] [-timeout 5s] <command> [args]
//
// Commands:
//
//	ping                  round-trip a frame
//	get <key>             read a key's committed value over the
//	                      index-served read path (OpGet): no action, no
//	                      lock, no log force
//	put <key> <value>     store a value (int if it parses, else string)
//	incr <key> [delta]    add delta (default 1) and print the new total
//	                      (get, put and incr address shard 0 of an
//	                      unsharded node and, against a sharded cluster,
//	                      route to the key's owning shard)
//	status                report replication role, epoch, durable and
//	                      quorum-acked log bytes, replica health, the
//	                      live-version index counters (hits, misses,
//	                      entries, bytes), and one row per hosted shard
//	route                 print the server's shard routing table
//	handoff <id> <addr>   transfer a hosted shard to the node at addr
//	                      and print the routing table the server
//	                      published afterwards
//	txn <key=delta> ...   run one cross-shard atomic action against a
//	                      sharded cluster (-addr is the seed node):
//	                      fetch the routing table, incr every key at
//	                      its owning shard as a joined participant,
//	                      and drive two-phase commit across them. All
//	                      increments commit or none do.
//	promote [minAcked]    make the server's hosted backup take over as
//	                      the guardian (explicit failover; idempotent).
//	                      With minAcked — the deposed primary's last
//	                      quorum-acked byte count, from its final
//	                      status report — the server refuses a backup
//	                      whose received log is shorter: promoting it
//	                      would silently drop an acknowledged commit
//	                      held only by a longer, unreachable copy.
//	                      Without minAcked the promotion is forced.
//
// Every command runs as one complete atomic action at the server: put
// and incr are committed (and durable) before rosctl prints.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/shard"
	"repro/internal/value"
	"repro/internal/wire"
)

var (
	addr    = flag.String("addr", "127.0.0.1:4146", "rosd address")
	timeout = flag.Duration("timeout", 5*time.Second, "per-request timeout")
)

func main() {
	flag.Parse()
	if err := run(flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "rosctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: rosctl [flags] ping|get|put|incr|status|promote ...")
	}
	c := client.New(*addr, client.Options{CallTimeout: *timeout})
	//roslint:besteffort process exit follows immediately; the command's own error is what matters
	defer c.Close()

	switch cmd := args[0]; cmd {
	case "ping":
		start := time.Now()
		if err := c.Ping(); err != nil {
			return err
		}
		fmt.Printf("pong (%v)\n", time.Since(start).Round(time.Microsecond))
		return nil
	case "get":
		if len(args) != 2 {
			return fmt.Errorf("usage: rosctl get <key>")
		}
		return keyed(c, args[1], func(c *client.Client, sh uint32) (value.Value, error) {
			return c.GetShard(sh, args[1])
		})
	case "put":
		if len(args) != 3 {
			return fmt.Errorf("usage: rosctl put <key> <value>")
		}
		return keyed(c, args[1], invoke("put", value.NewList(value.Str(args[1]), parseValue(args[2]))))
	case "incr":
		if len(args) != 2 && len(args) != 3 {
			return fmt.Errorf("usage: rosctl incr <key> [delta]")
		}
		delta := int64(1)
		if len(args) == 3 {
			n, err := strconv.ParseInt(args[2], 10, 64)
			if err != nil {
				return fmt.Errorf("delta %q: %v", args[2], err)
			}
			delta = n
		}
		return keyed(c, args[1], invoke("incr", value.NewList(value.Str(args[1]), value.Int(delta))))
	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		printStatus(st.Rep)
		for _, row := range st.Shards {
			fmt.Printf("shard %d: role=%v durable=%d bytes idx=%d/%d hits/misses\n",
				row.ID, row.Role, row.Durable, row.IdxHits, row.IdxMisses)
		}
		return nil
	case "route":
		t, err := c.Route()
		if err != nil {
			return err
		}
		printTable(t)
		return nil
	case "handoff":
		if len(args) != 3 {
			return fmt.Errorf("usage: rosctl handoff <shardID> <targetAddr>")
		}
		id, perr := strconv.ParseUint(args[1], 10, 32)
		if perr != nil {
			return fmt.Errorf("shardID %q: %v", args[1], perr)
		}
		t, err := c.Handoff(uint32(id), args[2])
		if err != nil {
			return err
		}
		printTable(t)
		return nil
	case "txn":
		if len(args) < 2 {
			return fmt.Errorf("usage: rosctl txn <key=delta> [key=delta ...]")
		}
		return runTxn(args[1:])
	case "promote":
		if len(args) > 2 {
			return fmt.Errorf("usage: rosctl promote [minAckedBytes]")
		}
		var st wire.RepStatus
		var err error
		if len(args) == 2 {
			min, perr := strconv.ParseUint(args[1], 10, 64)
			if perr != nil {
				return fmt.Errorf("minAckedBytes %q: %v", args[1], perr)
			}
			st, err = c.PromoteMin(min)
		} else {
			st, err = c.Promote()
		}
		if err != nil {
			return err
		}
		printStatus(st)
		return nil
	default:
		return fmt.Errorf("unknown command %q (want ping, get, put, incr, status, route, handoff, txn, or promote)", cmd)
	}
}

// invoke is the keyed op running handler as one complete atomic action.
func invoke(handler string, arg value.Value) func(*client.Client, uint32) (value.Value, error) {
	return func(c *client.Client, sh uint32) (value.Value, error) { return c.InvokeShard(sh, handler, arg) }
}

// keyed sends op to the shard owning key and prints the result — the
// one addressing path of get, put and incr. Shard 0 of -addr is the
// whole store on an unsharded node; a node that hosts routed shards
// instead refuses it with its routing table in-band, and op re-runs at
// the owner that table names.
func keyed(c *client.Client, key string, op func(c *client.Client, sh uint32) (value.Value, error)) error {
	v, err := op(c, 0)
	var wse *client.WrongShardError
	if errors.As(err, &wse) {
		if tbl, terr := wse.Table(); terr == nil {
			owner := tbl.Owner(key)
			oc := client.New(owner.Addr, client.Options{CallTimeout: *timeout})
			//roslint:besteffort process exit follows immediately; the request's own error is what matters
			defer oc.Close()
			v, err = op(oc, uint32(owner.ID))
		}
	}
	if err != nil {
		return err
	}
	fmt.Println(value.String(v))
	return nil
}

// runTxn drives one cross-shard atomic action: every key=delta pair
// becomes an incr at the key's owning shard, joined to a single action
// committed by two-phase commit across the participating shards.
func runTxn(pairs []string) error {
	type op struct {
		key   string
		delta int64
	}
	ops := make([]op, 0, len(pairs))
	for _, p := range pairs {
		key, ds, ok := strings.Cut(p, "=")
		if !ok || key == "" {
			return fmt.Errorf("txn argument %q: want key=delta", p)
		}
		d, err := strconv.ParseInt(ds, 10, 64)
		if err != nil {
			return fmt.Errorf("txn argument %q: delta: %v", p, err)
		}
		ops = append(ops, op{key: key, delta: d})
	}
	r := client.NewRouted([]string{*addr}, client.Options{CallTimeout: *timeout})
	//roslint:besteffort process exit follows immediately; the transaction's own error is what matters
	defer r.Close()
	t, err := r.Begin(ops[0].key)
	if err != nil {
		return err
	}
	for _, o := range ops {
		v, err := t.Invoke(o.key, "incr", value.NewList(value.Str(o.key), value.Int(o.delta)))
		if err != nil {
			//roslint:besteffort abort after a failed invoke is advisory; the guardians time the action out regardless
			_ = t.Abort()
			return fmt.Errorf("incr %s: %w", o.key, err)
		}
		fmt.Printf("%s = %s\n", o.key, value.String(v))
	}
	res, err := t.Commit()
	if err != nil {
		return fmt.Errorf("commit %v: %w", t.AID(), err)
	}
	fmt.Printf("action %v: %v\n", t.AID(), res.Outcome)
	return nil
}

// printTable renders a routing table one shard per line.
func printTable(t shard.Table) {
	fmt.Printf("version: %d (%v over %d shards)\n", t.Version, t.Kind, len(t.Shards))
	for _, s := range t.Shards {
		fmt.Printf("shard %d: %s\n", s.ID, s.Addr)
	}
}

// printStatus renders a RepStatus one field per line; the quorum lines
// only apply to a primary that is actually shipping to backups (a
// freshly promoted backup is a primary with no replica set yet).
func printStatus(st wire.RepStatus) {
	fmt.Printf("role:    %v\n", st.Role)
	fmt.Printf("epoch:   %d\n", st.Epoch)
	fmt.Printf("durable: %d bytes\n", st.Durable)
	fmt.Printf("idx:     hits=%d misses=%d entries=%d bytes=%d\n",
		st.IdxHits, st.IdxMisses, st.IdxEntries, st.IdxBytes)
	if st.Role == wire.RolePrimary && st.Replicas > 0 {
		fmt.Printf("quorum:  %d bytes acked by %d of %d copies\n", st.QuorumBytes, st.Quorum, st.Replicas+1)
		fmt.Printf("backups: %d of %d answering\n", st.Alive, st.Replicas)
	}
}

// parseValue reads an argument as an Int when it parses as one, a Str
// otherwise.
func parseValue(s string) value.Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return value.Int(n)
	}
	return value.Str(s)
}
