package main

import (
	"fmt"
	"net"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/shard"
)

// This file is the real multi-process smoke: three rosd processes
// hosting four shards, driven end to end by rosctl over TCP — build
// both binaries, form the cluster with -shards/-routemap, and commit a
// cross-shard transaction spanning all three processes.

// buildBinaries compiles rosd and rosctl into the test's temp dir.
func buildBinaries(t *testing.T) (rosdBin, rosctlBin string) {
	t.Helper()
	dir := t.TempDir()
	rosdBin = dir + "/rosd"
	rosctlBin = dir + "/rosctl"
	for _, b := range [][2]string{{rosdBin, "repro/cmd/rosd"}, {rosctlBin, "repro/cmd/rosctl"}} {
		cmd := exec.Command("go", "build", "-o", b[0], b[1])
		cmd.Dir = "../.."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	return rosdBin, rosctlBin
}

// freeAddrs reserves n distinct loopback addresses. The listeners are
// closed before rosd binds them — the usual small race, retried away
// by the ping loop.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

// ctl runs one rosctl command against addr and returns its combined
// output.
func ctl(t *testing.T, bin, addr string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, append([]string{"-addr", addr, "-timeout", "5s"}, args...)...).CombinedOutput()
	return string(out), err
}

// TestShardedClusterSmoke: 3 processes, 4 shards, one rosctl-driven
// cross-shard transaction committing atomically over real TCP.
func TestShardedClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short mode")
	}
	rosdBin, rosctlBin := buildBinaries(t)
	addrs := freeAddrs(t, 3)

	// Shards 2 and 3 on node 0, shard 4 on node 1, shard 5 on node 2.
	table := shard.Table{Version: 1, Kind: shard.KindHash, Shards: []shard.Shard{
		{ID: 2, Addr: addrs[0]}, {ID: 3, Addr: addrs[0]},
		{ID: 4, Addr: addrs[1]}, {ID: 5, Addr: addrs[2]},
	}}
	routemap := fmt.Sprintf("2=%s,3=%s,4=%s,5=%s", addrs[0], addrs[0], addrs[1], addrs[2])
	nodes := [][]string{
		{"-addr", addrs[0], "-shards", "2,3", "-routemap", routemap},
		{"-addr", addrs[1], "-shards", "4", "-routemap", routemap},
		{"-addr", addrs[2], "-shards", "5", "-routemap", routemap},
	}
	for _, args := range nodes {
		cmd := exec.Command(rosdBin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			//roslint:besteffort test teardown of a deliberately killed process
			_ = cmd.Process.Kill()
			//roslint:besteffort reaping the killed process; its exit status is meaningless
			_ = cmd.Wait()
		})
	}
	for _, addr := range addrs {
		waitUp(t, rosctlBin, addr)
	}

	// Pick one key per shard in {2, 4, 5} so the transaction spans all
	// three processes. The hash table ignores addresses, so the local
	// copy computes the same owners the cluster does.
	keys := map[shard.ID]string{}
	for i := 0; i < 1000 && len(keys) < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		owner := table.Owner(k)
		if _, taken := keys[owner.ID]; !taken && owner.ID != 3 {
			keys[owner.ID] = k
		}
	}
	if len(keys) < 3 {
		t.Fatalf("could not find keys covering shards 2, 4, 5: %v", keys)
	}

	// Drive the cross-shard transaction from node 1, which hosts only
	// shard 4 — the other two legs must route.
	out, err := ctl(t, rosctlBin, addrs[1], "txn",
		keys[2]+"=5", keys[4]+"=7", keys[5]+"=9")
	if err != nil {
		t.Fatalf("txn: %v\n%s", err, out)
	}
	for _, want := range []string{keys[2] + " = 5", keys[4] + " = 7", keys[5] + " = 9", "committed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("txn output missing %q:\n%s", want, out)
		}
	}

	// Read the keys back through a different seed node: the committed
	// values are durable at their owning shards, not at the seed.
	out, err = ctl(t, rosctlBin, addrs[2], "txn",
		keys[2]+"=0", keys[4]+"=0", keys[5]+"=0")
	if err != nil {
		t.Fatalf("read-back txn: %v\n%s", err, out)
	}
	for _, want := range []string{keys[2] + " = 5", keys[4] + " = 7", keys[5] + " = 9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("read-back missing %q:\n%s", want, out)
		}
	}

	// rosctl route: every node publishes the installed table.
	out, err = ctl(t, rosctlBin, addrs[0], "route")
	if err != nil {
		t.Fatalf("route: %v\n%s", err, out)
	}
	for _, want := range []string{"version: 1", "shard 2: " + addrs[0], "shard 5: " + addrs[2]} {
		if !strings.Contains(out, want) {
			t.Fatalf("route output missing %q:\n%s", want, out)
		}
	}

	// rosctl get: an index-served read routed to the key's owning
	// shard — the committed value, no action at the server.
	out, err = ctl(t, rosctlBin, addrs[1], "get", keys[5])
	if err != nil {
		t.Fatalf("get: %v\n%s", err, out)
	}
	if strings.TrimSpace(out) != "9" {
		t.Fatalf("get %s = %q, want 9", keys[5], strings.TrimSpace(out))
	}

	// rosctl incr and put route by key exactly as get does: neither
	// node asked hosts the key's shard (or anything as shard 0).
	out, err = ctl(t, rosctlBin, addrs[1], "incr", keys[5], "2")
	if err != nil || strings.TrimSpace(out) != "11" {
		t.Fatalf("incr %s 2 = %q (%v), want 11", keys[5], strings.TrimSpace(out), err)
	}
	out, err = ctl(t, rosctlBin, addrs[2], "put", keys[2], "42")
	if err != nil || strings.TrimSpace(out) != "42" {
		t.Fatalf("put %s 42 = %q (%v), want 42", keys[2], strings.TrimSpace(out), err)
	}
	out, err = ctl(t, rosctlBin, addrs[1], "get", keys[2])
	if err != nil || strings.TrimSpace(out) != "42" {
		t.Fatalf("get %s = %q (%v), want 42", keys[2], strings.TrimSpace(out), err)
	}

	// rosctl status: the two-shard node reports one row per shard plus
	// the node's aggregated index counters; node 2 (which just served
	// the routed get of keys[5]) must have recorded the hit.
	out, err = ctl(t, rosctlBin, addrs[0], "status")
	if err != nil {
		t.Fatalf("status: %v\n%s", err, out)
	}
	for _, want := range []string{"shard 2:", "shard 3:", "idx:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
	out, err = ctl(t, rosctlBin, addrs[2], "status")
	if err != nil {
		t.Fatalf("status: %v\n%s", err, out)
	}
	if strings.Contains(out, "hits=0 ") {
		t.Fatalf("node 2 served an index read but reports zero hits:\n%s", out)
	}
}

// waitUp pings addr until the server answers.
func waitUp(t *testing.T, rosctlBin, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		out, err := ctl(t, rosctlBin, addr, "ping")
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("rosd at %s never came up: %v\n%s", addr, err, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
