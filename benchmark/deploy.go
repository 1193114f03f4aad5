package main

// Deployments: what a workload's calls land on. Every store, server and
// router is built with its package's default options; only directories, the
// two wrapped seams, fences and the key mode are set.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const loopback = "127.0.0.1:0"

// deployment is a built system under test and the handles the benchmark
// reads counters from.
type deployment[K uint64 | string] struct {
	t        target[K]
	stores   []*store // the primaries, in node order
	dirs     []string // their directories; empty strings when in memory
	fences   []K      // node i owns [fences[i-1], fences[i])
	servers  []*wireServer
	cl       *cluster
	follower *store    // replays node 0, or nil
	fs       *countFS  // nil when nothing is persistent
	net      *countNet // nil when nothing is on the wire
}

// deploy builds the system a spec describes over the preloaded keys. Files go
// under root, which must not exist yet.
func deploy[K uint64 | string](sp *spec, pre []K, root string) (d *deployment[K], err error) {
	d = &deployment[K]{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if sp.disk {
		d.fs = newCountFS(osFS)
	}
	nodes := max(sp.nodes, 1)
	for i := 0; i < nodes; i++ {
		lo, hi := i*len(pre)/nodes, (i+1)*len(pre)/nodes
		if i > 0 {
			d.fences = append(d.fences, pre[lo])
		}
		dir := ""
		var fs fsFS
		if sp.disk {
			dir, fs = filepath.Join(root, fmt.Sprintf("node%d", i)), d.fs
		}
		st, err := openStore(pre[lo:hi], dir, fs)
		if err != nil {
			return d, fmt.Errorf("open node %d: %w", i, err)
		}
		d.stores, d.dirs = append(d.stores, st), append(d.dirs, dir)
	}
	if sp.nodes == 0 {
		d.t = storeTarget[K](d.stores[0])
		return d, nil
	}

	d.net = newCountNet(tcpTransport)
	var addrs []string
	for i, st := range d.stores {
		srv, err := startServer(st, d.net, loopback)
		if err != nil {
			return d, fmt.Errorf("serve node %d: %w", i, err)
		}
		d.servers = append(d.servers, srv)
		addrs = append(addrs, srv.addr())
	}
	if d.cl, err = newRouter(addrs, d.fences, d.net); err != nil {
		return d, fmt.Errorf("router: %w", err)
	}
	d.t = routerTarget[K](d.cl)

	if sp.follower {
		// Replication and the follower's disk stay off the counted seams, so
		// wire.* is the router's traffic and vfs.* the primaries' writes.
		addr, err := d.stores[0].serveReplication(tcpTransport, loopback)
		if err != nil {
			return d, fmt.Errorf("serve replication: %w", err)
		}
		d.follower, err = openFollower(sp.str, filepath.Join(root, "follower"), osFS, tcpTransport, addr)
		if err != nil {
			return d, fmt.Errorf("open follower: %w", err)
		}
		want := len(pre) / nodes
		if err := waitFor(30*time.Second, func() bool { return d.follower.countAll() == want }); err != nil {
			return d, fmt.Errorf("follower baseline: %w", err)
		}
	}
	return d, nil
}

// close stops everything deploy started, front to back, and waits for it.
func (d *deployment[K]) close() {
	if d.cl != nil {
		d.cl.close()
	}
	for _, s := range d.servers {
		s.close()
	}
	if d.follower != nil {
		d.follower.close()
	}
	for _, st := range d.stores {
		st.close()
	}
}

// owner is the node that owns key k.
func (d *deployment[K]) owner(k K) int {
	n := 0
	for n < len(d.fences) && k >= d.fences[n] {
		n++
	}
	return n
}

// storeMetrics snapshots every primary's registry.
func (d *deployment[K]) storeMetrics() []*metrics {
	out := make([]*metrics, len(d.stores))
	for i, st := range d.stores {
		out[i] = st.metrics()
	}
	return out
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}
