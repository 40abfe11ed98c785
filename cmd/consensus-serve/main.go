// Command consensus-serve runs one node of a live replicated KV
// cluster: the internal/shard sharded store, raft or multipaxos per
// shard group, served over TCP by the internal/live runtime.
//
// A 3-node local cluster:
//
//	consensus-serve -id 0 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	consensus-serve -id 1 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//	consensus-serve -id 2 -peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 &
//
// SIGINT/SIGTERM shuts the node down gracefully and prints a summary.
// Its reconnects= counts redials this node made: a node pair shares one
// connection, which the lower ID dials, so the highest ID always
// reports 0.
// -metrics serves JSON counters on /metrics (and /healthz).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fortyconsensus/internal/live"
	"fortyconsensus/internal/types"
)

func main() {
	var (
		id      = flag.Int("id", 0, "this node's ID (index into -peers)")
		peers   = flag.String("peers", "", "comma-separated peer addresses; index = node ID")
		shards  = flag.Int("shards", 2, "consensus groups (shard count)")
		backend = flag.String("backend", live.BackendRaft, "consensus backend: raft | multipaxos")
		tick    = flag.Duration("tick", 2*time.Millisecond, "wall-clock length of one protocol tick")
		metrics = flag.String("metrics", "", "HTTP metrics address (empty = disabled)")
		seed    = flag.Uint64("seed", 1, "protocol RNG seed (election jitter)")
		join    = flag.Bool("join", false, "start passive as a fresh joiner; vote it in with consensus-admin add-node")
		every   = flag.Int("snapshot-every", 0, "compact each group's log every N applied slots (0 = never)")
	)
	flag.Parse()

	list := strings.Split(*peers, ",")
	if *peers == "" || len(list) < 1 {
		fmt.Fprintln(os.Stderr, "consensus-serve: -peers is required")
		os.Exit(2)
	}
	if *id < 0 || *id >= len(list) {
		fmt.Fprintf(os.Stderr, "consensus-serve: -id %d out of range for %d peers\n", *id, len(list))
		os.Exit(2)
	}
	addrs := make(map[types.NodeID]string, len(list))
	for i, a := range list {
		addrs[types.NodeID(i)] = strings.TrimSpace(a)
	}

	srv, err := live.NewServer(live.ServerConfig{
		Self:          types.NodeID(*id),
		Addrs:         addrs,
		Shards:        *shards,
		Backend:       *backend,
		TickEvery:     *tick,
		Seed:          *seed,
		Join:          *join,
		SnapshotEvery: *every,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "consensus-serve: %v\n", err)
		os.Exit(1)
	}
	srv.Start()
	fmt.Printf("consensus-serve: node %d serving %s (%d shards, %s) on %s\n",
		*id, srv.Addr(), *shards, *backend, addrs[types.NodeID(*id)])

	if *metrics != "" {
		maddr, err := srv.ServeMetrics(*metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "consensus-serve: metrics: %v\n", err)
			srv.Close()
			os.Exit(1)
		}
		fmt.Printf("consensus-serve: metrics on http://%s/metrics\n", maddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("consensus-serve: node %d: %v, shutting down\n", *id, s)
	srv.Close()

	m := srv.Metrics()
	ts := srv.TransportStats()
	fmt.Printf("consensus-serve: node %d done committed=%d applied=%d sent=%d dropped=%d reconnects=%d\n",
		*id, m.Committed(), m.Applied(), ts.Sent, ts.Dropped, ts.Reconnects)
}
