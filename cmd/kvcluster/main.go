// Command kvcluster launches a sharded, replicated kvstore cluster
// (DESIGN.md §8) in one process: N primary nodes, optionally each with an
// attached follower, and the versioned partition map a cluster client routes
// by. The map is printed as JSON (and optionally written to a file) so
// clients in other processes can pick it up, then the cluster serves until
// SIGINT/SIGTERM.
//
//	kvcluster -shards 3 -replicate
//	kvcluster -shards 3 -replicate -map-out cluster-map.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"smartflux/internal/kvstore/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "kvcluster:", err)
		os.Exit(1)
	}
}

// run starts the cluster and blocks until a signal arrives. ready, when
// non-nil, receives the encoded partition map once serving (test hook).
func run(args []string, out io.Writer, ready chan<- []byte) error {
	fs := flag.NewFlagSet("kvcluster", flag.ContinueOnError)
	shards := fs.Int("shards", 3, "number of shards (primary nodes)")
	replicate := fs.Bool("replicate", true, "attach a follower to every primary and record it in the map")
	mapOut := fs.String("map-out", "", "also write the partition map JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	local, err := cluster.StartLocal(*shards, *replicate, nil)
	if err != nil {
		return err
	}
	defer local.Close()
	for s, n := range local.Primaries {
		fmt.Fprintf(out, "shard %d primary %s\n", s, n.Addr())
		// Seed every primary with the map so late-joining clients can
		// OpMapGet it from any of them.
		n.SetMap(local.Map)
	}
	for s, f := range local.Followers {
		fmt.Fprintf(out, "shard %d replica %s\n", s, f.Addr())
	}
	encoded := local.Map.Encode()
	fmt.Fprintf(out, "partition map: %s\n", encoded)
	if *mapOut != "" {
		if err := os.WriteFile(*mapOut, encoded, 0o644); err != nil {
			return fmt.Errorf("map-out: %w", err)
		}
	}
	if ready != nil {
		ready <- encoded
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(out, "received %s, shutting down\n", s)
	return nil
}
