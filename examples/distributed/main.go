// Distributed store: a sharded, replicated kvstore cluster that lets
// workflow steps in separate processes share data containers, mirroring the
// paper's deployment where steps interact with a remote HBase cluster
// through intercepted client libraries (§4.2).
//
// This example starts a 3-shard cluster — each shard a primary node with an
// attached follower receiving its replication stream — and connects two
// clients playing the roles of a producer step (writing sensor readings)
// and a consumer step (aggregating them with a scatter-gather scan merged
// in key order). Midway through the producer's run one shard's primary is
// killed: the cluster client probes it, promotes the follower and retries,
// so no acked reading is lost or written twice. Afterwards the dead node
// rejoins as a follower of the promoted primary and catches up from its
// replication-log cursor (see DESIGN.md §8).
//
// Run with:
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"
	"net"
	"strconv"
	"time"

	"smartflux"
	"smartflux/internal/fault"
	"smartflux/internal/kvstore/cluster"
	"smartflux/internal/kvstore/kvnet"
)

const shards = 3

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Server side: three primaries behind a fault injector (so one can be
	// killed on cue) and a follower attached to each — six "processes".
	inj := fault.New(fault.Policy{})
	local, err := cluster.StartLocal(shards, true, func(_ int, replica bool) (cluster.NodeConfig, error) {
		if replica {
			return cluster.NodeConfig{}, nil
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cluster.NodeConfig{}, err
		}
		return cluster.NodeConfig{Listener: fault.WrapListener(ln, inj)}, nil
	})
	if err != nil {
		return err
	}
	defer local.Close()
	primaries, followers, m := local.Primaries, local.Followers, local.Map
	for s, n := range primaries {
		fmt.Printf("shard %d primary serving on %s\n", s, n.Addr())
	}

	// Client side: producer and consumer each hold their own cluster client,
	// as two separate step processes would. Dials go through the injector so
	// a killed primary refuses their reconnects too.
	clientCfg := cluster.Config{
		Map: m,
		Client: kvnet.ClientConfig{
			DialTimeout:  2 * time.Second,
			MaxRetries:   20,
			RetryBackoff: 20 * time.Millisecond,
			RetrySeed:    1,
			Dial:         fault.Dialer(inj),
		},
		ProbeRetries: 1,
		ProbeBackoff: 5 * time.Millisecond,
		OnFailover: func(shard int, from, to string) {
			fmt.Printf("cluster: shard %d failed over %s -> %s\n", shard, from, to)
		},
	}
	producer, err := cluster.New(clientCfg)
	if err != nil {
		return err
	}
	defer func() { _ = producer.Close() }()
	if err := producer.CreateTable("readings", 0); err != nil {
		return err
	}

	// Producer process: writes waves of readings, sharded by sensor row.
	for wave := 0; wave < 3; wave++ {
		if wave == 1 {
			// Kill shard 0's primary mid-run: live connections drop and
			// re-dials are refused, exactly like a crashed node. The
			// producer's next write to that shard probes the primary,
			// promotes the follower (which holds every acked write — the
			// primary ships each record before acking) and retries.
			inj.Partition(primaries[0].Addr())
			fmt.Printf("shard 0 primary killed mid-run (%s)\n", primaries[0].Addr())
		}
		for i := 0; i < 8; i++ {
			row := "sensor" + strconv.Itoa(i)
			value := 20 + float64(wave) + float64(i)/2
			if err := producer.PutFloat("readings", row, "temp", value); err != nil {
				return err
			}
		}
		fmt.Printf("producer: wave %d written\n", wave)
	}

	// Consumer process: a scatter-gather scan over all shards, merged in key
	// order, on its own client (it discovers the promotion independently).
	consumer, err := cluster.New(clientCfg)
	if err != nil {
		return err
	}
	defer func() { _ = consumer.Close() }()
	cells, err := consumer.Scan("readings", smartflux.ScanOptions{})
	if err != nil {
		return err
	}
	var sum float64
	var n int
	for _, c := range cells {
		if v, err := smartflux.DecodeFloat(c.Version.Value); err == nil {
			sum += v
			n++
		}
	}
	fmt.Printf("consumer: mean of %d readings = %.2f\n", n, sum/float64(n))

	// Rejoin: heal the partition and bring the dead node back — not as a
	// primary (the map moved on) but as a follower of the promoted one. Its
	// log diverges from nothing (it died as a clean primary), but the
	// promoted follower has since appended records it never saw, so it
	// resets and catches up from cursor zero.
	inj.Heal(primaries[0].Addr())
	newPrimary := followers[0] // what the failover promoted
	rejoined := primaries[0]
	rejoined.Reset()
	if err := newPrimary.AttachFollower(rejoined.Addr()); err != nil {
		return err
	}
	pc, pcrc := newPrimary.Log().Status()
	rc, rcrc := rejoined.Log().Status()
	if pc != rc || pcrc != rcrc {
		return fmt.Errorf("rejoined node did not catch up: cursor %d/%x vs %d/%x", rc, rcrc, pc, pcrc)
	}
	fmt.Printf("shard 0 old primary rejoined as follower and caught up (%d records, crc %08x)\n", rc, rcrc)
	return nil
}
