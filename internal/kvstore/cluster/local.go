package cluster

import "fmt"

// Local is an in-process cluster on loopback ports: one primary node per
// shard, optionally each with an attached follower, and the partition map a
// client routes by. It is how the commands, the example and the test suites
// stand a cluster up; a client over it is cluster.New(Config{Map: l.Map}).
type Local struct {
	Primaries []*Node
	Followers []*Node // empty when not replicated
	Map       *Map
}

// StartLocal starts a shards-shard cluster, replicated when replicate is set.
// node, when non-nil, supplies each node's configuration — a fault-wrapped
// listener, a replication-link dialer, an observer and label — and is asked
// for shard 0..shards-1's primary first, then for each shard's replica; with
// a nil node every node takes the zero NodeConfig.
//
// The start order is fixed, because seeded fault schedules count transport
// operations from the first one: every primary in shard order, then per shard
// the follower is started, attached to its primary and recorded in the map.
// On any failure everything already started is closed.
func StartLocal(shards int, replicate bool, node func(shard int, replica bool) (NodeConfig, error)) (*Local, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: need at least one shard, got %d", shards)
	}
	l := &Local{}
	start := func(shard int, replica bool) (*Node, error) {
		if node == nil {
			return NewNode(NodeConfig{})
		}
		cfg, err := node(shard, replica)
		if err != nil {
			return nil, err
		}
		return NewNode(cfg)
	}
	fail := func(shard int, what string, err error) (*Local, error) {
		l.Close()
		return nil, fmt.Errorf("cluster: shard %d %s: %w", shard, what, err)
	}
	addrs := make([]string, shards)
	for s := range addrs {
		p, err := start(s, false)
		if err != nil {
			return fail(s, "primary", err)
		}
		l.Primaries = append(l.Primaries, p)
		addrs[s] = p.Addr()
	}
	l.Map = NewMap(addrs)
	for s := 0; replicate && s < shards; s++ {
		f, err := start(s, true)
		if err != nil {
			return fail(s, "replica", err)
		}
		l.Followers = append(l.Followers, f)
		if err := l.Primaries[s].AttachFollower(f.Addr()); err != nil {
			return fail(s, "attach replica", err)
		}
		if err := l.Map.SetReplica(s, f.Addr()); err != nil {
			return fail(s, "map replica", err)
		}
	}
	return l, nil
}

// Close shuts every node down: primaries first, so each replication link is
// detached before the follower behind it stops.
func (l *Local) Close() {
	for _, n := range l.Primaries {
		_ = n.Close() // teardown: nothing to do with a listener that fails to close
	}
	for _, n := range l.Followers {
		_ = n.Close()
	}
}
