package cluster

// The partition map is the cluster's single piece of shared configuration:
// which shards exist, which address is each shard's primary and which its
// replica, and the ring geometry rows are routed by. It is static in shape —
// shard count and vnodes never change after creation — and versioned in
// content: every promotion bumps Version, so a node or client holding a
// stale map can tell newer from older at a glance. The encoding is JSON,
// carried opaquely by the wire layer's OpMapGet / OpMapSet frames.

import (
	"encoding/json"
	"fmt"
)

// Shard names one shard's member addresses.
type Shard struct {
	// Primary serves reads and replicated writes for the shard's key range.
	Primary string `json:"primary"`
	// Replica follows the primary's replication stream; empty means the
	// shard runs unreplicated. On failover the replica becomes primary and
	// this field keeps the dead node's address until a rejoin replaces it.
	Replica string `json:"replica,omitempty"`
	// Epoch is the shard's fencing generation: monotone, starting at 1,
	// bumped by every Promote. Clients stamp replication frames with it and
	// nodes reject stamps older than the highest epoch they have seen, so a
	// demoted primary alive behind a partition can never ack a write the
	// promoted timeline will not contain (DESIGN.md §8).
	Epoch uint64 `json:"epoch,omitempty"`
}

// Map is the versioned partition table.
type Map struct {
	// Version orders map revisions; promotions and replica changes bump it.
	Version int `json:"version"`
	// Vnodes is the ring points per shard (0 = DefaultVnodes). All
	// participants must agree on it or rows route differently.
	Vnodes int `json:"vnodes,omitempty"`
	// Shards lists the shard membership, indexed by ring shard number.
	Shards []Shard `json:"shards"`
}

// NewMap builds a version-1 map over the given primary addresses, with no
// replicas and default ring geometry.
func NewMap(primaries []string) *Map {
	m := &Map{Version: 1, Shards: make([]Shard, len(primaries))}
	for i, addr := range primaries {
		m.Shards[i].Primary = addr
		m.Shards[i].Epoch = 1
	}
	return m
}

// Encode serializes the map for the wire.
func (m *Map) Encode() []byte {
	b, err := json.Marshal(m)
	if err != nil {
		// A Map of strings and ints cannot fail to marshal.
		panic("cluster: map encode: " + err.Error())
	}
	return b
}

// DecodeMap parses an encoded map, rejecting empty and shardless payloads.
func DecodeMap(b []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("cluster: decode partition map: %w", err)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("cluster: partition map has no shards")
	}
	return &m, nil
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	out := *m
	out.Shards = append([]Shard(nil), m.Shards...)
	return &out
}

// Promote fails shard over to its replica: the replica becomes primary, the
// dead primary's address is retained in the replica slot (a rejoin resyncs
// or replaces it), the shard's fencing epoch advances, and the map version
// advances.
func (m *Map) Promote(shard int) error {
	if shard < 0 || shard >= len(m.Shards) {
		return fmt.Errorf("cluster: promote: no shard %d", shard)
	}
	s := &m.Shards[shard]
	if s.Replica == "" {
		return fmt.Errorf("cluster: promote: shard %d has no replica", shard)
	}
	s.Primary, s.Replica = s.Replica, s.Primary
	s.Epoch++
	m.Version++
	return nil
}

// SetReplica points shard's replica slot at addr (a fresh or resynced
// follower) and advances the map version.
func (m *Map) SetReplica(shard int, addr string) error {
	if shard < 0 || shard >= len(m.Shards) {
		return fmt.Errorf("cluster: set replica: no shard %d", shard)
	}
	m.Shards[shard].Replica = addr
	m.Version++
	return nil
}

// ring materializes the map's routing ring.
func (m *Map) ring() *ring {
	return newRing(len(m.Shards), m.Vnodes)
}
