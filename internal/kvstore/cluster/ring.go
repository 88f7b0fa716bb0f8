// Package cluster shards a kvstore across N kvnet servers by consistent-
// hashed row key, replicates each shard's primary to a follower by shipping
// timestamped replication records, and fails over to the follower when a
// seeded health check declares the primary dead (DESIGN.md §8).
//
// The determinism contract of the single store carries over: because every
// mutation crosses the wire as an explicit-timestamp replication record and
// applies through the kvstore replay operations, an N-shard cluster's merged
// dump — version histories and logical timestamps included — is bit-identical
// to the single-store run of the same workload, regardless of shard count,
// shipping interleavings, or a mid-run primary kill and promotion.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the number of ring points each shard contributes when the
// partition map does not override it. More vnodes smooth the row
// distribution; the count must be identical on every participant or rows
// would route differently, so it travels in the Map.
const DefaultVnodes = 64

// hashKey is the ring's hash function: 64-bit FNV-1a finished with a
// murmur-style avalanche mix. Raw FNV-1a leaves near-identical keys — the
// "row-0017"/"row-0018" shape real workloads produce — in narrow hash bands,
// which skews the ring badly even with many vnodes; the finalizer spreads
// every input bit across all 64 output bits. Stable across processes and
// platforms — the partition map depends on every participant hashing rows
// identically.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ring is a consistent-hash ring mapping row keys to shard indices.
type ring struct {
	hashes []uint64 // sorted ring point hashes
	shards []int    // shards[i] owns hashes[i]
}

// newRing builds the ring for a shard count: every shard contributes vnodes
// points hashed from a stable label, so the layout is a pure function of
// (shards, vnodes) and adding a shard moves only ~1/N of the key space.
func newRing(shards, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	type point struct {
		hash  uint64
		shard int
	}
	points := make([]point, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			label := "shard-" + strconv.Itoa(s) + "/vnode-" + strconv.Itoa(v)
			points = append(points, point{hash: hashKey(label), shard: s})
		}
	}
	// Ties (astronomically unlikely) break by shard index so the layout
	// stays total-ordered and identical everywhere.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].shard < points[j].shard
	})
	r := &ring{hashes: make([]uint64, len(points)), shards: make([]int, len(points))}
	for i, p := range points {
		r.hashes[i] = p.hash
		r.shards[i] = p.shard
	}
	return r
}

// shardFor maps a row key to its owning shard: the first ring point at or
// after the row's hash, wrapping to the first point.
func (r *ring) shardFor(row string) int {
	h := hashKey(row)
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.shards[i]
}
