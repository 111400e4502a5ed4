package router

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// ring is a consistent-hash ring over shard indices. Each shard owns vnodes
// points on the uint64 circle; a key routes to the shards met walking
// clockwise from its hash point, deduplicated, which gives every key a
// stable preference order over ALL shards: its primary first, then the
// order a forward retries in when the primary is down. Store entry files are
// self-describing (DESIGN.md §8), so ownership moving between shards as the
// set changes costs only cache warmth, never correctness.
type ring struct {
	points []ringPoint // sorted by h
	shards int
}

type ringPoint struct {
	h     uint64
	shard int
}

// newRing places vnodes virtual points per shard id. Ids must be distinct;
// they seed the point hashes so the layout is stable across restarts.
func newRing(ids []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(ids)*vnodes), shards: len(ids)}
	for i, id := range ids {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s#%d", id, v)
			// FNV over short, similar strings clusters badly on the ring;
			// a splitmix64 finalizer avalanches it into a uniform point.
			r.points = append(r.points, ringPoint{h: mix64(h.Sum64()), shard: i})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		switch {
		case a.h < b.h:
			return -1
		case a.h > b.h:
			return 1
		// Tie-break on shard so the order is deterministic even on the
		// (astronomically unlikely) 64-bit collision.
		default:
			return a.shard - b.shard
		}
	})
	return r
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyPoint maps a graph hash to its ring position: the first 8 bytes of the
// content hash, which are uniformly distributed by construction (SHA-256).
func keyPoint(ghash [32]byte) uint64 {
	return binary.BigEndian.Uint64(ghash[:8])
}

// order returns every shard index in the key's clockwise preference order:
// the primary first, then the failover tail.
func (r *ring) order(key uint64) []int {
	out := make([]int, 0, r.shards)
	if len(r.points) == 0 {
		return out
	}
	seen := make([]bool, r.shards)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= key })
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}
