// Package cluster federates thematic brokers into a theme-sharded overlay.
//
// Semantic pub/sub has a natural partitioning key the classic distributed
// brokers (SIENA-style overlays, S-ToPSS) lacked: the theme tag set. Each
// broker owns a shard of the theme space via consistent hashing over
// canonical theme tags. A subscription is registered on the shard(s)
// owning its themes; a published event is forwarded only to the peers
// whose shard overlaps its theme set, so cross-broker traffic flows only
// where theme interests can overlap. Remote matches travel back to the
// subscriber's home broker, which de-duplicates by event ID — an event
// matched on two shards is still delivered exactly once.
package cluster

import (
	"hash/fnv"
	"slices"
	"sort"

	"thematicep/internal/text"
)

// DefaultVirtualNodes is the number of ring points per broker; enough to
// spread a small cluster's theme vocabulary evenly without making ring
// construction noticeable.
const DefaultVirtualNodes = 64

type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring over broker node IDs. All
// brokers in a cluster build the same ring from the same membership, so
// routing decisions agree without coordination.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring from the member node IDs with DefaultVirtualNodes
// points each. Duplicate IDs are collapsed; membership order does not
// matter.
func NewRing(nodes []string) *Ring {
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{
		nodes:  uniq,
		points: make([]ringPoint, 0, len(uniq)*DefaultVirtualNodes),
	}
	var buf [8]byte
	for _, n := range uniq {
		for i := 0; i < DefaultVirtualNodes; i++ {
			h := fnv.New64a()
			h.Write([]byte(n))
			buf[0] = byte(i >> 8)
			buf[1] = byte(i)
			h.Write(buf[:2])
			r.points = append(r.points, ringPoint{hash: mix64(h.Sum64()), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring membership (sorted, deduplicated).
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// mix64 is the murmur3 finalizer. FNV-1a alone barely avalanches on short
// inputs — a node's virtual points would cluster into one arc and a single
// member would own nearly every tag — so every hash is finalized before it
// lands on the ring.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func hashTag(tag string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(text.Canonical(tag)))
	return mix64(h.Sum64())
}

// Owner returns the node owning a theme tag: the first ring point at or
// after the tag's hash, wrapping around. Tags are canonicalized first so
// "Land Transport" and "land transport" shard identically.
func (r *Ring) Owner(tag string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashTag(tag)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Owners returns the set of nodes owning any tag of a theme set, sorted.
// An empty theme set has no partition key, so it maps to every node: a
// theme-less subscription may match any event and a theme-less event may
// match any subscription.
func (r *Ring) Owners(theme []string) []string { return r.ownersInto(nil, theme) }

// ownersInto is Owners built in buf's storage, so the publish path can keep
// the owners in a buffer on its stack.
func (r *Ring) ownersInto(buf []string, theme []string) []string {
	out := buf[:0]
	if len(theme) == 0 {
		return append(out, r.nodes...)
	}
	for _, tag := range theme {
		if n := r.Owner(tag); n != "" && !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

// Owns reports whether node owns at least one tag of the theme set (always
// true for empty theme sets).
func (r *Ring) Owns(node string, theme []string) bool {
	if len(theme) == 0 {
		return true
	}
	for _, tag := range theme {
		if r.Owner(tag) == node {
			return true
		}
	}
	return false
}
