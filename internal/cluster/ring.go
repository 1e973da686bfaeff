package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// virtualNodes is the number of ring points per node. More points smooth
// key distribution at the price of a larger ring.
const virtualNodes = 64

// ring is a consistent-hash ring over node IDs. Each node owns virtualNodes
// points on a 64-bit circle; a key is owned by the first node point at or
// after the key's hash, and its replicas are the next distinct nodes
// clockwise. Virtual nodes keep ownership near-uniform, and consistent
// hashing keeps a membership change from remapping more than ~1/N of the
// key space — the property that makes cache-aware rebalancing cheap.
//
// The ring is a value-style structure guarded by the Cluster's mutex; it
// does no locking of its own.
type ring struct {
	points []ringPoint // sorted by hash
	member map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

func newRing() *ring {
	return &ring{member: make(map[string]bool)}
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a splitmix64-style finalizer. FNV alone clusters badly on the
// short, similar strings virtual-node labels are made of; the avalanche
// spreads them evenly around the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// add inserts a node's virtual points. Adding a member twice is a no-op.
func (r *ring) add(node string) {
	if r.member[node] {
		return
	}
	r.member[node] = true
	for v := 0; v < virtualNodes; v++ {
		r.points = append(r.points, ringPoint{hashString(node + "#" + strconv.Itoa(v)), node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// remove deletes a node's virtual points.
func (r *ring) remove(node string) {
	if !r.member[node] {
		return
	}
	delete(r.member, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// size returns the member count.
func (r *ring) size() int { return len(r.member) }

// nodes returns the members in sorted order.
func (r *ring) nodes() []string {
	out := make([]string, 0, len(r.member))
	for n := range r.member {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// owners returns the distinct nodes responsible for key, owner first then
// replicas clockwise, at most min(replicas, members) entries.
func (r *ring) owners(key string, replicas int) []string {
	if len(r.points) == 0 || replicas <= 0 {
		return nil
	}
	if replicas > len(r.member) {
		replicas = len(r.member)
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, replicas)
	seen := make(map[string]bool, replicas)
	for i := 0; len(out) < replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
