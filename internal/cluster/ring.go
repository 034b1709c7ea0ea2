// Package cluster holds the svmd coordinator's placement function: a
// consistent-hash ring over worker IDs that maps each RunSpec content
// key to a home worker, so each worker's persistent store becomes a
// locality-preserving shard of one distributed cache.  The coordinator
// itself (job table, lease protocol, worker agent) lives in
// internal/server with the job lifecycle it shares with the daemon.
package cluster

import "sort"

// ringReplicas is the default number of virtual points per node — high
// enough that ownership splits evenly and a membership change moves
// close to the theoretical 1/N of the keyspace.
const ringReplicas = 64

// ringPoint is one virtual node position.
type ringPoint struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over worker IDs.  Placement is a pure
// function of (members, key) — two processes with the same membership
// compute identical placements, which is what lets a restarted
// coordinator dispatch a resubmitted job to the worker whose store
// already holds its result.  Not safe for concurrent use; the
// coordinator guards it with its own mutex.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash, ties broken by node
	nodes    map[string]struct{}
}

// NewRing creates an empty ring with the given virtual-point count per
// node (<= 0 selects the default).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = ringReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

// ringHash positions a string on the ring: 64-bit FNV-1a through a
// full-avalanche finalizer.  Raw FNV of short, similar strings ("w1#0",
// "w1#1", ...) clusters badly on the ring; the finalizer spreads it.
// Fixed constants, no per-process seed, so placement is deterministic
// across machines and restarts.
func ringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// splitmix64-style finalizer.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node's virtual points (idempotent).
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash: ringHash(node + "#" + itoa(i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Remove deletes a node's virtual points (idempotent).
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Len reports the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the node owning key ("" on an empty ring): the first
// virtual point at or clockwise of the key's hash.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(key)].node
}

// Successors returns up to n distinct nodes in ring order starting at
// key's owner — the spillover sequence when the owner's dispatch queue
// is full.  n <= 0 or n > members returns every member.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.nodes) {
		n = len(r.nodes)
	}
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for i, start := 0, r.search(key); len(out) < n && i < len(r.points); i++ {
		node := r.points[(start+i)%len(r.points)].node
		if _, ok := seen[node]; ok {
			continue
		}
		seen[node] = struct{}{}
		out = append(out, node)
	}
	return out
}

// search finds the index of the first point at or clockwise of key.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// itoa is strconv.Itoa for the small nonnegative ints of virtual-point
// labels, avoiding the import for this one call site.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
