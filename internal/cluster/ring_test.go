package cluster

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real content keys: versioned hash strings.
		keys[i] = fmt.Sprintf("v1-%064x", i*2654435761)
	}
	return keys
}

// Placement must be a pure function of (members, key): two rings built
// independently — even with different insertion orders — agree on every
// key.  This is what lets a restarted coordinator re-dispatch a job
// to the worker whose store already holds the result.
func TestRingDeterministicPlacement(t *testing.T) {
	a := NewRing(128)
	b := NewRing(128)
	for _, n := range []string{"w1", "w2", "w3"} {
		a.Add(n)
	}
	for _, n := range []string{"w3", "w1", "w2"} { // different order
		b.Add(n)
	}
	for _, k := range ringKeys(10000) {
		if got, want := b.Lookup(k), a.Lookup(k); got != want {
			t.Fatalf("placement disagrees for %s: %s vs %s", k, got, want)
		}
	}
}

// A membership change must move close to the theoretical minimum 1/N
// of the keyspace — that is the entire point of consistent hashing over
// mod-N (which would move (N-1)/N and cold every worker store).
func TestRingMinimalMovement(t *testing.T) {
	const n = 10000
	keys := ringKeys(n)
	r := NewRing(128)
	for _, w := range []string{"w1", "w2", "w3"} {
		r.Add(w)
	}
	before := make(map[string]string, n)
	for _, k := range keys {
		before[k] = r.Lookup(k)
	}

	r.Add("w4")
	moved := 0
	for _, k := range keys {
		if r.Lookup(k) != before[k] {
			moved++
		}
	}
	// Ideal is n/4; allow 2x slack for virtual-point variance but fail
	// hard if movement approaches mod-N behavior (3n/4).
	if moved == 0 || moved > n/2 {
		t.Fatalf("join moved %d of %d keys; want ~%d", moved, n, n/4)
	}
	for _, k := range keys {
		if got := r.Lookup(k); got != before[k] && got != "w4" {
			t.Fatalf("key %s moved to %s, not the new node", k, got)
		}
	}

	// Removing the node restores the exact prior placement.
	r.Remove("w4")
	for _, k := range keys {
		if got := r.Lookup(k); got != before[k] {
			t.Fatalf("remove did not restore placement for %s: %s vs %s", k, got, before[k])
		}
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	for _, w := range []string{"w1", "w2", "w3"} {
		r.Add(w)
	}
	counts := map[string]int{}
	keys := ringKeys(9999)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for w, c := range counts {
		if c < len(keys)/6 || c > len(keys)/2+len(keys)/10 {
			t.Fatalf("worker %s owns %d of %d keys; split too uneven: %v", w, c, len(keys), counts)
		}
	}
}

func TestRingSuccessors(t *testing.T) {
	r := NewRing(64)
	if got := r.Lookup("k"); got != "" {
		t.Fatalf("empty ring Lookup = %q", got)
	}
	if got := r.Successors("k", 0); got != nil {
		t.Fatalf("empty ring Successors = %v", got)
	}
	for _, w := range []string{"w1", "w2", "w3"} {
		r.Add(w)
	}
	succ := r.Successors("some-key", 0)
	if len(succ) != 3 {
		t.Fatalf("Successors returned %v, want all 3 distinct nodes", succ)
	}
	seen := map[string]bool{}
	for _, s := range succ {
		if seen[s] {
			t.Fatalf("duplicate node in successors: %v", succ)
		}
		seen[s] = true
	}
	if succ[0] != r.Lookup("some-key") {
		t.Fatalf("first successor %s is not the owner %s", succ[0], r.Lookup("some-key"))
	}
	if got := r.Successors("some-key", 2); len(got) != 2 {
		t.Fatalf("Successors(2) = %v", got)
	}
	// Add/Remove are idempotent.
	r.Add("w1")
	r.Remove("nope")
	if r.Len() != 3 {
		t.Fatalf("Len = %d after idempotent ops", r.Len())
	}
}
