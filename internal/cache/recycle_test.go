package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// drive applies one seeded random operation to c and returns what it
// observed: stall, miss flags and whether a probe address is resident.
func drive(c *Cache, r *rand.Rand) (stall int64, m1, m2, has bool) {
	addr := int64(r.Intn(1 << 13))
	switch op := r.Intn(10); {
	case op < 7:
		stall, m1, m2 = c.Access(addr, 1<<r.Intn(4), r.Intn(2) == 0)
	case op < 9:
		stall = c.Touch(addr, 32*(1+r.Intn(8)), r.Intn(2) == 0)
	default:
		c.InvalidateRange(addr, 32*(1+r.Intn(4)))
	}
	return stall, m1, m2, c.Contains(int64(r.Intn(1 << 13)))
}

// dirty runs a random stream over c so every field Release must reset
// (tags, meta, ticks, MRU filter, counters) holds non-zero state.
func dirty(c *Cache, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < 3000; i++ {
		drive(c, r)
	}
}

// sameAsFresh drives got and a newly allocated cache of the same config
// with one seeded stream and reports the first step where their
// observations or counters differ, or internal state that differs
// before or after the stream.
func sameAsFresh(got *Cache, seed int64) error {
	want := newCache(got.cfg)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("seed %d: recycled cache differs from a fresh one before any access", seed)
	}
	rg := rand.New(rand.NewSource(seed))
	rw := rand.New(rand.NewSource(seed))
	for i := 0; i < 2000; i++ {
		s1, a1, b1, h1 := drive(got, rg)
		s2, a2, b2, h2 := drive(want, rw)
		if s1 != s2 || a1 != a2 || b1 != b2 || h1 != h2 {
			return fmt.Errorf("seed %d step %d: recycled (stall %d, l1 %v, l2 %v, has %v) != fresh (%d, %v, %v, %v)",
				seed, i, s1, a1, b1, h1, s2, a2, b2, h2)
		}
		if got.Accesses != want.Accesses || got.L1Misses != want.L1Misses || got.L2Misses != want.L2Misses {
			return fmt.Errorf("seed %d step %d: counters %d/%d/%d != fresh %d/%d/%d", seed, i,
				got.Accesses, got.L1Misses, got.L2Misses, want.Accesses, want.L1Misses, want.L2Misses)
		}
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("seed %d: recycled cache state diverged from a fresh one", seed)
	}
	return nil
}

// Property: a cache that a random stream dirtied, then Released and got
// back from New, behaves exactly like one built by init — so recycling
// cannot move a simulated cycle.  The pool may drop an item at any time
// (the race detector drops some on purpose), so the test runs rounds
// until recycling has been seen several times.
func TestRecycledEqualsFresh(t *testing.T) {
	recycled := 0
	for round := int64(0); round < 200 && recycled < 8; round++ {
		c := New(tiny())
		dirty(c, 2*round+1)
		c.Release()
		got := New(tiny())
		if got == c {
			recycled++
		}
		if err := sameAsFresh(got, 2*round+2); err != nil {
			t.Fatal(err)
		}
		got.Release()
	}
	if recycled == 0 {
		t.Fatal("New never returned a released cache")
	}
}

// TestRecycledEqualsFreshConcurrent runs New → stream → Release in
// several goroutines at once, so released caches cross between them;
// under -race it also checks that no cache is shared while in use.
func TestRecycledEqualsFreshConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := int64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := int64(0); round < 10; round++ {
				c := New(tiny())
				if err := sameAsFresh(c, 1000*g+round); err != nil {
					t.Error(err)
					return
				}
				dirty(c, 1000*g+round+500)
				c.Release()
			}
		}()
	}
	wg.Wait()
}

// A pooled cache of another geometry is never handed out.
func TestNewMatchesConfig(t *testing.T) {
	c := New(tiny())
	c.Release()
	big := New(DefaultConfig())
	if big.cfg != DefaultConfig() || len(big.l2.tags) != DefaultConfig().L2Size/32 {
		t.Fatalf("New(DefaultConfig) returned a cache of config %+v", big.cfg)
	}
	big.Release()
}
