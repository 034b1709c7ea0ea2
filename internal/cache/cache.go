// Package cache models the node memory hierarchy of the simulated
// cluster: a two-level, set-associative, write-back cache modeled on the
// PentiumPro systems the paper's real implementation used, with LRU
// replacement and explicit invalidation so protocol activity (twinning,
// diffing, page copies) pollutes the cache exactly as in the paper's
// simulator.
package cache

import (
	"fmt"
	"sync"
)

// Config describes the hierarchy.  All sizes in bytes; latencies in
// processor cycles.  The L1 hit cost is folded into the 1-IPC model, so
// only L2 hits and memory accesses add stall cycles.
type Config struct {
	LineSize int // bytes per cache line (both levels)

	L1Size  int
	L1Assoc int

	L2Size  int
	L2Assoc int

	L2HitCycles     int64 // stall on L1 miss / L2 hit
	MemCycles       int64 // stall on L2 miss
	WritebackCycles int64 // extra stall when a dirty L2 victim is evicted
}

// DefaultConfig is the P6-like hierarchy used throughout the study:
// 32-byte lines, 16 KB 4-way L1, 512 KB 4-way L2, 10-cycle L2 hit,
// 60-cycle memory access at 200 MHz.
func DefaultConfig() Config {
	return Config{
		LineSize:        32,
		L1Size:          16 << 10,
		L1Assoc:         4,
		L2Size:          512 << 10,
		L2Assoc:         4,
		L2HitCycles:     10,
		MemCycles:       60,
		WritebackCycles: 30,
	}
}

// freeTag marks an invalid line and an empty MRU filter.  A line is
// stored under its tag plus one: real tags are non-negative (simulated
// addresses are), so no stored tag is ever 0, and an empty level is
// zeroed memory.
const freeTag = int64(0)

// level is one set-associative array, stored structure-of-arrays: the
// hit scan compares against a dense row of tags (one 64-byte line holds
// a whole 8-way set), and the LRU/dirty metadata — packed as tick<<1 |
// dirty — is touched only on the hit way or during victim selection.
// Validity is encoded in the tag itself (freeTag).  A one-entry MRU
// filter short-circuits the very common case of consecutive references
// to the same line (sequential word accesses within a 32-byte line)
// without perturbing the LRU bookkeeping: the filtered path performs
// exactly the tick/lru/dirty updates the full probe would.
type level struct {
	tags     []int64  // per line: tag+1, or freeTag when invalid
	meta     []uint64 // per line: lru tick<<1 | dirty bit
	assoc    int
	setMask  int64
	lineBits uint
	tick     uint64
	mruIdx   int32
	mruTag   int64 // freeTag when the filter is empty
}

func (l *level) init(size, assoc, lineSize int) {
	nLines := size / lineSize
	if nLines < assoc {
		assoc = nLines
	}
	nSets := nLines / assoc
	if nSets == 0 {
		nSets = 1
	}
	// nSets must be a power of two for masking.
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", nSets))
	}
	lineBits := uint(0)
	for 1<<lineBits < lineSize {
		lineBits++
	}
	l.tags = make([]int64, nSets*assoc)
	l.meta = make([]uint64, nSets*assoc)
	l.assoc = assoc
	l.setMask = int64(nSets - 1)
	l.lineBits = lineBits
}

// reset empties the level, keeping its geometry and storage.
func (l *level) reset() {
	clear(l.tags)
	clear(l.meta)
	l.tick, l.mruIdx, l.mruTag = 0, 0, freeTag
}

// key is the stored tag of the line holding addr.  Sets are indexed by
// it too: shifting every line by one set keeps which lines share a set,
// so hits, misses and victims are those of indexing by the bare tag.
func (l *level) key(addr int64) int64 { return addr>>l.lineBits + 1 }

// access probes the level; on miss it installs the line, returning the
// victim's dirtiness.  hit reports whether the tag was present.
func (l *level) access(addr int64, write bool) (hit, victimDirty bool) {
	l.tick++
	var w uint64
	if write {
		w = 1
	}
	tag := l.key(addr)
	if tag == l.mruTag {
		i := l.mruIdx
		l.meta[i] = l.tick<<1 | l.meta[i]&1 | w
		return true, false
	}
	base := int(tag&l.setMask) * l.assoc
	tags := l.tags[base : base+l.assoc]
	for i := range tags {
		if tags[i] == tag {
			idx := base + i
			l.meta[idx] = l.tick<<1 | l.meta[idx]&1 | w
			l.mruIdx, l.mruTag = int32(idx), tag
			return true, false
		}
	}
	// Miss: pick the victim exactly as the paper's simulator did — the
	// last invalid way if any, else the first way with the minimum LRU
	// tick (strict < keeps earlier ways on ties).
	victim := 0
	vFree := tags[0] == freeTag
	vLRU := l.meta[base] >> 1
	for i := 1; i < len(tags); i++ {
		if tags[i] == freeTag {
			victim, vFree = i, true
		} else if !vFree {
			if lru := l.meta[base+i] >> 1; lru < vLRU {
				victim, vLRU = i, lru
			}
		}
	}
	idx := base + victim
	victimDirty = tags[victim] != freeTag && l.meta[idx]&1 != 0
	tags[victim] = tag
	l.meta[idx] = l.tick<<1 | w
	l.mruIdx, l.mruTag = int32(idx), tag
	return false, victimDirty
}

// invalidate drops the line containing addr if present, reporting whether
// it was dirty.
func (l *level) invalidate(addr int64) (present, dirty bool) {
	tag := l.key(addr)
	base := int(tag&l.setMask) * l.assoc
	tags := l.tags[base : base+l.assoc]
	for i := range tags {
		if tags[i] == tag {
			idx := base + i
			dirty = l.meta[idx]&1 != 0
			tags[i] = freeTag
			l.meta[idx] = 0
			if l.mruTag == tag {
				l.mruTag = freeTag
			}
			return true, dirty
		}
	}
	return false, false
}

// Cache is one node's two-level hierarchy.  The levels are embedded by
// value: probing goes straight from the Cache pointer to the flat line
// arrays with no intermediate allocation.
type Cache struct {
	cfg Config
	l1  level
	l2  level

	// Accumulated counters.
	Accesses int64
	L1Misses int64
	L2Misses int64
}

// pool holds released hierarchies for reuse.  One configuration is in
// use at a time, so a pooled cache of another geometry is just dropped.
var pool sync.Pool

// New returns an empty hierarchy for the config, reusing a released one
// when the pool holds one of the same config.
func New(cfg Config) *Cache {
	if c, _ := pool.Get().(*Cache); c != nil && c.cfg == cfg {
		return c
	}
	return newCache(cfg)
}

// newCache allocates a hierarchy, bypassing the pool.
func newCache(cfg Config) *Cache {
	c := &Cache{cfg: cfg}
	c.l1.init(cfg.L1Size, cfg.L1Assoc, cfg.LineSize)
	c.l2.init(cfg.L2Size, cfg.L2Assoc, cfg.LineSize)
	return c
}

// Release empties the hierarchy and returns it to the pool; the caller
// must not use c afterwards.  A later New of the same config may hand
// it out again, indistinguishable from a freshly allocated one.
func (c *Cache) Release() {
	c.l1.reset()
	c.l2.reset()
	c.Accesses, c.L1Misses, c.L2Misses = 0, 0, 0
	pool.Put(c)
}

// LineSize reports the configured line size.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// Access simulates one data reference of `size` bytes at addr and returns
// the stall cycles beyond the 1-IPC instruction cost, plus miss flags for
// the first line touched.  References spanning multiple lines probe each
// line (the common case, aligned word/double accesses, touches one).
func (c *Cache) Access(addr int64, size int, write bool) (stall int64, l1Miss, l2Miss bool) {
	lineSize := int64(c.cfg.LineSize)
	first := addr &^ (lineSize - 1)
	last := (addr + int64(size) - 1) &^ (lineSize - 1)
	for a := first; a <= last; a += lineSize {
		s, m1, m2 := c.accessLine(a, write)
		stall += s
		if a == first {
			l1Miss, l2Miss = m1, m2
		}
	}
	return stall, l1Miss, l2Miss
}

func (c *Cache) accessLine(addr int64, write bool) (stall int64, l1Miss, l2Miss bool) {
	c.Accesses++
	hit1, _ := c.l1.access(addr, write)
	if hit1 {
		return 0, false, false
	}
	c.L1Misses++
	hit2, victimDirty := c.l2.access(addr, write)
	if hit2 {
		return c.cfg.L2HitCycles, true, false
	}
	c.L2Misses++
	stall = c.cfg.MemCycles
	if victimDirty {
		stall += c.cfg.WritebackCycles
	}
	return stall, true, true
}

// Touch runs a block of protocol data movement (page copy, twin create,
// diff scan) through the hierarchy to model cache pollution, returning the
// total stall cycles.  The block is touched line by line.
func (c *Cache) Touch(addr int64, size int, write bool) (stall int64) {
	lineSize := int64(c.cfg.LineSize)
	end := addr + int64(size)
	for a := addr &^ (lineSize - 1); a < end; a += lineSize {
		s, _, _ := c.accessLine(a, write)
		stall += s
	}
	return stall
}

// InvalidateRange drops all lines overlapping [addr, addr+size) from both
// levels, as a coherence invalidation (page or block) must.
func (c *Cache) InvalidateRange(addr int64, size int) {
	lineSize := int64(c.cfg.LineSize)
	end := addr + int64(size)
	for a := addr &^ (lineSize - 1); a < end; a += lineSize {
		c.l1.invalidate(a)
		c.l2.invalidate(a)
	}
}

// Contains reports whether addr is present in either level (for tests).
func (c *Cache) Contains(addr int64) bool {
	return c.l1.contains(addr) || c.l2.contains(addr)
}

func (l *level) contains(addr int64) bool {
	tag := l.key(addr)
	base := int(tag&l.setMask) * l.assoc
	for _, t := range l.tags[base : base+l.assoc] {
		if t == tag {
			return true
		}
	}
	return false
}
