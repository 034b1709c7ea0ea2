// Package consistency is the machine-checkable side of the protocol
// contracts: a recorder that captures the per-location access history of
// a run (loads with the values they observed, stores, lock
// acquire/release, barrier episodes) and a checker that rebuilds the
// happens-before order those sync operations induce and verifies every
// load against the set of writes the protocol's declared consistency
// model permits it to return.
//
// The recorder follows the trace.Tracer idiom: every hook is a method on
// a *Recorder with a nil-receiver fast path, so an unchecked run (the
// default) pays exactly one predictable branch and zero allocations per
// shared reference.  Events are recorded in engine execution order,
// which is the order simulated memory state actually evolves in, so the
// checker replays them without re-sorting.
//
// Accesses are checked at word (32-bit) granularity: an 8-byte access is
// split into two word events.  This matches the protocols' atomicity
// unit — HLRC/LRC diff at word grain, scfg copies word arrays — so a
// "torn" double assembled from two permitted word values is, correctly,
// not a violation.
package consistency

import (
	"fmt"
	"strings"

	"swsm/internal/proto"
)

type opKind uint8

const (
	opLoad opKind = iota
	opStore
	opAcquire
	opRelease
	opBarArrive
	opBarDepart
)

// event is one recorded access or synchronization operation.  For data
// accesses addr/size/val describe the reference; for sync operations
// addr carries the lock or barrier id.
type event struct {
	time int64
	addr int64
	val  uint64
	proc int32
	size uint8
	kind opKind
}

// Recorder captures a run's access history.  All hook methods are safe
// on a nil receiver (no-ops), so the core machine calls them
// unconditionally.  The recorder itself is not goroutine-safe; the
// simulator is single-threaded, which is what makes the recorded order
// meaningful.
type Recorder struct {
	model  proto.Model
	procs  int
	events []event
	inits  map[int64]uint32
	done   bool
	viol   *Violation
	sum    Summary
}

// NewRecorder builds a recorder for a machine of `procs` processors
// whose protocol declares `model`.
func NewRecorder(model proto.Model, procs int) *Recorder {
	return &Recorder{
		model: model,
		procs: procs,
		inits: make(map[int64]uint32),
	}
}

// Model reports the consistency model this recorder checks against.
func (r *Recorder) Model() proto.Model { return r.model }

// Init records a pre-run initialization write (Machine.InitWord /
// InitF64).  Init values are the base every location's permitted-value
// set starts from.
func (r *Recorder) Init(addr int64, size int, val uint64) {
	if r == nil {
		return
	}
	r.inits[addr] = uint32(val)
	if size == 8 {
		r.inits[addr+4] = uint32(val >> 32)
	}
}

// Access records one shared data reference and the raw value it stored
// or observed.  Called from the thread's post path, immediately after
// the data operation.
func (r *Recorder) Access(proc int32, addr int64, size int, write bool, val uint64, now int64) {
	if r == nil {
		return
	}
	k := opLoad
	if write {
		k = opStore
	}
	r.events = append(r.events, event{
		time: now, addr: addr, val: val, proc: proc, size: uint8(size), kind: k,
	})
}

// Acquire records that proc completed an acquire of lock l (recorded
// after the protocol-level acquire returns, so every release whose
// interval the grant carried is already in the history).
func (r *Recorder) Acquire(proc int32, lock int, now int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, event{time: now, addr: int64(lock), proc: proc, kind: opAcquire})
}

// Release records that proc is about to release lock l (recorded before
// the protocol-level release, so it precedes any acquire it enables).
func (r *Recorder) Release(proc int32, lock int, now int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, event{time: now, addr: int64(lock), proc: proc, kind: opRelease})
}

// BarrierArrive records that proc reached barrier b (before the
// protocol-level barrier).
func (r *Recorder) BarrierArrive(proc int32, bar int, now int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, event{time: now, addr: int64(bar), proc: proc, kind: opBarArrive})
}

// BarrierDepart records that proc left barrier b (after the
// protocol-level barrier released it).
func (r *Recorder) BarrierDepart(proc int32, bar int, now int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, event{time: now, addr: int64(bar), proc: proc, kind: opBarDepart})
}

// Events reports how many operations were recorded.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

// Summary aggregates what a finished Check covered.
type Summary struct {
	Model proto.Model
	// Loads and Stores count checked word-granularity accesses.
	Loads, Stores int64
	// Locations is the number of distinct word addresses written.
	Locations int64
	// SyncOps counts recorded acquire/release/barrier operations.
	SyncOps int64
}

func (s Summary) String() string {
	return fmt.Sprintf("%s: %d loads, %d stores over %d locations, %d sync ops",
		s.Model, s.Loads, s.Stores, s.Locations, s.SyncOps)
}

// Violation describes the first load the checker could not justify.  It
// implements error so harness runs surface it through the normal error
// path, and callers detect it with errors.As to distinguish a
// consistency violation from an application verification failure.
type Violation struct {
	Model proto.Model
	// Proc/Addr/Cycle locate the offending load; Addr is the word
	// address actually checked (for split 8-byte accesses, the stale
	// half).
	Proc  int32
	Addr  int64
	Cycle int64
	// Got is the value the load returned; Want describes the permitted
	// set.
	Got  uint32
	Want string
	// Path is the happens-before chain (store → sync hops → load) that
	// forbids Got, outermost first.  Empty for thin-air values, which no
	// chain explains.
	Path []string
}

func (v *Violation) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consistency violation (%s): proc %d load of addr 0x%x at cycle %d returned 0x%x; %s",
		v.Model, v.Proc, v.Addr, v.Cycle, v.Got, v.Want)
	if len(v.Path) > 0 {
		b.WriteString("\n  happens-before path:\n")
		for _, hop := range v.Path {
			b.WriteString("    ")
			b.WriteString(hop)
			b.WriteString("\n")
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
