// Package sim implements a deterministic discrete-event simulation engine
// with cooperatively scheduled coroutines, modeled on execution-driven
// architecture simulators such as augmint: application code runs for real,
// and the engine advances a virtual clock measured in processor cycles.
//
// The engine is strictly single-threaded from the simulation's point of
// view.  Coroutines execute one at a time, handing control back to the
// engine whenever they need virtual time to pass, so every run with the
// same inputs produces bit-identical timing.
//
// The event loop is built for raw speed.  Events are value-typed records
// in a calendar/bucket queue (see queue.go) instead of heap-allocated
// closures; the dominant kinds — coroutine steps, timers, network
// packets — are closure-free.  One central loop inside Run pops and
// dispatches every event on Run's own stack; a coroutine step resumes
// the coroutine through a runtime coroutine switch (iter.Pull), which
// stays on one OS thread and involves no channel or scheduler.  When Run
// returns it unwinds every coroutine still suspended, so a stopped,
// failed or deadlocked run leaves no goroutine behind.  Coroutine sleeps
// whose wake-up precedes every queued event skip the queue entirely and
// advance the clock in place, so compute bursts between synchronization
// points cost a compare, not a context switch.
package sim

import (
	"fmt"

	"swsm/internal/trace"
)

// Time is a point in virtual time, measured in processor cycles.
type Time = int64

// EventHandler receives closure-free scheduled callbacks.  Hot
// subsystems (the network's packet pipeline) implement it so that
// scheduling an event stores a receiver pointer and one integer argument
// instead of allocating a closure per event.
type EventHandler interface {
	HandleEvent(now Time, arg int64)
}

// Engine is the discrete-event core.  It owns the virtual clock and the
// event queue, and it is the only entity that resumes coroutines.
type Engine struct {
	now Time
	seq uint64

	// reg is a single-event register in front of the calendar: when the
	// queue is otherwise empty the next event parks here, so the
	// ubiquitous pop-one-schedule-one chain (a lone coroutine sleeping,
	// a self-rescheduling sampler) never touches a bucket.  regSet
	// implies reg is the only queued event: a second schedule flushes
	// reg into the calendar first, so ordering is preserved.
	reg    event
	regSet bool

	q calQueue

	// Coroutine bookkeeping lives here as struct-of-arrays indexed by
	// tid rather than as fields on Coro: the loop and Sleep/Block/Wake
	// touch these flags constantly, and flat slices keep them on a few
	// shared cache lines instead of scattered across per-coroutine
	// allocations.
	coros       []*Coro
	coroStarted []bool
	coroDone    []bool
	coroBlocked []bool
	coroWakes   []int32

	// stopped is set by Stop; the loop drains no further events once set.
	stopped bool
	// failure records a coroutine panic or Fail call; Run returns it.
	failure error

	// tracer is nil unless observability is enabled; every hook method on
	// a nil *trace.Tracer is a no-op, so the event loop stays allocation-
	// free when tracing is off.
	tracer *trace.Tracer
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{}
	e.q.init()
	return e
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// SetTracer installs (or, with nil, removes) the engine's tracer.
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// Tracer returns the installed tracer; nil means tracing is disabled.
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// schedule files an event record at absolute time at.  The body is a
// thin inlinable shell: the common chain case (queue otherwise empty)
// stores field-wise into the register — no struct copy, no bucket — and
// everything else defers to scheduleSlow.
func (e *Engine) schedule(at Time, kind uint8, obj any, arg int64) {
	e.seq++
	if !e.regSet && e.q.count == 0 && len(e.q.overflow) == 0 {
		e.reg.at = at
		e.reg.seq = e.seq
		e.reg.arg = arg
		e.reg.obj = obj
		e.reg.kind = kind
		e.regSet = true
		return
	}
	e.scheduleSlow(at, kind, obj, arg)
}

// scheduleSlow files into the calendar, first flushing the register so
// the queue's (at, seq) order covers every pending event.
func (e *Engine) scheduleSlow(at Time, kind uint8, obj any, arg int64) {
	if e.regSet {
		e.regSet = false
		e.q.insert(e.reg, e.now)
	}
	e.q.insert(event{at: at, seq: e.seq, arg: arg, obj: obj, kind: kind}, e.now)
}

// popEvent removes the earliest queued event and returns a pointer to
// it.  The pointed-to record (the register, a bucket slot, or the
// queue's overflow scratch) is only guaranteed until the next schedule
// or pop: callers must read every field they need before dispatching.
func (e *Engine) popEvent() (*event, bool) {
	if e.regSet {
		e.regSet = false
		return &e.reg, true
	}
	return e.q.popNext()
}

// peekTime reports the earliest queued timestamp, if any.
func (e *Engine) peekTime() (Time, bool) {
	if e.regSet {
		return e.reg.at, true
	}
	return e.q.peekAt()
}

// At schedules fn to run at absolute virtual time t.  Scheduling in the
// past is an error in the simulation logic and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, evFunc, fn, 0)
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.schedule(e.now+d, evFunc, fn, 0)
}

// AtHandler schedules h.HandleEvent(t, arg) at absolute virtual time t
// without allocating a closure.  Scheduling in the past panics.
func (e *Engine) AtHandler(t Time, h EventHandler, arg int64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, evHandler, h, arg)
}

// atStep schedules coroutine c to resume at absolute time t.
func (e *Engine) atStep(t Time, c *Coro) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.schedule(t, evStep, c, 0)
}

// Stop terminates Run after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// fail records a fatal simulation error and stops the engine.
func (e *Engine) fail(err error) {
	if e.failure == nil {
		e.failure = err
	}
	e.stopped = true
}

// Run processes events until the queue drains, Stop is called, or a
// deadlock is detected (live coroutines but no scheduled events).  It
// returns the final virtual time.  Every coroutine still suspended when
// Run returns is unwound, so none outlives the run, and every body is
// dropped, so an Engine kept after its run does not keep alive what the
// bodies captured.
func (e *Engine) Run() (Time, error) {
	defer func() {
		for _, c := range e.coros {
			c.stop()
			c.body = nil
		}
	}()
	e.loop()
	if e.failure != nil {
		return e.now, e.failure
	}
	if !e.stopped {
		if desc := e.blockedCoros(); desc != "" {
			return e.now, fmt.Errorf("sim: deadlock at cycle %d; %s", e.now, desc)
		}
	}
	return e.now, nil
}

// loop pops and dispatches events until the queue drains or Stop/Fail is
// observed.  A step event resumes its coroutine, which runs until it
// next suspends in Sleep or Block, or its body returns.  A panic in any
// other dispatched callback fails the run instead of the host process.
func (e *Engine) loop() {
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("sim: event dispatch panicked at cycle %d: %v", e.now, r))
		}
	}()
	for !e.stopped {
		var ev *event
		if e.regSet {
			e.regSet = false
			ev = &e.reg
		} else {
			var ok bool
			ev, ok = e.q.popNext()
			if !ok {
				return
			}
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		switch ev.kind {
		case evFunc:
			ev.obj.(func())()
		case evStep:
			c := ev.obj.(*Coro)
			if !e.coroStarted[c.tid] {
				e.coroStarted[c.tid] = true
				e.tracer.ThreadState(e.now, c.tid, trace.StateStarted)
			}
			c.next()
		case evTimer:
			t := ev.obj.(*Timer)
			if !t.stopped {
				t.fired = true
				t.fn()
			}
		case evHandler:
			ev.obj.(EventHandler).HandleEvent(e.now, ev.arg)
		}
	}
}

// blockedCoros describes every unfinished coroutine for the deadlock
// report.  It separates coroutines genuinely parked in Block — waiting
// for a Wake that never came, an application-level deadlock — from
// coroutines that are runnable but starved: not blocked, yet never
// stepped again.  The latter indicates a scheduler bug (a runnable
// coroutine always has a step event queued), so the report says so.
// Tids are included so entries line up with trace track ids.
func (e *Engine) blockedCoros() string {
	var blocked, starved []string
	for _, c := range e.coros {
		if e.coroDone[c.tid] || !e.coroStarted[c.tid] {
			continue
		}
		desc := fmt.Sprintf("%s(tid %d)", c.name, c.tid)
		if e.coroBlocked[c.tid] {
			blocked = append(blocked, desc)
		} else {
			starved = append(starved, desc)
		}
	}
	switch {
	case len(blocked) > 0 && len(starved) > 0:
		return fmt.Sprintf("blocked coroutines: %v; runnable-but-starved coroutines (scheduler bug): %v", blocked, starved)
	case len(starved) > 0:
		return fmt.Sprintf("runnable-but-starved coroutines (scheduler bug): %v", starved)
	case len(blocked) > 0:
		return fmt.Sprintf("blocked coroutines: %v", blocked)
	}
	return ""
}

// PendingEvents reports how many events are queued (for tests).
func (e *Engine) PendingEvents() int {
	n := e.q.len()
	if e.regSet {
		n++
	}
	return n
}
