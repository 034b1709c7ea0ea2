package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"swsm/internal/trace"
)

// TestRunUnwindsCoroutines pins Run's failure paths and its cleanup.
// Each case ends a run with coroutines still suspended in Sleep and
// Block — by deadlock, a panicking body, a panicking event callback
// before any coroutine ran or after one finished, Fail from a Timer (the
// reliable transport's give-up path) or Stop — and must return the
// expected error.  Every suspended coroutine must be unwound (its defers
// run) without a failure or a thread-state event of its own, and after
// many such runs the process must be back at its starting goroutine
// count.
func TestRunUnwindsCoroutines(t *testing.T) {
	// suspended spawns one coroutine parked in Block forever and one
	// sleeping in a loop that outlasts every case; each counts its unwind.
	suspended := func(e *Engine, unwound *int) {
		e.Spawn("blocker", 0, func(c *Coro) {
			defer func() { *unwound++ }()
			c.Block()
		})
		e.Spawn("sleeper", 0, func(c *Coro) {
			defer func() { *unwound++ }()
			for {
				c.Sleep(7)
			}
		})
	}
	cases := []struct {
		name    string
		setup   func(e *Engine, unwound *int)
		want    string // substring of Run's error; "" wants nil
		unwinds int    // bodies unwound by Run's cleanup
		dones   int    // bodies that returned or panicked on their own
	}{
		{"deadlock", func(e *Engine, unwound *int) {
			e.Spawn("stuck", 0, func(c *Coro) {
				defer func() { *unwound++ }()
				c.Block()
			})
			e.Spawn("also-stuck", 0, func(c *Coro) {
				defer func() { *unwound++ }()
				c.Sleep(3)
				c.Block()
			})
		}, "deadlock at cycle 3", 2, 0},
		{"coroutine-panic", func(e *Engine, unwound *int) {
			suspended(e, unwound)
			e.Spawn("bad", 0, func(c *Coro) {
				c.Sleep(20)
				panic("boom")
			})
		}, "coroutine bad panicked: boom", 2, 1},
		{"event-panic-before-coroutines", func(e *Engine, unwound *int) {
			e.At(0, func() { panic("early") })
			suspended(e, unwound)
		}, "event dispatch panicked at cycle 0: early", 0, 0},
		{"event-panic-after-coroutine-exit", func(e *Engine, unwound *int) {
			suspended(e, unwound)
			e.Spawn("short", 0, func(c *Coro) { c.Sleep(10) })
			e.At(20, func() { panic("late") })
		}, "event dispatch panicked at cycle 20: late", 2, 1},
		{"timer-fail", func(e *Engine, unwound *int) {
			suspended(e, unwound)
			e.NewTimer(30, func() { e.Fail(errors.New("undeliverable")) })
		}, "undeliverable", 2, 0},
		{"stop", func(e *Engine, unwound *int) {
			suspended(e, unwound)
			e.At(40, e.Stop)
		}, "", 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g0 := runtime.NumGoroutine()
			for i := 0; i < 50; i++ {
				e := NewEngine()
				tr := trace.NewCapture(trace.Options{})
				e.SetTracer(tr)
				unwound := 0
				tc.setup(e, &unwound)
				_, err := e.Run()
				switch {
				case tc.want == "" && err != nil:
					t.Fatalf("Run() = %v, want nil", err)
				case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
					t.Fatalf("Run() = %v, want an error containing %q", err, tc.want)
				}
				if e.failure != nil && e.failure != err {
					t.Fatalf("unwinding recorded a failure: Run() = %v, engine failure %v", err, e.failure)
				}
				if unwound != tc.unwinds {
					t.Fatalf("%d coroutines unwound, want %d", unwound, tc.unwinds)
				}
				dones := 0
				for _, ev := range tr.Data().Events {
					if ev.Kind == trace.KThreadState && ev.Arg == trace.StateDone {
						dones++
					}
				}
				if dones != tc.dones {
					t.Fatalf("%d thread-done events, want %d: unwinding must emit none", dones, tc.dones)
				}
			}
			if g := settledGoroutines(g0); g > g0 {
				t.Fatalf("%d goroutines after 50 runs, started with %d: suspended coroutines leaked", g, g0)
			}
		})
	}
}

// settledGoroutines waits briefly for the goroutine count to fall back
// to want, so goroutines merely on their way out are not counted.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(5 * time.Millisecond)
	}
	return n
}

// TestRunDropsBodies pins that an Engine kept after Run does not keep
// alive what its coroutine bodies captured: a memoized result keeps its
// machine, and the machine its engine, for as long as the sweep lasts.
func TestRunDropsBodies(t *testing.T) {
	e := NewEngine()
	freed := make(chan struct{})
	func() {
		data := new([256]byte)
		runtime.SetFinalizer(data, func(*[256]byte) { close(freed) })
		e.Spawn("holder", 0, func(c *Coro) {
			c.Sleep(1)
			data[0]++
		})
	}()
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(time.Second); ; {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(e)
			return
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("a finished coroutine's captured data is still reachable from its engine")
		}
	}
}
