package sim

import "testing"

// BenchmarkEngineEvents measures the schedule+dispatch cycle of the
// event core — the simulator's hottest path (one event per message hop
// and per thread sleep).  With the free list and the prebound step
// closure it should run allocation-free in steady state.
func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	remaining := b.N
	var chain func()
	chain = func() {
		if remaining > 0 {
			remaining--
			e.After(1, chain)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.At(0, chain)
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineSleepFast measures the in-place Sleep fast path: a lone
// coroutine advancing the clock with no queued events, the common shape
// of a compute burst between synchronization points.  One compare and an
// add — no event, no context switch, no allocation.
func BenchmarkEngineSleepFast(b *testing.B) {
	e := NewEngine()
	n := b.N
	b.ReportAllocs()
	b.ResetTimer()
	e.Spawn("s", 0, func(c *Coro) {
		for i := 0; i < n; i++ {
			c.Sleep(100)
		}
	})
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCoroSwitch measures the slow sleep path: two coroutines
// ping-ponging 1-cycle sleeps, so every sleep files a step event, yields
// to Run's loop and is resumed by a runtime coroutine switch.
func BenchmarkCoroSwitch(b *testing.B) {
	e := NewEngine()
	n := b.N/2 + 1
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < 2; w++ {
		e.Spawn("p", 0, func(c *Coro) {
			for i := 0; i < n; i++ {
				c.Sleep(1)
			}
		})
	}
	if _, err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineEventsFanout schedules bursts of 64 simultaneous
// events, exercising heap sift costs alongside pooling.
func BenchmarkEngineEventsFanout(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 64 {
		base := e.Now()
		for j := 0; j < 64; j++ {
			e.At(base+Time(j%8), func() {})
		}
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
