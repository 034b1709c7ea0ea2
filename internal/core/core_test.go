package core

import (
	"testing"

	"swsm/internal/comm"
	"swsm/internal/proto"
	"swsm/internal/proto/ideal"
	"swsm/internal/stats"
)

func idealConfig(procs int) Config {
	cfg := DefaultConfig()
	cfg.Procs = procs
	cfg.Comm = comm.Best()
	cfg.Costs = proto.BestCosts()
	cfg.SharedMem = true
	cfg.CacheEnabled = false
	return cfg
}

func TestIdealSingleThreadStoreLoad(t *testing.T) {
	m := NewMachine(idealConfig(1), ideal.New())
	a := m.AllocPage(4096)
	cycles, err := m.Run(func(th *Thread) {
		th.Store32(a, 7)
		th.StoreF64(a+8, 3.5)
		if th.Load32(a) != 7 {
			t.Error("load32 wrong")
		}
		if th.LoadF64(a+8) != 3.5 {
			t.Error("loadf64 wrong")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 4 { // four accesses, one busy cycle each
		t.Fatalf("cycles = %d, want 4", cycles)
	}
}

func TestIdealSharedMemoryVisible(t *testing.T) {
	m := NewMachine(idealConfig(2), ideal.New())
	a := m.AllocPage(4096)
	_, err := m.Run(func(th *Thread) {
		if th.Proc() == 0 {
			th.Store32(a, 99)
		}
		th.Barrier(0)
		if got := th.Load32(a); got != 99 {
			t.Errorf("proc %d read %d, want 99", th.Proc(), got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIdealLockMutualExclusion(t *testing.T) {
	const procs = 8
	m := NewMachine(idealConfig(procs), ideal.New())
	ctr := m.AllocPage(4096)
	_, err := m.Run(func(th *Thread) {
		for i := 0; i < 10; i++ {
			th.Acquire(3)
			v := th.Load32(ctr)
			th.Compute(50) // dilate the critical section
			th.Store32(ctr, v+1)
			th.Release(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.ReadResultWord(ctr); got != procs*10 {
		t.Fatalf("counter = %d, want %d (lost updates => broken mutual exclusion)", got, procs*10)
	}
}

func TestIdealBarrierSeparatesPhases(t *testing.T) {
	const procs = 4
	m := NewMachine(idealConfig(procs), ideal.New())
	arr := m.AllocPage(4 * procs)
	_, err := m.Run(func(th *Thread) {
		id := th.Proc()
		th.Store32(arr+int64(4*id), uint32(id+1))
		th.Barrier(0)
		// Every thread must see every other thread's phase-one write.
		var sum uint32
		for i := 0; i < procs; i++ {
			sum += th.Load32(arr + int64(4*i))
		}
		if sum != procs*(procs+1)/2 {
			t.Errorf("proc %d saw sum %d", id, sum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestComputeChargesBusy(t *testing.T) {
	m := NewMachine(idealConfig(1), ideal.New())
	cycles, err := m.Run(func(th *Thread) {
		th.Compute(12345)
	})
	if err != nil {
		t.Fatal(err)
	}
	if cycles != 12345 {
		t.Fatalf("cycles = %d, want 12345", cycles)
	}
	if got := m.Stats.TotalTime(stats.Busy); got != 12345 {
		t.Fatalf("busy = %d, want 12345", got)
	}
}

func TestBreakdownPartitionsTime(t *testing.T) {
	const procs = 4
	m := NewMachine(idealConfig(procs), ideal.New())
	_, err := m.Run(func(th *Thread) {
		th.Compute(int64(1000 * (th.Proc() + 1)))
		th.Barrier(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each processor's categories must sum to the parallel exec time
	// (everyone leaves the final barrier together).
	for i := range m.Stats.Procs {
		if got := m.Stats.Procs[i].Total(); got != m.Stats.ExecCycles {
			t.Fatalf("proc %d breakdown %d != exec %d", i, got, m.Stats.ExecCycles)
		}
	}
	if m.Stats.TotalTime(stats.BarrierWait) == 0 {
		t.Fatal("expected barrier wait from imbalance")
	}
}

func TestCacheStallsCharged(t *testing.T) {
	cfg := idealConfig(1)
	cfg.CacheEnabled = true
	m := NewMachine(cfg, ideal.New())
	a := m.AllocPage(1 << 16)
	cycles, err := m.Run(func(th *Thread) {
		// 64KB of cold reads: every line misses to memory.
		for off := int64(0); off < 1<<16; off += 32 {
			th.Load32(a + off)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	loads := int64(1 << 16 / 32)
	if cycles <= loads {
		t.Fatalf("cycles = %d, want > %d (no cache stalls charged?)", cycles, loads)
	}
	if got := m.Stats.TotalTime(stats.CacheStall); got == 0 {
		t.Fatal("no cache stall time recorded")
	}
}

func TestIdealSpeedupScales(t *testing.T) {
	run := func(procs int) int64 {
		m := NewMachine(idealConfig(procs), ideal.New())
		work := int64(1 << 16)
		cycles, err := m.Run(func(th *Thread) {
			th.Compute(work / int64(procs))
			th.Barrier(0)
		})
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	t1, t16 := run(1), run(16)
	speedup := float64(t1) / float64(t16)
	if speedup < 15.5 || speedup > 16.5 {
		t.Fatalf("ideal speedup = %.2f, want ~16", speedup)
	}
}

// Run returns every node's cache to the pool on each way out — success,
// a panicking body, a deadlock — and leaves no node holding one, after
// folding the miss counters of a successful run into Stats.
func TestRunReleasesCaches(t *testing.T) {
	cases := []struct {
		name    string
		body    func(th *Thread, a int64)
		wantErr bool
	}{
		{"success", func(th *Thread, a int64) { th.Load32(a) }, false},
		{"panic", func(th *Thread, a int64) {
			th.Load32(a)
			panic("boom")
		}, true},
		{"deadlock", func(th *Thread, a int64) {
			th.Load32(a)
			th.Acquire(1) // the first holder never releases
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := idealConfig(2)
			cfg.CacheEnabled = true
			m := NewMachine(cfg, ideal.New())
			a := m.AllocPage(4096)
			_, err := m.Run(func(th *Thread) { tc.body(th, a) })
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error: %v", err, tc.wantErr)
			}
			for i, n := range m.Nodes {
				if n.Cache != nil {
					t.Fatalf("node %d still holds its cache after Run", i)
				}
			}
			if !tc.wantErr && m.Stats.TotalCount(stats.L1Misses) == 0 {
				t.Fatal("L1 misses were not folded into Stats before release")
			}
		})
	}
}
