package exec

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/util"
)

// TestParkedProcessorsDoNotSpin is the executor's idle-CPU assertion,
// restated per worker: with p = 16 cores on k = 1 and k = 2 workers, a
// blocked core must go idle until a wake, so the number of Advance calls
// that return Blocked stays within a small multiple of the machine's event
// count (every blocked Advance is preceded by a wake — a deposit, a timer,
// or at worst a stale notification) plus a constant per worker. Each task
// sleeps, so a worker holds a core for a while and the cores it does not
// hold sit blocked: a worker that re-queues a blocked core, or re-advances
// blocked cores while the queue is empty, exceeds the bound by orders of
// magnitude.
func TestParkedProcessorsDoNotSpin(t *testing.T) {
	const p = 16
	pr := cholProblem(t, p, 8, 21)
	s := scheduleFor(t, pr.G, p, sched.MPO)
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil || !plan.Executable {
		t.Fatal("plan not executable")
	}
	tasks := 0
	for q := range s.Order {
		tasks += len(s.Order[q])
	}
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(k))
			res, err := Run(artifact(s, plan), Config{
				Kernel: func(graph.TaskID, func(graph.ObjID) []float64) error {
					time.Sleep(200 * time.Microsecond)
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			maps := 0
			for _, m := range res.MAPsPerProc {
				maps += m
			}
			// Every wake-worthy event, generously: one per message, address
			// package, control-signal-bearing task and MAP, with slack for
			// timer and stale-notification wakes plus a per-worker constant.
			events := res.Messages + res.AddrPackages + tasks + maps
			bound := 10*events + 100*k
			blocked := 0
			for _, n := range res.BlockedAdvances {
				blocked += n
			}
			if blocked > bound {
				t.Fatalf("executor is spinning: %d blocked Advances for ~%d events (bound %d)", blocked, events, bound)
			}
			if blocked == 0 && res.Messages > 0 {
				t.Fatalf("no blocked Advances at p=%d — the spin counter is not wired", p)
			}
			t.Logf("%d blocked Advances for ~%d events (bound %d)", blocked, events, bound)
		})
	}
}

// TestKernelsInFlightBoundedByWorkers checks the worker count: p = 8
// processors on GOMAXPROCS = 2 run at most two kernels at a time, and
// nothing the run started — workers, watchdog timer — outlives Run.
func TestKernelsInFlightBoundedByWorkers(t *testing.T) {
	const p = 8
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pr := cholProblem(t, p, 5, 13)
	s := scheduleFor(t, pr.G, p, sched.MPO)
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil || !plan.Executable {
		t.Fatal("plan not executable")
	}
	before := runtime.NumGoroutine()
	var inFlight, peak atomic.Int32
	_, err = Run(artifact(s, plan), Config{
		Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
			n := inFlight.Add(1)
			for m := peak.Load(); n > m && !peak.CompareAndSwap(m, n); m = peak.Load() {
			}
			time.Sleep(200 * time.Microsecond)
			err := pr.Kernel(tk, get)
			inFlight.Add(-1)
			return err
		},
		Init: pr.InitObject,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 2 {
		t.Fatalf("%d kernels ran at once on GOMAXPROCS=2, want at most 2", got)
	} else if got == 0 {
		t.Fatal("no kernel ran")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDepositVsParkRace hammers the transition the wake protocol must get
// right: a processor deciding to park while peers deposit into it
// concurrently. Small cross-processor DAGs make every task's inputs remote
// — each receive is a potential park racing the matching deposit — and the
// trial count makes the interleavings diverse. A lost wakeup shows up as a
// watchdog timeout; run with -race to also check the memory ordering of
// the deposit-then-token protocol.
func TestDepositVsParkRace(t *testing.T) {
	rng := util.NewRNG(31)
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(3)
		g := graph.GenOwnerCompute(rng, 30, 8, p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleMPO(g, assign, p, sched.Unit())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mem.NewPlan(s, s.TOT())
		if err != nil || !plan.Executable {
			t.Fatal("plan not executable")
		}
		if _, err := Run(artifact(s, plan), Config{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
