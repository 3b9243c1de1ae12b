package exec

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/util"
)

// TestParkedProcessorsDoNotSpin is the executor's idle-CPU assertion: a
// blocked processor must park, not poll, so the number of Advance calls
// that return Blocked stays within a small multiple of the machine's event
// count (every blocked Advance is preceded by a wake — a deposit, a timer,
// or at worst a stale token). A busy-polling executor re-advances blocked
// processors continuously and exceeds this bound by orders of magnitude on
// an oversubscribed box.
func TestParkedProcessorsDoNotSpin(t *testing.T) {
	const p = 16
	pr := cholProblem(t, p, 8, 21)
	s := scheduleFor(t, pr.G, p, sched.MPO)
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil || !plan.Executable {
		t.Fatal("plan not executable")
	}
	res, err := Run(s, plan, proto.Derive(s), Config{}) // structure-only: pure protocol
	if err != nil {
		t.Fatal(err)
	}
	tasks := 0
	for q := range s.Order {
		tasks += len(s.Order[q])
	}
	maps := 0
	for _, m := range res.MAPsPerProc {
		maps += m
	}
	// Every wake-worthy event, generously: one per message, address
	// package, control-signal-bearing task and MAP, with slack for timer
	// and stale-token wakes plus a per-processor constant.
	events := res.Messages + res.AddrPackages + tasks + maps
	bound := 10*events + 100*p
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
		g := randomOwnerComputeDAG(rng, 30, 8, p)
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
		if _, err := Run(s, plan, proto.Derive(s), Config{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
