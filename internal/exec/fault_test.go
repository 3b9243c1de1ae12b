package exec

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
)

// TestCholeskyUnderFaultInjection checks the liveness claim end to end
// with real data: with a third of all address packages and data messages
// delayed, with every single message forced through the suspended-send
// queue, and with a quarter and then half of all transmissions lost — at
// half, a core often needs a wake earlier than the one its timer is set
// for — the numeric factorization must complete and equal the sequential
// one bit for bit.
func TestCholeskyUnderFaultInjection(t *testing.T) {
	pr := cholProblem(t, 3, 5, 13)
	s := scheduleFor(t, pr.G, 3, sched.MPO)
	plan, err := mem.NewPlan(s, s.MinMem())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Executable {
		t.Fatalf("plan not executable at MinMem %d", s.MinMem())
	}
	want, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []proto.Faults{
		{Seed: 5, AddrFrac: 0.3, DataFrac: 0.3},
		{Seed: 9, AddrFrac: 1, DataFrac: 1},
		{Seed: 11, DropFrac: 0.25, DupFrac: 0.10},
		{Seed: 17, DropFrac: 0.5, DupFrac: 0.1},
		{Seed: 13, AddrFrac: 0.3, DataFrac: 0.3, DropFrac: 0.25, DupFrac: 0.25},
	} {
		a := artifact(s, plan)
		res, err := Run(a, Config{
			Kernel:       pr.Kernel,
			Init:         pr.InitObject,
			BlockTimeout: 20 * time.Second,
			Faults:       f,
		})
		if err != nil {
			t.Fatalf("faults %+v: %v", f, err)
		}
		if f.DataFrac >= 1 {
			// Every data message suspends exactly once: a processor's count
			// is the data sends of its tasks.
			for q, susp := range res.SuspendedSends {
				sends := 0
				for _, task := range s.Order[q] {
					sends += len(a.Tables().SendsOf(task))
				}
				if susp != sends {
					t.Fatalf("forced suspension: proc %d suspended %d sends, its tasks send %d", q, susp, sends)
				}
			}
			total := 0
			for _, susp := range res.SuspendedSends {
				total += susp
			}
			if total != res.Messages {
				t.Fatalf("forced suspension: %d suspended != %d messages", total, res.Messages)
			}
		}
		rel := proto.SumReliability(res.Reliability)
		if f.DropFrac > 0 && rel.Retransmits == 0 {
			t.Errorf("faults %+v: loss injected but no retransmissions recorded", f)
		}
		if f.DropFrac == 0 && (rel.Retransmits != 0 || rel.Dropped != 0) {
			t.Errorf("faults %+v: no loss configured but reliability reports %+v", f, rel)
		}
		if rel.Retransmits != rel.Dropped {
			t.Errorf("faults %+v: %d retransmits for %d drops", f, rel.Retransmits, rel.Dropped)
		}
		if err := sameBits(res, want); err != nil {
			t.Fatalf("faults %+v: %v", f, err)
		}
	}
}

// TestWatchdogReportsBlockedDetail forces a deterministic stall — the only
// producer of a cross-processor object holds its kernel until the watchdog
// observes the stall (the onStall hook, so the test waits on the event
// instead of sleeping a fixed multiple of the timeout) — and checks the
// watchdog error identifies the blocked processor, its protocol state, and
// the task/object it is waiting on, then dumps every processor's protocol
// state, suspended-send queue depth, retransmit queue depth and wait
// reason (watchdog escalation, so loss-induced stalls are diagnosable
// machine-wide).
func TestWatchdogReportsBlockedDetail(t *testing.T) {
	b := graph.NewBuilder()
	a := b.Object("a", 4)
	bb := b.Object("b", 4)
	t0 := b.Task("t0", 1, nil, []graph.ObjID{a})
	b.Task("t1", 1, []graph.ObjID{a}, []graph.ObjID{bb})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched.CyclicOwners(g, 2) // a on proc 0, b on proc 1
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	_, err = Run(artifact(s, plan), Config{
		Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
			if tk == t0 {
				<-release // held exactly until the watchdog fires
			}
			return nil
		},
		Init:         func(graph.ObjID, []float64) {},
		BlockTimeout: 250 * time.Millisecond,
		onStall:      func() { close(release) },
	})
	if err == nil {
		t.Fatal("expected a watchdog timeout, got success")
	}
	msg := err.Error()
	for _, want := range []string{
		"no progress", "state", "t1",
		// Escalation: the dump must cover BOTH processors, not just the
		// blocked one, and report queue depths plus the reporter's own
		// wait reason (proc 1 is REC-blocked on a's arrival).
		"machine state at timeout:",
		"proc 0: state",
		// The wedged producer is shown where the stall found it: a kernel
		// released by the stall hook stops before TaskDone.
		"proc 0: state EXE, position 0",
		"proc 1: state",
		"suspended sends",
		"awaiting retransmission",
		"waiting on arrival",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog error missing %q: %v", want, err)
		}
	}
}

// TestWatchdogReportsQueuedCore tells a protocol wait from CPU starvation
// in the watchdog dump. At GOMAXPROCS=1 the one worker is held by proc 0's
// wedged kernel, so the watchdog timer drives the other cores itself. Proc
// 1 blocks on a's arrival first; proc 2 runs a 30 ms local task before it
// blocks on the same arrival, so proc 1's stall is reported first, from
// the watchdog's turn on it, while proc 2 sits queued behind it: the dump
// must call proc 2 runnable, not repeat its stale wait reason.
func TestWatchdogReportsQueuedCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := graph.NewBuilder()
	a := b.Object("a", 4)
	bb := b.Object("b", 4)
	c := b.Object("c", 4)
	t0 := b.Task("t0", 1, nil, []graph.ObjID{a})
	b.Task("t1", 1, []graph.ObjID{a}, []graph.ObjID{bb})
	prep := b.Task("prep", 1, nil, []graph.ObjID{c})
	b.Task("t2", 1, []graph.ObjID{a, c}, []graph.ObjID{c})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched.CyclicOwners(g, 3) // a on proc 0, b on proc 1, c on proc 2
	assign, err := sched.OwnerComputeAssign(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 3, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	_, err = Run(artifact(s, plan), Config{
		Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
			switch tk {
			case t0:
				<-release // held exactly until the watchdog fires
			case prep:
				time.Sleep(30 * time.Millisecond)
			}
			return nil
		},
		Init:         func(graph.ObjID, []float64) {},
		BlockTimeout: 250 * time.Millisecond,
		onStall:      func() { close(release) },
	})
	if err == nil {
		t.Fatal("expected a watchdog timeout, got success")
	}
	msg := err.Error()
	for _, want := range []string{
		"exec: proc 1 made no progress",
		"proc 1: state REC",
		"waiting on arrival",
		"proc 2: state REC",
		"runnable, waiting for a worker",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("watchdog error missing %q: %v", want, err)
		}
	}
	if strings.Count(msg, "runnable, waiting for a worker") != 1 {
		t.Errorf("exactly proc 2 should be queued: %v", err)
	}
}
