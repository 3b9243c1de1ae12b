package exec

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/util"
)

// TestKernelFailureAbortsCleanly injects kernel errors at random tasks and
// asserts the whole machine shuts down with the error instead of leaving
// peer processors spinning forever in REC/END states.
func TestKernelFailureAbortsCleanly(t *testing.T) {
	rng := util.NewRNG(404)
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 40, 10, p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleMPO(g, assign, p, sched.Unit())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mem.NewPlan(s, s.TOT())
		if err != nil {
			t.Fatal(err)
		}
		victim := graph.TaskID(rng.Intn(g.NumTasks()))
		boom := errors.New("injected fault")
		start := time.Now()
		_, err = Run(artifact(s, plan), Config{
			Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
				if tk == victim {
					return boom
				}
				return nil
			},
			Init:         func(graph.ObjID, []float64) {},
			BlockTimeout: 5 * time.Second,
		})
		if err == nil {
			t.Fatalf("trial %d: injected fault not reported", trial)
		}
		// The run may surface either the injected fault (victim proc) or an
		// abort notice (peers), but it must terminate well before the
		// watchdog window on every processor.
		if !strings.Contains(err.Error(), "injected fault") && !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		if time.Since(start) > 4*time.Second {
			t.Fatalf("trial %d: shutdown took %v", trial, time.Since(start))
		}
	}
}

// TestKernelPanicRecovered ensures a panicking kernel is converted into an
// error rather than crashing the test process.
func TestKernelPanicRecovered(t *testing.T) {
	g := sched.Figure2DAG()
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
	_, err = Run(artifact(s, plan), Config{
		Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
			if tk == 5 {
				panic("kernel exploded")
			}
			return nil
		},
		Init:         func(graph.ObjID, []float64) {},
		BlockTimeout: 5 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

// TestWatchdogFiresOnArtificialStall wedges one processor inside a kernel
// until the watchdog observes the stall (onStall hook) and verifies its
// peers abort with the watchdog rather than hanging. The time.After
// fallback covers the run-completes path: if no peer ever needed the
// wedged task's output early, no watchdog fires and the kernel returns on
// its own.
func TestWatchdogFiresOnArtificialStall(t *testing.T) {
	g := sched.Figure2DAG()
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
			if tk == 0 {
				select {
				case <-release:
				case <-time.After(2 * time.Second):
				}
			}
			return nil
		},
		Init:         func(graph.ObjID, []float64) {},
		BlockTimeout: 300 * time.Millisecond,
		onStall:      func() { close(release) },
	})
	// Either a peer times out waiting for task 0's output, or (if the
	// sleeping task's output was not needed early) the run completes.
	if err != nil && !strings.Contains(err.Error(), "no progress") && !strings.Contains(err.Error(), "aborted") {
		t.Fatalf("unexpected error: %v", err)
	}
	_ = fmt.Sprint(err)
}

// TestNegativeBlockTimeoutRejected: a negative watchdog deadline is an
// error up front. Taken as a deadline, it reported a deadlock on the first
// processor that blocked.
func TestNegativeBlockTimeoutRejected(t *testing.T) {
	g := sched.Figure2DAG()
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
	_, err = Run(artifact(s, plan), Config{BlockTimeout: -1})
	if err == nil || err.Error() != "exec: negative BlockTimeout" {
		t.Fatalf("Run with BlockTimeout -1: %v, want exec: negative BlockTimeout", err)
	}
}
