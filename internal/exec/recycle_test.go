package exec

import (
	"errors"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/sched"
)

// The tests here run a run whose state a later run takes back (runStates)
// — runs of one plan at once, runs aborted by a kernel error or by the
// watchdog, runs under message loss whose retransmission timers outlive
// their last delivery — and check that every run after it factors the
// matrix bit for bit as the sequential reference does.

// recycleProblem is a Cholesky on 3 processors at MinMem: several MAPs per
// processor, so the recycled ledgers carve more than one event.
func recycleProblem(t *testing.T) (*chol.Problem, *plan.Artifact, map[graph.ObjID][]float64) {
	t.Helper()
	pr := cholProblem(t, 3, 5, 13)
	s := scheduleFor(t, pr.G, 3, sched.MPO)
	pl, err := mem.NewPlan(s, s.MinMem())
	if err != nil || !pl.Executable {
		t.Fatalf("plan not executable at MinMem %d: %v", s.MinMem(), err)
	}
	want, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	return pr, artifact(s, pl), want
}

// sameBits reports the first object of res that is not bit-identical to
// want's.
func sameBits(res *Result, want map[graph.ObjID][]float64) error {
	for o, ref := range want {
		got := res.Objects[o]
		if len(got) != len(ref) {
			return errors.New("object length differs")
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				return errors.New("object differs from the sequential factor")
			}
		}
	}
	return nil
}

// cleanRun runs pr's factor and checks it against want.
func cleanRun(t *testing.T, pr *chol.Problem, a *plan.Artifact, want map[graph.ObjID][]float64) {
	t.Helper()
	res, err := Run(a, Config{Kernel: pr.Kernel, Init: pr.InitObject, BlockTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(res, want); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRunsOfOnePlan: runs of one plan at once each borrow a state
// of their own, and hand it on to the next.
func TestConcurrentRunsOfOnePlan(t *testing.T) {
	pr, a, want := recycleProblem(t)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := Run(a, Config{Kernel: pr.Kernel, Init: pr.InitObject, BlockTimeout: 5 * time.Second})
				if err == nil {
					err = sameBits(res, want)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestRunsOfDifferentPlans: a state taken back by a plan on more
// processors, on fewer, with more MAPs or fewer, is resized and reset, not
// read as it was left.
func TestRunsOfDifferentPlans(t *testing.T) {
	type run struct {
		pr   *chol.Problem
		a    *plan.Artifact
		want map[graph.ObjID][]float64
	}
	var runs []run
	for _, p := range []int{2, 4, 3} {
		pr := cholProblem(t, p, 4, uint64(20+p))
		s := scheduleFor(t, pr.G, p, sched.DTS)
		for _, capacity := range []int64{s.MinMem(), s.TOT()} {
			pl, err := mem.NewPlan(s, capacity)
			if err != nil || !pl.Executable {
				t.Fatalf("p=%d: plan not executable at %d: %v", p, capacity, err)
			}
			want, err := pr.SequentialFactor()
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, run{pr, artifact(s, pl), want})
		}
	}
	for round := 0; round < 3; round++ {
		for i, r := range runs {
			res, err := Run(r.a, Config{Kernel: r.pr.Kernel, Init: r.pr.InitObject, BlockTimeout: 5 * time.Second})
			if err == nil {
				err = sameBits(res, r.want)
			}
			if err != nil {
				t.Fatalf("round %d, plan %d: %v", round, i, err)
			}
		}
	}
}

// TestRunAfterAbortedRun: a run aborted by a kernel error, or by the
// watchdog while a kernel holds its worker, leaves a state the next run
// takes back whole.
func TestRunAfterAbortedRun(t *testing.T) {
	pr, a, want := recycleProblem(t)
	// The stalled kernel is the first task of processor 0 whose output
	// another processor waits for, so the watchdog sees a peer stall.
	victim := graph.TaskID(-1)
	for _, tk := range a.Schedule.Order[0] {
		if len(a.Tables().SendsOf(tk)) > 0 {
			victim = tk
			break
		}
	}
	if victim < 0 {
		t.Fatal("processor 0 sends nothing")
	}
	boom := errors.New("injected fault")
	for round := 0; round < 4; round++ {
		_, err := Run(a, Config{
			Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
				if tk == victim {
					return boom
				}
				return pr.Kernel(tk, get)
			},
			Init:         pr.InitObject,
			BlockTimeout: 5 * time.Second,
		})
		if !errors.Is(err, boom) && (err == nil || !strings.Contains(err.Error(), "aborted")) {
			t.Fatalf("round %d: kernel error: run returned %v", round, err)
		}
		cleanRun(t, pr, a, want)

		release := make(chan struct{})
		_, err = Run(a, Config{
			Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
				if tk == victim {
					<-release
				}
				return pr.Kernel(tk, get)
			},
			Init:         pr.InitObject,
			BlockTimeout: 50 * time.Millisecond,
			onStall:      func() { close(release) },
		})
		if err == nil || !strings.Contains(err.Error(), "no progress") && !strings.Contains(err.Error(), "aborted") {
			t.Fatalf("round %d: stall: run returned %v", round, err)
		}
		cleanRun(t, pr, a, want)
	}
}

// TestCleanRunsAfterLossyRun: runs at 25 % loss and 10 % duplication, and
// runs aborted by a kernel error while their retransmission timers are
// still armed. None of those timers may reach the state the clean runs
// after them take back: a stray wake would queue a core of a later run
// into a queue nobody reads, and that run would stall. The clean runs go
// on for as long as the longest retransmission timeout, so that every
// timer the lossy run armed would have fired among them.
func TestCleanRunsAfterLossyRun(t *testing.T) {
	pr, a, want := recycleProblem(t)
	window := time.Duration(proto.RTO * math.Pow(proto.Backoff, proto.MaxRetries-1) * float64(time.Second))
	for round := 0; round < 4; round++ {
		f := proto.Faults{Seed: uint64(31 + round), DropFrac: 0.25, DupFrac: 0.10}
		res, err := Run(a, Config{Kernel: pr.Kernel, Init: pr.InitObject, BlockTimeout: 5 * time.Second, Faults: f})
		if err != nil {
			t.Fatalf("round %d: lossy run: %v", round, err)
		}
		if err := sameBits(res, want); err != nil {
			t.Fatalf("round %d: lossy run: %v", round, err)
		}
		cleanRun(t, pr, a, want)

		var calls atomic.Int32
		boom := errors.New("injected fault")
		_, err = Run(a, Config{
			Kernel: func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
				if calls.Add(1) > 40 {
					return boom
				}
				return pr.Kernel(tk, get)
			},
			Init:         pr.InitObject,
			BlockTimeout: 5 * time.Second,
			Faults:       f,
		})
		if !errors.Is(err, boom) && (err == nil || !strings.Contains(err.Error(), "aborted")) {
			t.Fatalf("round %d: aborted lossy run returned %v", round, err)
		}
		for end := time.Now(); time.Since(end) < window; {
			cleanRun(t, pr, a, want)
		}
	}
}
