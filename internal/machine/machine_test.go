package machine

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/util"
)

func figure2Schedule(t *testing.T, h sched.Heuristic) *sched.Schedule {
	t.Helper()
	g := sched.Figure2DAG()
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleWith(h, g, assign, 2, sched.Unit(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// artifact wraps a schedule and its MAP plan as the compiled plan Simulate
// takes, timed under model.
func artifact(s *sched.Schedule, pl *mem.Plan, model sched.CostModel) *plan.Artifact {
	return &plan.Artifact{Schedule: s, Mem: pl, Model: model, Capacity: pl.Capacity}
}

func mustPlan(t *testing.T, s *sched.Schedule, cap int64) *mem.Plan {
	t.Helper()
	pl, err := mem.NewPlan(s, cap)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Executable {
		t.Fatalf("capacity %d not executable (MinMem %d)", cap, s.MinMem())
	}
	return pl
}

func TestBaselineCompletesAllTasks(t *testing.T) {
	s := figure2Schedule(t, sched.RCP)
	pl := mustPlan(t, s, s.TOT())
	rec := &trace.Recorder{}
	res, err := Simulate(artifact(s, pl, sched.Unit()), Options{Baseline: true, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelTime <= 0 {
		t.Fatalf("parallel time %v", res.ParallelTime)
	}
	nTasks := 0
	for _, sp := range rec.Spans {
		if sp.Kind == trace.Task {
			nTasks++
		}
	}
	if nTasks != s.G.NumTasks() {
		t.Fatalf("executed %d of %d tasks", nTasks, s.G.NumTasks())
	}
	// Message count: all deduplicated send points must be delivered.
	tables := proto.Derive(s)
	wantMsgs := 0
	for ti := range s.G.Tasks {
		wantMsgs += len(tables.SendsOf(graph.TaskID(ti)))
	}
	if res.Messages != wantMsgs {
		t.Fatalf("delivered %d messages, want %d", res.Messages, wantMsgs)
	}
}

func TestManagedSlowerThanBaseline(t *testing.T) {
	s := figure2Schedule(t, sched.MPO)
	model := sched.T3D()
	base, err := Simulate(artifact(s, mustPlan(t, s, s.TOT()), model), Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Simulate(artifact(s, mustPlan(t, s, s.TOT()), model), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Simulate(artifact(s, mustPlan(t, s, s.MinMem()), model), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.ParallelTime < base.ParallelTime {
		t.Fatalf("managed (full mem) faster than baseline: %v < %v", full.ParallelTime, base.ParallelTime)
	}
	if tight.AvgMAPs <= full.AvgMAPs {
		t.Fatalf("tight memory should add MAPs: %v vs %v", tight.AvgMAPs, full.AvgMAPs)
	}
	if tight.AddrPackages == 0 {
		t.Fatalf("no address packages delivered under management")
	}
}

// TestBaselineNeedsTheWholeVolatileSpace: the original executor allocates
// every volatile object before the first task, so a plan whose capacity
// holds less is refused on the one ledger rather than simulated with a peak
// that executor could not have had.
func TestBaselineNeedsTheWholeVolatileSpace(t *testing.T) {
	s := figure2Schedule(t, sched.MPO)
	if s.MinMem() >= s.TOT() {
		t.Fatal("test needs a schedule that recycling helps")
	}
	_, err := Simulate(artifact(s, mustPlan(t, s, s.MinMem()), sched.Unit()), Options{Baseline: true})
	if err == nil || !strings.Contains(err.Error(), "Baseline") || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("want a Baseline capacity error, got %v", err)
	}
}

func TestUnitModelMakespanMatchesListPrediction(t *testing.T) {
	// With the unit model and the baseline executor, the simulated parallel
	// time should be close to the list scheduler's prediction (same cost
	// assumptions; the simulator adds no overhead in baseline mode).
	s := figure2Schedule(t, sched.RCP)
	res, err := Simulate(artifact(s, mustPlan(t, s, s.TOT()), sched.Unit()), Options{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ParallelTime > 2*s.Makespan {
		t.Fatalf("simulated %v much worse than predicted %v", res.ParallelTime, s.Makespan)
	}
}

func TestDeadlockFreedomRandomStress(t *testing.T) {
	rng := util.NewRNG(5150)
	for trial := 0; trial < 60; trial++ {
		p := 2 + rng.Intn(6)
		g := graph.GenOwnerCompute(rng, 30+rng.Intn(80), 8+rng.Intn(16), p)
		for _, a := range randomPlans(t, randomSchedule(t, g, p, trial)) {
			res, err := Simulate(a, Options{})
			if err != nil {
				t.Fatalf("trial %d (p=%d cap=%d): %v", trial, p, a.Capacity, err)
			}
			want := float64(a.Mem.TotalMAPs()) / float64(p)
			if res.AvgMAPs != want {
				t.Fatalf("trial %d: AvgMAPs %v != plan %v", trial, res.AvgMAPs, want)
			}
		}
	}
}

func TestTraceGantt(t *testing.T) {
	s := figure2Schedule(t, sched.DTS)
	rec := &trace.Recorder{}
	if _, err := Simulate(artifact(s, mustPlan(t, s, s.MinMem()), sched.Unit()), Options{Trace: rec}); err != nil {
		t.Fatal(err)
	}
	gantt := rec.Gantt(60)
	if !strings.Contains(gantt, "P0") || !strings.Contains(gantt, "P1") {
		t.Fatalf("Gantt missing processor rows:\n%s", gantt)
	}
	if rec.Makespan() <= 0 {
		t.Fatalf("empty trace")
	}
}
