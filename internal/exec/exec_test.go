package exec

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/util"
)

func cholProblem(t *testing.T, p, bs int, seed uint64) *chol.Problem {
	t.Helper()
	rng := util.NewRNG(seed)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(7, 6, true), 6, rng)
	m = m.PermuteSym(sparse.RCM(m))
	m = sparse.SPDValues(m, rng)
	pr, err := chol.Build(m, chol.Options{Procs: p, BlockSize: bs})
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func scheduleFor(t *testing.T, g *graph.DAG, p int, h sched.Heuristic) *sched.Schedule {
	t.Helper()
	assign, err := sched.OwnerComputeAssign(g, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleWith(h, g, assign, p, sched.T3D(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// artifact wraps a schedule and its MAP plan as the compiled plan Run
// takes.
func artifact(s *sched.Schedule, pl *mem.Plan) *plan.Artifact {
	return &plan.Artifact{Schedule: s, Mem: pl, Model: sched.T3D(), Capacity: pl.Capacity}
}

func runNumeric(t *testing.T, pr *chol.Problem, s *sched.Schedule, capacity int64) *Result {
	t.Helper()
	plan, err := mem.NewPlan(s, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Executable {
		t.Fatalf("plan not executable at capacity %d (MinMem %d)", capacity, s.MinMem())
	}
	// A MAP's payloads are carved from one slab, so every buffer a kernel
	// is handed must end at its own length, or an append in one kernel
	// would write into a neighbour's object.
	var loose atomic.Int32
	kernel := func(tk graph.TaskID, get func(graph.ObjID) []float64) error {
		return pr.Kernel(tk, func(o graph.ObjID) []float64 {
			b := get(o)
			if cap(b) != len(b) {
				loose.Add(1)
			}
			return b
		})
	}
	res, err := Run(artifact(s, plan), Config{
		Kernel:       kernel,
		Init:         pr.InitObject,
		BlockTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := loose.Load(); n > 0 {
		t.Fatalf("kernels saw %d payloads whose capacity runs past their length", n)
	}
	return res
}

func TestCholeskyConcurrentMatchesSequential(t *testing.T) {
	for _, p := range []int{2, 4} {
		for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS} {
			pr := cholProblem(t, p, 5, 7)
			s := scheduleFor(t, pr.G, p, h)
			res := runNumeric(t, pr, s, s.TOT())
			want, err := pr.SequentialFactor()
			if err != nil {
				t.Fatal(err)
			}
			for oi := range pr.G.Objects {
				o := graph.ObjID(oi)
				got := res.Objects[o]
				ref := want[o]
				for i := range ref {
					if math.Abs(got[i]-ref[i]) > 1e-9 {
						t.Fatalf("p=%d %v: object %q differs at %d: %v vs %v",
							p, h, pr.G.Objects[oi].Name, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

func TestCholeskyUnderTightMemory(t *testing.T) {
	pr := cholProblem(t, 4, 4, 9)
	s := scheduleFor(t, pr.G, 4, sched.MPO)
	// Tightest capacity the schedule admits.
	capacity := s.MinMem()
	res := runNumeric(t, pr, s, capacity)
	total := 0
	for _, m := range res.MAPsPerProc {
		total += m
	}
	if total <= 4 {
		t.Fatalf("tight memory should force extra MAPs, got %d", total)
	}
	for p, peak := range res.PeakUnits {
		if peak > capacity {
			t.Fatalf("proc %d peak %d exceeds capacity %d", p, peak, capacity)
		}
	}
	// Results must still be correct.
	want, err := pr.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	for oi := range pr.G.Objects {
		o := graph.ObjID(oi)
		for i := range want[o] {
			if math.Abs(res.Objects[o][i]-want[o][i]) > 1e-9 {
				t.Fatalf("object %q differs under tight memory", pr.G.Objects[oi].Name)
			}
		}
	}
}

func TestLUConcurrentSolves(t *testing.T) {
	rng := util.NewRNG(31)
	a := sparse.UnsymValues(sparse.AddRandomUnsymLinks(sparse.Grid2D(6, 6, false), 10, rng), rng)
	pr, err := lu.Build(a, lu.Options{Procs: 3, BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleFor(t, pr.G, 3, sched.MPO)
	plan, err := mem.NewPlan(s, s.MinMem())
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Executable {
		t.Fatalf("not executable at MinMem")
	}
	res, err := Run(artifact(s, plan), Config{
		Kernel: pr.Kernel,
		Init:   pr.InitObject,
		BufLen: pr.BufLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Solve with the concurrently factored panels.
	n := a.N
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		vals := a.ColVal(j)
		for k, i := range a.Col(j) {
			b[i] += vals[k] * xTrue[j]
		}
	}
	x := pr.Solve(res.Objects, b)
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-7 {
			t.Fatalf("solve error at %d: %v vs %v", i, x[i], xTrue[i])
		}
	}
}

func TestStructureOnlyRandomStress(t *testing.T) {
	rng := util.NewRNG(77)
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(5)
		g := randomOwnerComputeDAG(rng, 30+rng.Intn(60), 8+rng.Intn(15), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		h := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3]
		s, err := sched.ScheduleWith(h, g, assign, p, sched.Unit(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		capacity := s.MinMem() // tightest feasible
		plan, err := mem.NewPlan(s, capacity)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Executable {
			// MinMem assumes immediate frees; the MAP scheme frees only at
			// MAPs, so a small slack can be needed. Retry with TOT.
			plan, err = mem.NewPlan(s, s.TOT())
			if err != nil || !plan.Executable {
				t.Fatalf("trial %d: TOT plan must be executable", trial)
			}
		}
		res, err := Run(artifact(s, plan), Config{BlockTimeout: 20 * time.Second})
		if err != nil {
			t.Fatalf("trial %d (p=%d, %v): %v", trial, p, h, err)
		}
		for q := 0; q < p; q++ {
			if res.MAPsPerProc[q] != len(plan.Procs[q].MAPs) {
				t.Fatalf("trial %d: proc %d executed %d MAPs, plan has %d",
					trial, q, res.MAPsPerProc[q], len(plan.Procs[q].MAPs))
			}
		}
	}
}

func TestNonExecutablePlanRejected(t *testing.T) {
	g := sched.Figure2DAG()
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mem.NewPlan(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Executable {
		t.Fatalf("capacity 3 should not be executable")
	}
	if _, err := Run(artifact(s, plan), Config{}); err == nil {
		t.Fatalf("Run must reject non-executable plans")
	}
}

// randomOwnerComputeDAG builds a random single-writer DAG with cyclic
// owners (mirrors the sched/mem test helper).
func randomOwnerComputeDAG(rng *util.RNG, nTasks, nObjs, p int) *graph.DAG {
	b := graph.NewBuilder()
	objs := make([]graph.ObjID, nObjs)
	for i := 0; i < nObjs; i++ {
		objs[i] = b.Object(string(rune('A'+i%26))+string(rune('0'+i/26)), int64(1+rng.Intn(4)))
	}
	written := []graph.ObjID{}
	for t := 0; t < nTasks; t++ {
		var reads []graph.ObjID
		for r := 0; r < rng.Intn(3); r++ {
			if len(written) > 0 {
				reads = append(reads, written[rng.Intn(len(written))])
			}
		}
		wobj := objs[rng.Intn(nObjs)]
		b.Task(string(rune('a'+t%26))+string(rune('0'+t/26)), float64(1+rng.Intn(5)), reads, []graph.ObjID{wobj})
		written = append(written, wobj)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	sched.CyclicOwners(g, p)
	return g
}

// TestExecuteAllocsPerRun pins the driver's heap cost: a numeric run
// allocates per processor, per MAP and per address package — a core's
// ledger and tables, one header slab and one payload slab per allocation
// event, one allocation for a MAP's packages and one for their handles —
// and not per object or per task. One allocation per buffer, or a method
// value or a map built on the task path, reads far above the bound.
func TestExecuteAllocsPerRun(t *testing.T) {
	const p = 4
	rng := util.NewRNG(5)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(16, 14, true), 400, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pr, err := chol.Build(m, chol.Options{Procs: p, BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleFor(t, pr.G, p, sched.MPO)
	plan, err := mem.NewPlan(s, s.MinMem()+(s.TOT()-s.MinMem())/4)
	if err != nil || !plan.Executable {
		t.Fatalf("constrained plan not executable: %v", err)
	}
	a := artifact(s, plan)
	cfg := Config{Kernel: pr.Kernel, Init: pr.InitObject}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(a, cfg); err != nil {
			t.Error(err)
		}
	})
	maps, pkgs, volatile := plan.TotalMAPs(), 0, 0
	for q := range plan.Procs {
		for _, mp := range plan.Procs[q].MAPs {
			pkgs += mp.Notify.Len()
			volatile += len(mp.Allocs)
		}
	}
	const perUnit = 5
	bound := perUnit * (p + maps + pkgs)
	t.Logf("%.0f allocations; bound %d = %d × (%d processors + %d MAPs + %d address packages); %d objects, %d volatile copies, %d tasks",
		allocs, bound, perUnit, p, maps, pkgs, pr.G.NumObjects(), volatile, pr.G.NumTasks())
	if allocs > float64(bound) {
		t.Fatalf("numeric Run allocates %.0f times, want at most %d", allocs, bound)
	}
}
