package exec

import (
	"math"
	"runtime"
	"slices"
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
			if err := sameBits(res, want); err != nil {
				t.Fatalf("p=%d %v: %v", p, h, err)
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
	if err := sameBits(res, want); err != nil {
		t.Fatalf("under tight memory: %v", err)
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
		g := graph.GenOwnerCompute(rng, 30+rng.Intn(60), 8+rng.Intn(15), p)
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

// allocProblem is the allocation gates' run: the Cholesky of a 16×14
// grid with 400 extra couplings in 3×3 blocks on 4 processors, MPO, at a
// quarter of the way from MinMem to TOT — 12 MAPs and 28 address packages.
func allocProblem(t *testing.T) (*chol.Problem, *plan.Artifact) {
	const p = 4
	rng := util.NewRNG(5)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(16, 14, true), 400, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	pr, err := chol.Build(m, chol.Options{Procs: p, BlockSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := scheduleFor(t, pr.G, p, sched.MPO)
	pl, err := mem.NewPlan(s, s.MinMem()+(s.TOT()-s.MinMem())/4)
	if err != nil || !pl.Executable {
		t.Fatalf("constrained plan not executable: %v", err)
	}
	return pr, artifact(s, pl)
}

// TestExecuteAllocsPerRun pins the executor's heap cost of a re-execute
// whose predecessor released its result: it takes back the state of the
// run before it — the cores' ledgers, slabs, tables and address packages —
// and the released permanent payload and Objects map, so it allocates per
// run (the result, the run queue, the watchdog, a worker), and not
// per processor, per MAP, per address package, per object or per task.
// Rebuilding that state, or a method value or a map on the task path,
// reads far above the bound.
func TestExecuteAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put back under the race detector")
	}
	pr, a := allocProblem(t)
	p := a.Schedule.P
	cfg := Config{Kernel: pr.Kernel, Init: pr.InitObject}
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Run(a, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	maps, pkgs, volatile := a.Mem.TotalMAPs(), 0, 0
	for q := range a.Mem.Procs {
		for _, mp := range a.Mem.Procs[q].MAPs {
			pkgs += mp.Notify.Len()
			volatile += len(mp.Allocs)
		}
	}
	const bound = 28
	t.Logf("%.0f allocations; bound %d; %d processors, %d MAPs, %d address packages, %d objects, %d volatile copies, %d tasks",
		allocs, bound, p, maps, pkgs, pr.G.NumObjects(), volatile, pr.G.NumTasks())
	if allocs > float64(bound) {
		t.Fatalf("numeric Run allocates %.0f times, want at most %d", allocs, bound)
	}
}

// TestReexecuteAllocatesOnlyItsResult: a re-execute whose predecessor
// released its result allocates a few kB; the permanent payload and the
// Objects map are the released ones, and the MAP payloads, header slabs
// and tables are the previous run's. The median of nine re-executes is
// bounded, so that one whose state the collector took back in the meantime
// does not decide. The expected outlier is a pool miss across Ps: Release
// puts the map in its own P's private slot, and a Run scheduled on another
// P makes a fresh one. So every re-execute is bounded by one fresh Objects
// map besides, and no more.
func TestReexecuteAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put back under the race detector")
	}
	pr, a := allocProblem(t)
	cfg := Config{Kernel: pr.Kernel, Init: pr.InitObject}
	var ms runtime.MemStats
	allocated := func(f func()) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	var res *Result
	run := func() {
		var err error
		if res, err = Run(a, cfg); err != nil {
			t.Fatal(err)
		}
	}
	run()
	runs := make([]uint64, 9)
	for i := range runs {
		n := len(res.Objects)
		res.Release()
		runs[i] = allocated(run)
		if len(res.Objects) != n {
			t.Fatalf("re-execute %d returned %d objects, want %d", i, len(res.Objects), n)
		}
	}
	slices.Sort(runs)
	got, worst := runs[len(runs)/2], runs[len(runs)-1]
	// A fresh Objects map as the allocator sizes it: ~164 kB here.
	var objects map[graph.ObjID][]float64
	fresh := allocated(func() {
		objects = make(map[graph.ObjID][]float64, len(res.Objects))
		for o, d := range res.Objects {
			objects[o] = d
		}
	})
	const slack = 8 << 10
	t.Logf("re-execute allocates %d B median, %d B worst (runs %v); bounds %d and %d = %d fresh Objects map + %d",
		got, worst, runs, slack, fresh+slack, fresh, slack)
	if got > slack {
		t.Fatalf("a re-execute allocates %d B in the median, want at most %d", got, slack)
	}
	if worst > fresh+slack {
		t.Fatalf("a re-execute allocates %d B, want at most %d: more than a cross-P miss of the Objects map", worst, fresh+slack)
	}
}
