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

// TestExecuteAllocsPerRun pins the driver's heap cost of a re-execute: it
// takes back the state of the run before it — the cores' ledgers, slabs,
// tables and address packages — so it allocates per run and per processor
// (the permanent payload, a worker), and not per MAP, per address package,
// per object or per task. Rebuilding that state, or a method value or a map
// on the task path, reads far above the bound.
func TestExecuteAllocsPerRun(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of what is put back under the race detector")
	}
	pr, a := allocProblem(t)
	p := a.Schedule.P
	cfg := Config{Kernel: pr.Kernel, Init: pr.InitObject}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Run(a, cfg); err != nil {
			t.Error(err)
		}
	})
	maps, pkgs, volatile := a.Mem.TotalMAPs(), 0, 0
	for q := range a.Mem.Procs {
		for _, mp := range a.Mem.Procs[q].MAPs {
			pkgs += mp.Notify.Len()
			volatile += len(mp.Allocs)
		}
	}
	const perRun, perProc = 24, 3
	bound := perRun + perProc*p
	t.Logf("%.0f allocations; bound %d = %d + %d × %d processors; %d MAPs, %d address packages, %d objects, %d volatile copies, %d tasks",
		allocs, bound, perRun, perProc, p, maps, pkgs, pr.G.NumObjects(), volatile, pr.G.NumTasks())
	if allocs > float64(bound) {
		t.Fatalf("numeric Run allocates %.0f times, want at most %d", allocs, bound)
	}
}

// TestReexecuteAllocatesOnlyItsResult: a re-execute allocates its result —
// the permanent payload Result.Objects hands out and the Objects map — and
// a few kB besides; the MAP payloads, header slabs and tables are the
// previous run's. The median of five re-executes is taken, so that one
// whose state the collector took back in the meantime does not decide.
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
	runs := make([]uint64, 5)
	for i := range runs {
		runs[i] = allocated(run)
	}
	slices.Sort(runs)
	got := runs[len(runs)/2]
	// The result as the allocator sizes it: one permanent payload slab per
	// processor, and the Objects map.
	floats := make([]int, a.Schedule.P)
	for o, d := range res.Objects {
		floats[a.Schedule.G.Objects[o].Owner] += len(d)
	}
	slabs := make([][]float64, len(floats))
	var objects map[graph.ObjID][]float64
	result := allocated(func() {
		for q, n := range floats {
			slabs[q] = make([]float64, n)
		}
		objects = make(map[graph.ObjID][]float64, len(res.Objects))
		for o, d := range res.Objects {
			objects[o] = d
		}
	})
	const slack = 8 << 10
	bound := result + slack
	t.Logf("re-execute allocates %d B (runs %v); bound %d = %d permanent payload slabs and Objects map + %d",
		got, runs, bound, result, slack)
	if got > bound {
		t.Fatalf("a re-execute allocates %d B, want at most %d", got, bound)
	}
}
