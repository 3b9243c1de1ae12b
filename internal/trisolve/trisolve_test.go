package trisolve

import (
	"math"
	"testing"

	"repro/internal/chol"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/sparse"
	"repro/internal/util"
)

func buildProblem(t *testing.T, p int) (*chol.Problem, *Problem, *sparse.Matrix, []float64, []float64) {
	t.Helper()
	rng := util.NewRNG(61)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(7, 6, true), 8, rng)
	m = sparse.SPDValues(m.PermuteSym(sparse.RCM(m)), rng)
	cp, err := chol.Build(m, chol.Options{Procs: p, BlockSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	factor, err := cp.SequentialFactor()
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, m.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, m.N)
	for j := 0; j < m.N; j++ {
		vals := m.ColVal(j)
		for k, i := range m.Col(j) {
			b[i] += vals[k] * xTrue[j]
		}
	}
	pr, err := Build(cp, factor, b)
	if err != nil {
		t.Fatal(err)
	}
	return cp, pr, m, b, xTrue
}

func TestGraphStructure(t *testing.T) {
	_, pr, _, _, _ := buildProblem(t, 4)
	if err := pr.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pr.G.CheckDependenceComplete(); err != nil {
		t.Fatal(err)
	}
	// 2 solve tasks per block column plus 2 updates per sub-diagonal block.
	subdiag := 0
	for k := 0; k < pr.NB; k++ {
		for _, i := range pr.chol.Rows[k] {
			if i > int32(k) {
				subdiag++
			}
		}
	}
	want := 2*pr.NB + 2*subdiag
	if pr.G.NumTasks() != want {
		t.Fatalf("tasks %d, want %d", pr.G.NumTasks(), want)
	}
}

func TestSequentialSolve(t *testing.T) {
	_, pr, _, _, xTrue := buildProblem(t, 2)
	x, err := pr.SequentialSolve()
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], xTrue[i])
		}
	}
}

func TestConcurrentSolveMatches(t *testing.T) {
	for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS} {
		_, pr, _, _, xTrue := buildProblem(t, 4)
		assign, err := sched.OwnerComputeAssign(pr.G, 4)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleWith(h, pr.G, assign, 4, sched.T3D(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mem.NewPlan(s, s.MinMem())
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Executable {
			plan, err = mem.NewPlan(s, s.TOT())
			if err != nil || !plan.Executable {
				t.Fatal("TOT plan must be executable")
			}
		}
		res, err := exec.Run(s, plan, proto.Derive(s), exec.Config{Kernel: pr.Kernel, Init: pr.InitObject})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		// x segments live on their owners; gather from Perm plus any local
		// buffers (x objects are permanent on their owners, so Perm has
		// them all).
		x := pr.Assemble(res.Objects)
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-8 {
				t.Fatalf("%v: x[%d] = %v, want %v", h, i, x[i], xTrue[i])
			}
		}
	}
}

func TestInputVolatilesHaveNoProducers(t *testing.T) {
	_, pr, _, _, _ := buildProblem(t, 4)
	// L blocks must never be written by any task.
	_, writers := pr.G.Accessors()
	for id := range pr.lCoord {
		if len(writers[id]) != 0 {
			t.Fatalf("factor block %d has writers", id)
		}
	}
	_ = graph.None
}

func TestResidualThroughFullPipeline(t *testing.T) {
	// Factor concurrently, then solve concurrently, then check A·x = b.
	p := 3
	cp, _, m, b, _ := buildProblem(t, p)
	assign, err := sched.OwnerComputeAssign(cp.G, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleMPO(cp.G, assign, p, sched.T3D())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := mem.NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	fres, err := exec.Run(s, plan, proto.Derive(s), exec.Config{Kernel: cp.Kernel, Init: cp.InitObject})
	if err != nil {
		t.Fatal(err)
	}
	pr2, err := Build(cp, fres.Objects, b)
	if err != nil {
		t.Fatal(err)
	}
	assign2, err := sched.OwnerComputeAssign(pr2.G, p)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.ScheduleMPO(pr2.G, assign2, p, sched.T3D())
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := mem.NewPlan(s2, s2.TOT())
	if err != nil {
		t.Fatal(err)
	}
	sres, err := exec.Run(s2, plan2, proto.Derive(s2), exec.Config{Kernel: pr2.Kernel, Init: pr2.InitObject})
	if err != nil {
		t.Fatal(err)
	}
	x := pr2.Assemble(sres.Objects)
	// residual ‖Ax − b‖_∞ relative to ‖b‖_∞
	r := append([]float64(nil), b...)
	for j := 0; j < m.N; j++ {
		vals := m.ColVal(j)
		for k, i := range m.Col(j) {
			r[i] -= vals[k] * x[j]
		}
	}
	maxR, maxB := 0.0, 0.0
	for i := range r {
		if v := math.Abs(r[i]); v > maxR {
			maxR = v
		}
		if v := math.Abs(b[i]); v > maxB {
			maxB = v
		}
	}
	if maxR/maxB > 1e-10 {
		t.Fatalf("relative residual %v", maxR/maxB)
	}
}
