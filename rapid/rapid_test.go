package rapid_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/trace"
	"repro/rapid"
)

// pipelineProgram builds a small irregular program through the public API:
// stage producers, cross-stage combiners, a reduction.
func pipelineProgram(t *testing.T) *rapid.Program {
	t.Helper()
	b := rapid.NewBuilder()
	var stage1, stage2 []rapid.ObjID
	for i := 0; i < 6; i++ {
		o := b.Object(name("a", i), 4)
		stage1 = append(stage1, o)
		b.Task(name("p", i), 10, nil, []rapid.ObjID{o})
	}
	for i := 0; i < 3; i++ {
		o := b.Object(name("b", i), 8)
		stage2 = append(stage2, o)
		b.Task(name("c", i), 25, []rapid.ObjID{stage1[2*i], stage1[2*i+1]}, []rapid.ObjID{o})
	}
	acc := b.Object("acc", 8)
	b.Task("init", 1, nil, []rapid.ObjID{acc})
	for i := 0; i < 3; i++ {
		b.CommutativeTask(name("r", i), 15, []rapid.ObjID{stage2[i], acc}, []rapid.ObjID{acc})
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func name(p string, i int) string { return p + string(rune('0'+i)) }

func TestCompileAndExecuteAllHeuristics(t *testing.T) {
	for _, h := range []rapid.Heuristic{rapid.RCP, rapid.MPO, rapid.DTS, rapid.DTSMerge, rapid.TreeMem} {
		prog := pipelineProgram(t)
		plan, err := rapid.Compile(prog, rapid.Options{
			Procs:     2,
			Heuristic: h,
			Owners:    rapid.OwnersLoadBalanced,
		})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if !plan.Executable() {
			t.Fatalf("%v: full-memory plan must be executable", h)
		}
		if plan.MinMem() <= 0 || plan.TOT() < plan.MinMem() || plan.PredictedTime() <= 0 {
			t.Fatalf("%v: bad plan stats", h)
		}
		rep, err := rapid.Execute(prog, plan, rapid.ExecOptions{})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		if len(rep.MAPsPerProc) != 2 {
			t.Fatalf("%v: MAPs per proc %v", h, rep.MAPsPerProc)
		}
	}
}

func TestExecuteNumericKernels(t *testing.T) {
	// sum three produced values through the API with real kernels.
	b := rapid.NewBuilder()
	var in []rapid.ObjID
	for i := 0; i < 3; i++ {
		in = append(in, b.Object(name("x", i), 1))
	}
	out := b.Object("out", 1)
	var prods []rapid.TaskID
	for i := 0; i < 3; i++ {
		prods = append(prods, b.Task(name("p", i), 1, nil, []rapid.ObjID{in[i]}))
	}
	b.Task("init", 1, nil, []rapid.ObjID{out})
	for i := 0; i < 3; i++ {
		b.CommutativeTask(name("s", i), 1, []rapid.ObjID{in[i], out}, []rapid.ObjID{out})
	}
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := rapid.Compile(prog, rapid.Options{Procs: 2, Heuristic: rapid.MPO, Owners: rapid.OwnersCyclic})
	if err != nil {
		t.Fatal(err)
	}
	prodSet := map[rapid.TaskID]float64{prods[0]: 2, prods[1]: 3, prods[2]: 5}
	rep2, err2 := rapid.Execute(prog, plan, rapid.ExecOptions{
		Kernel: func(tk rapid.TaskID, get func(rapid.ObjID) []float64) error {
			reads, writes := prog.G.Reads(tk), prog.G.Writes(tk)
			switch {
			case len(reads) == 0 && len(writes) == 1:
				buf := get(writes[0])
				if v, ok := prodSet[tk]; ok {
					buf[0] = v
				} else {
					buf[0] = 0 // init
				}
			case len(reads) == 2:
				get(writes[0])[0] += get(reads[0])[0]
			}
			return nil
		},
	})
	if err2 != nil {
		t.Fatal(err2)
	}
	var outID rapid.ObjID
	for oi := range prog.G.Objects {
		if prog.G.Objects[oi].Name == "out" {
			outID = rapid.ObjID(oi)
		}
	}
	if got := rep2.Objects[outID][0]; math.Abs(got-10) > 1e-15 {
		t.Fatalf("sum = %v, want 10", got)
	}
}

func TestSimulateBaselineVsManaged(t *testing.T) {
	prog := rapid.FromGraph(sched.Figure2DAG())
	plan, err := rapid.Compile(prog, rapid.Options{
		Procs: 2, Heuristic: rapid.MPO, Model: rapid.UnitCost(), Owners: rapid.OwnersPreset,
	})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := rapid.Compile(prog, rapid.Options{
		Procs: 2, Heuristic: rapid.MPO, Model: rapid.UnitCost(), Owners: rapid.OwnersPreset,
		Memory: plan.MinMem(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := &trace.Recorder{}
	sim, err := rapid.Simulate(prog, tight, rapid.SimOptions{Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	base, err := rapid.Simulate(prog, plan, rapid.SimOptions{Baseline: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ParallelTime < base.ParallelTime {
		t.Fatalf("managed faster than baseline: %v < %v", sim.ParallelTime, base.ParallelTime)
	}
	if sim.AvgMAPs < 1 {
		t.Fatalf("AvgMAPs %v", sim.AvgMAPs)
	}
	if rec.Makespan() <= 0 {
		t.Fatalf("trace empty")
	}
}

func TestCompileErrors(t *testing.T) {
	prog := pipelineProgram(t)
	if _, err := rapid.Compile(prog, rapid.Options{Procs: 0}); err == nil {
		t.Fatalf("Procs=0 must error")
	}
}

// TestUnknownOwnerPolicyRejected: a policy outside the three named ones is
// an error from Compile and MemoryPercent, not a run on whatever owners the
// objects already carry.
func TestUnknownOwnerPolicyRejected(t *testing.T) {
	for _, owners := range []rapid.OwnerPolicy{3, 255} {
		opt := rapid.Options{Procs: 2, Heuristic: rapid.MPO, Owners: owners}
		want := fmt.Sprintf("rapid: unknown owner policy %d", owners)
		if _, err := rapid.Compile(pipelineProgram(t), opt); err == nil || err.Error() != want {
			t.Errorf("Compile with owners %d: err %v, want %q", owners, err, want)
		}
		if _, _, err := rapid.MemoryPercent(pipelineProgram(t), opt, 50); err == nil || err.Error() != want {
			t.Errorf("MemoryPercent with owners %d: err %v, want %q", owners, err, want)
		}
	}
}

// TestObjectSizeConflictFailsBuild: a name declared twice with two sizes is
// one object with an ambiguous size; Build refuses the program and names
// the object and both sizes (the first conflict, if there are several).
// Redeclaring with the same size is the documented way to look an ID up.
func TestObjectSizeConflictFailsBuild(t *testing.T) {
	b := rapid.NewBuilder()
	x := b.Object("x", 64)
	if again := b.Object("x", 64); again != x {
		t.Fatalf("redeclaring x with its own size returned object %d, want %d", again, x)
	}
	b.Task("produce", 1, nil, []rapid.ObjID{x})
	if _, err := b.Build(); err != nil {
		t.Fatalf("same-size redeclaration must build: %v", err)
	}
	if again := b.Object("x", 32); again != x {
		t.Fatalf("redeclaring x with another size returned object %d, want %d", again, x)
	}
	b.Object("x", 16) // a later conflict does not replace the first
	_, err := b.Build()
	if err == nil {
		t.Fatal("Build accepted object x declared with sizes 64 and 32")
	}
	for _, want := range []string{`"x"`, "64", "32"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "16") {
		t.Errorf("error %q reports the second conflict, not the first", err)
	}
}

// TestMemoryPercent: the budget is a share of the TOT that Compile reports
// for the same data mapping, whatever the owner policy; a positive share
// rounds up to 1 (Memory 0 would mean unconstrained) and a share of 0 is 0.
func TestMemoryPercent(t *testing.T) {
	for _, owners := range []rapid.OwnerPolicy{rapid.OwnersCyclic, rapid.OwnersLoadBalanced} {
		opt := rapid.Options{Procs: 3, Heuristic: rapid.MPO, Owners: owners}
		plan, err := rapid.Compile(pipelineProgram(t), opt)
		if err != nil {
			t.Fatal(err)
		}
		for pct, want := range map[int]int64{0: 0, -3: 0, 1: 1, 50: plan.TOT() / 2, 100: plan.TOT()} {
			memory, tot, err := rapid.MemoryPercent(pipelineProgram(t), opt, pct)
			if err != nil {
				t.Fatal(err)
			}
			if tot != plan.TOT() || memory != want {
				t.Errorf("owners %d, %d%%: memory %d of TOT %d, want %d of %d", owners, pct, memory, tot, want, plan.TOT())
			}
		}
	}
	if _, _, err := rapid.MemoryPercent(pipelineProgram(t), rapid.Options{Procs: 0}, 50); err == nil {
		t.Error("Procs=0 must error")
	}
}

func TestNonExecutableBudgetReported(t *testing.T) {
	prog := rapid.FromGraph(sched.Figure2DAG())
	plan, err := rapid.Compile(prog, rapid.Options{
		Procs: 2, Heuristic: rapid.RCP, Model: rapid.UnitCost(), Owners: rapid.OwnersPreset,
		Memory: 6, // below RCP's MIN_MEM of 9
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Executable() {
		t.Fatalf("6 units must not be executable for RCP (MinMem %d)", plan.MinMem())
	}
	if _, err := rapid.Execute(prog, plan, rapid.ExecOptions{}); err == nil {
		t.Fatalf("Execute must reject non-executable plans")
	}
}
