package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/util"
)

func buildCholGraph(t *testing.T, p int) (*graph.DAG, []graph.Proc) {
	t.Helper()
	rng := util.NewRNG(42)
	m := sparse.AddRandomSymLinks(sparse.Grid2D(10, 8, true), 12, rng)
	m = m.PermuteSym(sparse.RCM(m))
	// Build a small block Cholesky-like graph via the chol package would
	// create an import cycle for tests; instead reuse Figure2-style graphs
	// plus a synthetic layered DAG below. For realism, tests in the paper
	// harness cover chol/lu; here we exercise the algorithms on the
	// reconstruction and random owner-compute DAGs.
	_ = m
	g := graph.GenOwnerCompute(rng, 60, 25, p)
	assign, err := OwnerComputeAssign(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, assign
}

func objName(i int) string  { return "o" + string(rune('A'+i%26)) + string(rune('0'+i/26)) }
func taskName(i int) string { return "t" + string(rune('a'+i%26)) + string(rune('0'+i/26)) }

func TestAllHeuristicsProduceValidSchedules(t *testing.T) {
	for _, p := range []int{2, 3, 4} {
		g, assign := buildCholGraph(t, p)
		for _, h := range []Heuristic{RCP, MPO, DTS, DTSMerge, TreeMem} {
			s, err := ScheduleWith(h, g, assign, p, Unit(), 1<<30)
			if err != nil {
				t.Fatalf("p=%d %v: %v", p, h, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("p=%d %v: %v", p, h, err)
			}
			if s.Makespan <= 0 {
				t.Fatalf("p=%d %v: makespan %v", p, h, s.Makespan)
			}
			if s.MinMem() <= 0 || s.TOT() < s.MinMem() {
				t.Fatalf("p=%d %v: MinMem %d TOT %d", p, h, s.MinMem(), s.TOT())
			}
		}
	}
}

func TestRandomDAGsPropertySweep(t *testing.T) {
	rng := util.NewRNG(7)
	for trial := 0; trial < 25; trial++ {
		p := 2 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 20+rng.Intn(60), 5+rng.Intn(20), p)
		assign, err := OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{RCP, MPO, DTS} {
			s, err := ScheduleWith(h, g, assign, p, T3D(), 0)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, h, err)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("trial %d %v: %v", trial, h, err)
			}
		}
	}
}

func TestDTSSliceMonotonePerProc(t *testing.T) {
	g, assign := buildCholGraph(t, 3)
	s, err := ScheduleDTS(g, assign, 3, Unit(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < s.P; p++ {
		prev := int32(-1)
		for _, task := range s.Order[p] {
			if s.Slices[task] < prev {
				t.Fatalf("proc %d executes slice %d after %d", p, s.Slices[task], prev)
			}
			prev = s.Slices[task]
		}
	}
}

func TestDTSTheorem2Bound(t *testing.T) {
	// Theorem 2: a DTS schedule is executable under S1/p + h per processor,
	// i.e. its per-processor peak is at most max permanent space + h.
	rng := util.NewRNG(11)
	for trial := 0; trial < 20; trial++ {
		p := 2 + rng.Intn(3)
		g := graph.GenOwnerCompute(rng, 30+rng.Intn(40), 6+rng.Intn(12), p)
		assign, err := OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		sliceOf, nSlices, err := Slices(g)
		if err != nil {
			t.Fatal(err)
		}
		hv := SliceVolatileNeed(g, assign, p, sliceOf, nSlices)
		var h int64
		for _, v := range hv {
			if v > h {
				h = v
			}
		}
		s, err := ScheduleDTS(g, assign, p, Unit(), false, 0)
		if err != nil {
			t.Fatal(err)
		}
		perm := s.PermSize()
		var maxPerm int64
		for _, v := range perm {
			if v > maxPerm {
				maxPerm = v
			}
		}
		if s.MinMem() > maxPerm+h {
			t.Fatalf("trial %d: DTS peak %d exceeds maxPerm %d + h %d", trial, s.MinMem(), maxPerm, h)
		}
	}
}

func TestMergeSlices(t *testing.T) {
	h := []int64{3, 2, 2, 5, 1, 1, 1}
	newIdx, n := MergeSlices(h, 5)
	// 3+2=5 ok; +2 exceeds -> new; 2+... 2+5 exceeds -> new; 5 alone; +1
	// exceeds? 5+1=6>5 -> new; 1+1+1=3 ok.
	want := []int32{0, 0, 1, 2, 3, 3, 3}
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	for i := range want {
		if newIdx[i] != want[i] {
			t.Fatalf("newIdx = %v, want %v", newIdx, want)
		}
	}
	// Huge budget merges everything.
	newIdx, n = MergeSlices(h, 1<<40)
	if n != 1 {
		t.Fatalf("full merge got %d slices", n)
	}
	// Tiny budget keeps all slices separate.
	_, n = MergeSlices(h, 1)
	if n != len(h) {
		t.Fatalf("no-merge got %d slices", n)
	}
}

func TestMergedDTSNotWorseInTime(t *testing.T) {
	g, assign := buildCholGraph(t, 4)
	plain, err := ScheduleDTS(g, assign, 4, Unit(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := ScheduleDTS(g, assign, 4, Unit(), true, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumSlices > plain.NumSlices {
		t.Fatalf("merging increased slice count")
	}
	if merged.Makespan > plain.Makespan+1e-9 {
		t.Fatalf("full merge should not be slower: %v vs %v", merged.Makespan, plain.Makespan)
	}
}

func TestFigure2Progression(t *testing.T) {
	g := Figure2DAG()
	if g.NumTasks() != 20 || g.NumObjects() != 11 {
		t.Fatalf("reconstruction has %d tasks, %d objects", g.NumTasks(), g.NumObjects())
	}
	if err := g.CheckDependenceComplete(); err != nil {
		t.Fatal(err)
	}
	assign, err := OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Volatile sets must match the paper's text: VOLA(P0)={d8},
	// VOLA(P1)={d1,d3,d5,d7}.
	rcp, err := ScheduleRCP(g, assign, 2, Unit())
	if err != nil {
		t.Fatal(err)
	}
	vol := rcp.VolatileObjects()
	if len(vol[0]) != 1 || len(vol[1]) != 4 {
		t.Fatalf("volatile sets wrong: %v / %v", vol[0], vol[1])
	}
	mpo, err := ScheduleMPO(g, assign, 2, Unit())
	if err != nil {
		t.Fatal(err)
	}
	dts, err := ScheduleDTS(g, assign, 2, Unit(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	mr, mm, md := rcp.MinMem(), mpo.MinMem(), dts.MinMem()
	if !(mr >= mm && mm >= md) {
		t.Fatalf("memory progression violated: RCP %d, MPO %d, DTS %d", mr, mm, md)
	}
	if mr == md {
		t.Fatalf("reconstruction shows no memory spread: RCP %d DTS %d", mr, md)
	}
	t.Logf("Figure 2 reconstruction: MIN_MEM RCP=%d MPO=%d DTS=%d; makespan RCP=%.0f MPO=%.0f DTS=%.0f",
		mr, mm, md, rcp.Makespan, mpo.Makespan, dts.Makespan)
}

func TestLoadBalancedOwners(t *testing.T) {
	rng := util.NewRNG(13)
	b := graph.NewBuilder()
	var objs []graph.ObjID
	for i := 0; i < 12; i++ {
		objs = append(objs, b.Object(objName(i), 1))
	}
	for t := 0; t < 48; t++ {
		b.Task(taskName(t), float64(1+rng.Intn(9)), nil, []graph.ObjID{objs[t%12]})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	LoadBalancedOwners(g, 3)
	assign, err := OwnerComputeAssign(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, 3)
	for ti := range g.Tasks {
		load[assign[ti]] += g.Tasks[ti].Cost
	}
	max, min := load[0], load[0]
	for _, l := range load {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	if min == 0 || max/min > 2 {
		t.Fatalf("load imbalance too high: %v", load)
	}
}

func TestOwnerComputeAssignErrors(t *testing.T) {
	b := graph.NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	b.Task("t", 1, nil, []graph.ObjID{x, y})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 0
	g.Objects[y].Owner = 1
	if _, err := OwnerComputeAssign(g, 2); err == nil {
		t.Fatalf("expected error for split-owner writes")
	}
}

func TestCostModelEdgeComm(t *testing.T) {
	g := Figure2DAG()
	assign, _ := OwnerComputeAssign(g, 2)
	m := T3D()
	f := m.EdgeComm(g, assign)
	sawRemote := false
	for ti := 0; ti < g.NumTasks(); ti++ {
		for _, e := range g.Out(graph.TaskID(ti)) {
			c := f(e)
			if assign[e.From] == assign[e.To] && c != 0 {
				t.Fatalf("local edge charged %v", c)
			}
			if e.Kind == graph.DepTrue && assign[e.From] != assign[e.To] {
				if c < m.Latency {
					t.Fatalf("remote edge under-charged: %v", c)
				}
				sawRemote = true
			}
		}
	}
	if !sawRemote {
		t.Fatalf("no remote edges in Figure 2 graph")
	}
}
