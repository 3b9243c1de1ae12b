package sched

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/util"
)

// buildChainGadget makes a linear chain T0 -> T1 -> ... -> T{n-1} where
// every task writes a link object owned by processor 0 and reads an unowned
// file object of the given size that its successor reads again — the
// 1-ary memory tree.
func buildChainGadget(t *testing.T, sizes []int64) *graph.DAG {
	t.Helper()
	b := graph.NewBuilder()
	n := len(sizes)
	link := make([]graph.ObjID, n)
	file := make([]graph.ObjID, n)
	for i := 0; i < n; i++ {
		link[i] = b.Object("l"+string(rune('A'+i)), 1)
		file[i] = b.Object("f"+string(rune('A'+i)), sizes[i])
	}
	for i := 0; i < n; i++ {
		reads := []graph.ObjID{file[i]}
		if i > 0 {
			reads = append(reads, link[i-1], file[i-1])
		}
		b.Task("T"+string(rune('A'+i)), 1, reads, []graph.ObjID{link[i]})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		g.Objects[link[i]].Owner = 0
	}
	return g
}

// TestTreeMemChainTakesLiuPath pins the Liu branch on the simplest tree: a
// chain is an in-forest with chain-shaped lifetimes, its only traversal is
// program order, and the footprint is the largest adjacent file pair plus
// the link residency.
func TestTreeMemChainTakesLiuPath(t *testing.T) {
	g := buildChainGadget(t, []int64{3, 5, 2, 4})
	assign, err := OwnerComputeAssign(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	order, liu, err := TreeMemOrder(g, assign, Unit())
	if err != nil {
		t.Fatal(err)
	}
	if !liu {
		t.Fatal("chain gadget did not take the Liu tree path")
	}
	for i, tk := range order {
		if int(tk) != i {
			t.Fatalf("chain order %v is not program order", order)
		}
	}
	s, err := ScheduleTreeMem(g, assign, 1, Unit())
	if err != nil {
		t.Fatal(err)
	}
	// perm: 4 links of size 1; peak volatile pair: f1+f2 = 5+3... the
	// largest adjacent pair is (3,5) -> 8; MIN_MEM = 4 + 8 = 12.
	if got := s.MinMem(); got != 12 {
		t.Fatalf("chain MIN_MEM %d, want 12", got)
	}
	if fp := SequentialFootprint(g, assign, 1, order); fp != s.MinMem() {
		t.Fatalf("chain footprint %d != MIN_MEM %d (single-proc tree must realize its bound)", fp, s.MinMem())
	}
}

// TestTreeMemOrderBeatsPostorderOnSkewedTree pins a case where child order
// matters: two subtrees with different hills must be traversed
// heaviest-first. Liu's merge does so; a naive id-order postorder does not.
func TestTreeMemOrderBeatsPostorderOnSkewedTree(t *testing.T) {
	// Root with children A (file 2) and B (file 7). Visiting A first keeps
	// A's file alive (2) while B's hill (7) is climbed: peak 9. Visiting B
	// first: peak max(7, 2+7=9)... both orders reach 9 at the root where
	// f_A + f_B + f_root coexist; distinguish with deeper subtrees:
	// A = chain a1(6)->a2(1), B = chain b1(5)->b2(1), root file 1.
	// Traversing A fully then B: peak = max(6+1 during a2, 1 + 5+1, ...)
	//   a1: 6; a2: 6+1=7 (f_a1 freed after a2 -> residual 1+... link sizes
	// aside, the exact numbers are asserted via SequentialFootprint below
	// rather than re-derived here.
	b := graph.NewBuilder()
	mk := func(name string, size int64) graph.ObjID { return b.Object(name, size) }
	la1, la2 := mk("la1", 1), mk("la2", 1)
	lb1, lb2 := mk("lb1", 1), mk("lb2", 1)
	lr := mk("lr", 1)
	fa1, fa2 := mk("fa1", 6), mk("fa2", 1)
	fb1, fb2 := mk("fb1", 5), mk("fb2", 1)
	fr := mk("fr", 1)
	b.Task("a1", 1, []graph.ObjID{fa1}, []graph.ObjID{la1})
	b.Task("a2", 1, []graph.ObjID{fa2, la1, fa1}, []graph.ObjID{la2})
	b.Task("b1", 1, []graph.ObjID{fb1}, []graph.ObjID{lb1})
	b.Task("b2", 1, []graph.ObjID{fb2, lb1, fb1}, []graph.ObjID{lb2})
	b.Task("r", 1, []graph.ObjID{fr, la2, fa2, lb2, fb2}, []graph.ObjID{lr})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []graph.ObjID{la1, la2, lb1, lb2, lr} {
		g.Objects[o].Owner = 0
	}
	assign, err := OwnerComputeAssign(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	order, liu, err := TreeMemOrder(g, assign, Unit())
	if err != nil {
		t.Fatal(err)
	}
	if !liu {
		t.Fatal("skewed tree did not take the Liu path")
	}
	got := SequentialFootprint(g, assign, 1, order)
	// Every valid traversal is a permutation of the two chains plus the
	// root; enumerate all of them and take the best footprint.
	best := int64(1 << 62)
	orders := [][]graph.TaskID{
		{0, 1, 2, 3, 4}, {2, 3, 0, 1, 4},
		{0, 2, 1, 3, 4}, {2, 0, 3, 1, 4},
		{0, 2, 3, 1, 4}, {2, 0, 1, 3, 4},
	}
	for _, o := range orders {
		if fp := SequentialFootprint(g, assign, 1, o); fp < best {
			best = fp
		}
	}
	if got != best {
		t.Fatalf("Liu traversal footprint %d, best over all traversals %d (order %v)", got, best, order)
	}
}

// TestTreeMemGeneralDAGFallsBackToGreedy checks the non-tree path: the
// Figure-2 DAG has fanout, so TreeMem must take the greedy sweep and still
// produce a valid schedule whose MIN_MEM respects the sequential footprint
// bound.
func TestTreeMemGeneralDAGFallsBackToGreedy(t *testing.T) {
	g := Figure2DAG()
	assign, err := OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	order, liu, err := TreeMemOrder(g, assign, T3D())
	if err != nil {
		t.Fatal(err)
	}
	if liu {
		t.Fatal("Figure-2 DAG (fanout) claimed the Liu tree path")
	}
	if len(order) != g.NumTasks() {
		t.Fatalf("order has %d of %d tasks", len(order), g.NumTasks())
	}
	s, err := ScheduleTreeMem(g, assign, 2, T3D())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Heuristic != TreeMem {
		t.Fatalf("schedule records heuristic %v", s.Heuristic)
	}
	if bound := SequentialFootprint(g, assign, 2, order); s.MinMem() > bound {
		t.Fatalf("MIN_MEM %d exceeds the sequential footprint bound %d", s.MinMem(), bound)
	}
	// The memory-first order matches MPO/DTS's 7 on this example (RCP: 9).
	if got := s.MinMem(); got != 7 {
		t.Fatalf("Figure-2 TreeMem MIN_MEM %d, want 7", got)
	}
}

// TestTreeMemBoundOnRandomDAGs is the bound property at scale: on arbitrary
// random owner-compute DAGs (nothing tree-shaped about them) the rank-strict
// lifting keeps MIN_MEM within the activation order's sequential footprint,
// and scheduling is deterministic.
func TestTreeMemBoundOnRandomDAGs(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		rng := util.NewRNG(seed * 31)
		p := 1 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 10+rng.Intn(50), 5+rng.Intn(20), p)
		assign, err := OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		order, _, err := TreeMemOrder(g, assign, Unit())
		if err != nil {
			t.Fatal(err)
		}
		s, err := ScheduleTreeMem(g, assign, p, Unit())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if bound := SequentialFootprint(g, assign, p, order); s.MinMem() > bound {
			t.Fatalf("seed %d: MIN_MEM %d exceeds footprint bound %d", seed, s.MinMem(), bound)
		}
		s2, err := ScheduleTreeMem(g, assign, p, Unit())
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < p; q++ {
			if len(s.Order[q]) != len(s2.Order[q]) {
				t.Fatalf("seed %d: nondeterministic order lengths", seed)
			}
			for i := range s.Order[q] {
				if s.Order[q][i] != s2.Order[q][i] {
					t.Fatalf("seed %d: nondeterministic order on proc %d", seed, q)
				}
			}
		}
	}
}

// TestFigure2PerProcPeaks pins the per-processor peak vector and imbalance
// on the paper's Figure-2 example: before the fix PerProcPeak was a bare
// MinMem alias and the table could not see that RCP's 9 lives entirely on
// processor 1 while processor 0 peaks at 7.
func TestFigure2PerProcPeaks(t *testing.T) {
	g := Figure2DAG()
	assign, err := OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	rcp, err := ScheduleRCP(g, assign, 2, T3D())
	if err != nil {
		t.Fatal(err)
	}
	peaks := rcp.PerProcPeaks()
	if len(peaks) != 2 || peaks[0] != 7 || peaks[1] != 9 {
		t.Fatalf("RCP per-proc peaks %v, want [7 9]", peaks)
	}
	if rcp.MinMem() != 9 {
		t.Fatalf("RCP MinMem %d, want 9", rcp.MinMem())
	}
	if imb := rcp.PeakImbalance(); imb != 1.125 {
		t.Fatalf("RCP peak imbalance %g, want 1.125 (9*2/16)", imb)
	}
	mpo, err := ScheduleMPO(g, assign, 2, T3D())
	if err != nil {
		t.Fatal(err)
	}
	peaks = mpo.PerProcPeaks()
	if len(peaks) != 2 || peaks[0] != 7 || peaks[1] != 6 {
		t.Fatalf("MPO per-proc peaks %v, want [7 6]", peaks)
	}
	if imb := mpo.PeakImbalance(); imb <= 1.076 || imb >= 1.077 {
		t.Fatalf("MPO peak imbalance %g, want 14/13", imb)
	}
}

// TestPeakImbalanceDegenerate covers the all-zero guard.
func TestPeakImbalanceDegenerate(t *testing.T) {
	b := graph.NewBuilder()
	o := b.Object("x", 0)
	b.Task("t", 1, nil, []graph.ObjID{o})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[o].Owner = 0
	assign, err := OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ScheduleRCP(g, assign, 2, Unit())
	if err != nil {
		t.Fatal(err)
	}
	if imb := s.PeakImbalance(); imb != 1.0 {
		t.Fatalf("zero-size schedule imbalance %g, want 1", imb)
	}
}
