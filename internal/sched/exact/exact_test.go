package exact_test

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/sched/exact"
	"repro/internal/util"
)

// randomInstance builds a random owner-compute instance of at most n tasks
// on p processors: task i writes its own object and reads a few earlier
// ones, so dependence chains, fanout and volatile lifetimes all vary with
// the seed.
func randomInstance(t *testing.T, seed uint64, n, p int) (*graph.DAG, []graph.Proc) {
	t.Helper()
	rng := util.NewRNG(seed)
	b := graph.NewBuilder()
	objs := make([]graph.ObjID, n)
	for i := 0; i < n; i++ {
		objs[i] = b.Object(fmt.Sprintf("d%d", i), int64(1+rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		var reads []graph.ObjID
		if i > 0 {
			k := rng.Intn(3)
			seen := map[int]bool{}
			for j := 0; j < k; j++ {
				pick := rng.Intn(i)
				if !seen[pick] {
					seen[pick] = true
					reads = append(reads, objs[pick])
				}
			}
		}
		b.Task(fmt.Sprintf("t%d", i), 1+rng.Float64()*2, reads, []graph.ObjID{objs[i]})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	sched.CyclicOwners(g, p)
	assign, err := sched.OwnerComputeAssign(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return g, assign
}

func allHeuristics() []sched.Heuristic {
	return []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS, sched.DTSMerge, sched.TreeMem}
}

// TestFrontierLowerBoundsHeuristics is the core property: on random small
// instances, every heuristic's (makespan, MIN_MEM) must be weakly dominated
// by the exact frontier — the solver lower-bounds the heuristics in both
// dimensions at once. The companion mutation checks prove the property has
// teeth: points strictly better than the frontier are rejected.
func TestFrontierLowerBoundsHeuristics(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 15
	}
	model := sched.Unit()
	for seed := 0; seed < seeds; seed++ {
		rng := util.NewRNG(uint64(seed)*77 + 1)
		n := 4 + rng.Intn(9) // 4..12 tasks
		p := 1 + rng.Intn(3)
		g, assign := randomInstance(t, uint64(seed)+1000, n, p)
		res, err := exact.Frontier(g, assign, p, model, exact.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Complete {
			t.Fatalf("seed %d: budget exhausted on a %d-task instance", seed, n)
		}
		if len(res.Frontier) == 0 {
			t.Fatalf("seed %d: empty frontier", seed)
		}
		for _, h := range allHeuristics() {
			s, err := sched.ScheduleWith(h, g, assign, p, model, 1<<40)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, h, err)
			}
			if !res.Admits(s.Makespan, s.MinMem()) {
				t.Errorf("seed %d: %s point (%g, %d) beats the exact frontier %v",
					seed, h, s.Makespan, s.MinMem(), res.Frontier)
			}
			if gt, ok := res.GapTime(s.Makespan, s.MinMem()); ok && gt < 1-1e-9 {
				t.Errorf("seed %d: %s time gap %g below 1", seed, h, gt)
			}
			if gm, ok := res.GapMem(s.MinMem()); ok && gm < 1-1e-9 {
				t.Errorf("seed %d: %s mem gap %g below 1", seed, h, gm)
			}
		}
		// Mutation check: a fabricated measurement strictly better than the
		// frontier in either dimension must be caught.
		best := res.Frontier[0]
		if res.Admits(best.Makespan*0.99-0.01, 1<<40) {
			t.Errorf("seed %d: admitted a makespan faster than optimal", seed)
		}
		if best.MinMem > 0 && res.Admits(best.Makespan, best.MinMem-1) {
			t.Errorf("seed %d: admitted (optimal makespan, less than its memory)", seed)
		}
		low := res.BestMem()
		if low > 0 && res.Admits(math.Inf(1), low-1) {
			t.Errorf("seed %d: admitted memory below the instance minimum", seed)
		}
	}
}

// naiveFrontier enumerates every interleaving of ready tasks with no
// pruning at all and collects the non-dominated (makespan, MIN_MEM) pairs
// under the same start-time and immediate-free semantics as the solver and
// runList. Exponential — callers keep n tiny.
func naiveFrontier(g *graph.DAG, assign []graph.Proc, p int, model sched.CostModel) []exact.Point {
	n := g.NumTasks()
	m := g.NumObjects()
	perm := make([]int64, p)
	for i := range g.Objects {
		o := &g.Objects[i]
		if o.Owner >= 0 && int(o.Owner) < p {
			perm[o.Owner] += o.Size
		}
	}
	type vol struct {
		o  graph.ObjID
		sz int64
	}
	vols := make([][]vol, n)
	cnt := make([]int32, p*m)
	for t := 0; t < n; t++ {
		q := assign[t]
		seen := map[graph.ObjID]bool{}
		for _, o := range g.Accesses(graph.TaskID(t)) {
			if g.Objects[o].Owner == q || seen[o] {
				continue
			}
			seen[o] = true
			vols[t] = append(vols[t], vol{o, g.Objects[o].Size})
			cnt[int(q)*m+int(o)]++
		}
	}
	var points []exact.Point
	left := append([]int32(nil), cnt...)
	clock := make([]float64, p)
	alive := make([]int64, p)
	peak := make([]int64, p)
	ready := make([]float64, n)
	remaining := make([]int32, n)
	for t := 0; t < n; t++ {
		remaining[t] = int32(len(g.In(graph.TaskID(t))))
	}
	done := make([]bool, n)
	var rec func(placed int)
	rec = func(placed int) {
		if placed == n {
			var mk float64
			var mm int64
			for q := 0; q < p; q++ {
				if clock[q] > mk {
					mk = clock[q]
				}
				if v := perm[q] + peak[q]; v > mm {
					mm = v
				}
			}
			points = append(points, exact.Point{Makespan: mk, MinMem: mm})
			return
		}
		for t := 0; t < n; t++ {
			if done[t] || remaining[t] != 0 {
				continue
			}
			q := assign[t]
			sClock, sAlive, sPeak := clock[q], alive[q], peak[q]
			sReady := append([]float64(nil), ready...)
			start := clock[q]
			if ready[t] > start {
				start = ready[t]
			}
			finish := start + model.TaskTime(&g.Tasks[t])
			clock[q] = finish
			base := int(q) * m
			for _, v := range vols[t] {
				if left[base+int(v.o)] == cnt[base+int(v.o)] {
					alive[q] += v.sz
				}
			}
			if alive[q] > peak[q] {
				peak[q] = alive[q]
			}
			for _, v := range vols[t] {
				left[base+int(v.o)]--
				if left[base+int(v.o)] == 0 {
					alive[q] -= v.sz
				}
			}
			for _, e := range g.Out(graph.TaskID(t)) {
				arr := finish
				if e.Kind == graph.DepTrue && assign[e.From] != assign[e.To] {
					arr += model.CommTime(g.Objects[e.Obj].Size)
				}
				if arr > ready[e.To] {
					ready[e.To] = arr
				}
				remaining[e.To]--
			}
			done[t] = true
			rec(placed + 1)
			done[t] = false
			for _, e := range g.Out(graph.TaskID(t)) {
				remaining[e.To]++
			}
			copy(ready, sReady)
			for _, v := range vols[t] {
				left[base+int(v.o)]++
			}
			clock[q], alive[q], peak[q] = sClock, sAlive, sPeak
		}
	}
	rec(0)
	// Reduce to the non-dominated set.
	sort.Slice(points, func(i, j int) bool {
		if points[i].Makespan != points[j].Makespan {
			return points[i].Makespan < points[j].Makespan
		}
		return points[i].MinMem < points[j].MinMem
	})
	var front []exact.Point
	bestMem := int64(math.MaxInt64)
	for _, pt := range points {
		if pt.MinMem < bestMem {
			front = append(front, pt)
			bestMem = pt.MinMem
		}
	}
	return front
}

// TestFrontierMatchesBruteForce differentially validates the pruned solver
// against an unpruned enumeration on tiny instances: the prunings
// (incumbent dominance, memoized state dominance, lower bounds) must never
// cut a frontier point.
func TestFrontierMatchesBruteForce(t *testing.T) {
	seeds := 30
	if testing.Short() {
		seeds = 10
	}
	model := sched.Unit()
	for seed := 0; seed < seeds; seed++ {
		rng := util.NewRNG(uint64(seed)*13 + 5)
		n := 3 + rng.Intn(5) // 3..7 tasks
		p := 1 + rng.Intn(2)
		g, assign := randomInstance(t, uint64(seed)+500, n, p)
		res, err := exact.Frontier(g, assign, p, model, exact.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := naiveFrontier(g, assign, p, model)
		if len(res.Frontier) != len(want) {
			t.Fatalf("seed %d: frontier %v, brute force %v", seed, res.Frontier, want)
		}
		for i := range want {
			if math.Abs(res.Frontier[i].Makespan-want[i].Makespan) > 1e-9 ||
				res.Frontier[i].MinMem != want[i].MinMem {
				t.Fatalf("seed %d: frontier %v, brute force %v", seed, res.Frontier, want)
			}
		}
	}
}

// TestTaskCapAndBudget pins the guard rails: oversized instances are
// rejected, and an exhausted node budget is reported as incomplete rather
// than silently passing off a partial frontier as exact.
func TestTaskCapAndBudget(t *testing.T) {
	g, assign := randomInstance(t, 9, 22, 2)
	if _, err := exact.Frontier(g, assign, 2, sched.Unit(), exact.Options{}); err == nil {
		t.Fatal("22-task instance accepted by the default 20-task cap")
	}
	g31, assign31 := randomInstance(t, 9, 31, 2)
	if _, err := exact.Frontier(g31, assign31, 2, sched.Unit(), exact.Options{MaxTasks: 40}); err == nil {
		t.Fatal("31-task instance accepted despite the 30-bit mask limit")
	}
	g2, assign2 := randomInstance(t, 11, 14, 2)
	res, err := exact.Frontier(g2, assign2, 2, sched.Unit(), exact.Options{NodeBudget: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Fatal("5-node budget reported a complete search")
	}
	if res.Nodes <= 5 && len(res.Frontier) > 0 {
		t.Fatalf("budget-capped run did %d nodes yet offered %d points", res.Nodes, len(res.Frontier))
	}
}

// TestEmptyAndHelpers covers the degenerate accessors.
func TestEmptyAndHelpers(t *testing.T) {
	var r exact.Result
	if r.BestMem() != 0 || r.BestMakespan() != 0 {
		t.Fatal("empty result should report zero bests")
	}
	if _, ok := r.GapMem(5); ok {
		t.Fatal("GapMem on empty frontier should report not-ok")
	}
	if _, ok := r.GapTime(5, 5); ok {
		t.Fatal("GapTime on empty frontier should report not-ok")
	}
	if r.Admits(1, 1) {
		t.Fatal("empty frontier admits nothing")
	}
}
