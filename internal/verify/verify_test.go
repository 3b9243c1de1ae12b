package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
)

func figure2Plan(t *testing.T, h sched.Heuristic, capacity int64) (*sched.Schedule, *mem.Plan) {
	t.Helper()
	g := sched.Figure2DAG()
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleWith(h, g, assign, 2, sched.Unit(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mem.NewPlan(s, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return s, pl
}

func has(res *Result, cl Class) bool {
	_, ok := find(res, cl)
	return ok
}

func find(res *Result, cl Class) (Finding, bool) {
	for _, f := range res.Findings {
		if f.Class == cl {
			return f, true
		}
	}
	return Finding{}, false
}

// mutation is one plan the tests of this file check: a defect planted in a
// clean plan, or an edge case. TestVerifyGolden records the verifier's
// whole output on every one of them.
type mutation struct {
	name string
	plan func(t *testing.T) (*sched.Schedule, *mem.Plan)
}

func mutations() []mutation {
	heuristics := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS, sched.DTSMerge, sched.TreeMem}
	var ms []mutation
	for _, h := range heuristics {
		for _, cap := range []int64{1 << 30, 12, 9} {
			ms = append(ms, mutation{fmt.Sprintf("figure2 %v capacity %d", h, cap), func(t *testing.T) (*sched.Schedule, *mem.Plan) {
				return figure2Plan(t, h, cap)
			}})
		}
	}
	drop := func(f func(t *testing.T) (*sched.Schedule, *mem.Plan, graph.Proc, graph.ObjID)) func(t *testing.T) (*sched.Schedule, *mem.Plan) {
		return func(t *testing.T) (*sched.Schedule, *mem.Plan) { s, pl, _, _ := f(t); return s, pl }
	}
	return append(ms,
		mutation{"non-executable", func(t *testing.T) (*sched.Schedule, *mem.Plan) { return figure2Plan(t, sched.RCP, 3) }},
		mutation{"nil", func(*testing.T) (*sched.Schedule, *mem.Plan) { return nil, nil }},
		mutation{"stripped allocation", drop(stripAlloc)},
		mutation{"free before last use", drop(earlyFree)},
		mutation{"double free and resurrection", doubleFreeRealloc},
		mutation{"budget overflow and peak mismatch", overBudget},
		mutation{"dropped notify", dropNotify},
		mutation{"reversed order", reverseOrder},
		mutation{"wait-for cycle", crossSchedule},
		mutation{"threshold baseline", func(t *testing.T) (*sched.Schedule, *mem.Plan) {
			s, pl, _, _, _ := thresholdFixture(t)
			return s, pl
		}},
		mutation{"ungated remote read", func(t *testing.T) (*sched.Schedule, *mem.Plan) {
			s, pl, tamper, _, _ := thresholdFixture(t)
			tamper()
			return s, pl
		}},
		mutation{"slice order broken", breakSliceOrder},
		mutation{"gutted", gutted},
		mutation{"stale peak", stalePeak},
	)
}

func TestCleanPlansPass(t *testing.T) {
	for _, h := range []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS, sched.DTSMerge, sched.TreeMem} {
		for _, cap := range []int64{1 << 30, 12, 9} {
			s, pl := figure2Plan(t, h, cap)
			res := Check(s, pl)
			if !res.OK() {
				t.Errorf("%v/cap=%d: clean plan rejected: %v", h, cap, res.Err())
			}
			if res.Checks == 0 {
				t.Errorf("%v/cap=%d: no checks counted", h, cap)
			}
			if pl.Executable {
				for p, want := range res.Peaks {
					if want != pl.Procs[p].Peak {
						t.Errorf("%v/cap=%d: replayed peak %d != declared %d on P%d",
							h, cap, want, pl.Procs[p].Peak, p)
					}
				}
			}
		}
	}
}

func TestNonExecutablePlanPasses(t *testing.T) {
	s, pl := figure2Plan(t, sched.RCP, 3)
	if pl.Executable {
		t.Skip("capacity unexpectedly executable")
	}
	res := Check(s, pl)
	if !res.OK() {
		t.Fatalf("non-executable plan should verify clean (it declares failure): %v", res.Err())
	}
	if res.Executable {
		t.Fatalf("result should mirror non-executability")
	}
}

func TestNilInputs(t *testing.T) {
	if res := Check(nil, nil); !has(res, ClassStructure) {
		t.Fatalf("nil inputs must yield a structure finding")
	}
	if res := CheckArtifact(nil); !has(res, ClassStructure) {
		t.Fatalf("nil artifact must yield a structure finding")
	}
}

// firstVolatileAlloc returns the first (proc, MAP index, alloc slot) whose
// object is used by more than zero tasks, for tamper tests.
func firstVolatileAlloc(t *testing.T, pl *mem.Plan) (p, mi, ai int) {
	t.Helper()
	for p := range pl.Procs {
		for mi := range pl.Procs[p].MAPs {
			if len(pl.Procs[p].MAPs[mi].Allocs) > 0 {
				return p, mi, 0
			}
		}
	}
	t.Fatal("plan has no volatile allocations")
	return 0, 0, 0
}

// stripAlloc drops the first volatile allocation of a clean plan: its
// object o is then used on processor p before any MAP allocates it.
func stripAlloc(t *testing.T) (s *sched.Schedule, pl *mem.Plan, p graph.Proc, o graph.ObjID) {
	s, pl = figure2Plan(t, sched.RCP, 1<<30)
	pi, mi, ai := firstVolatileAlloc(t, pl)
	mapp := &pl.Procs[pi].MAPs[mi]
	o = mapp.Allocs[ai]
	mapp.Allocs = append(mapp.Allocs[:ai], mapp.Allocs[ai+1:]...)
	return s, pl, graph.Proc(pi), o
}

func TestDetectUseBeforeMAP(t *testing.T) {
	s, pl, p, o := stripAlloc(t)
	res := Check(s, pl)
	f, ok := find(res, ClassUseBeforeMAP)
	if !ok {
		t.Fatalf("stripped allocation not detected: %v", res.Findings)
	}
	if f.Obj != o || f.Proc != p || f.Task == graph.None {
		t.Fatalf("imprecise diagnostic: %+v (want obj %d on P%d with a task)", f, o, p)
	}
}

// earlyFree frees the first volatile allocation's object o at a synthetic
// MAP right after the allocating one, before its last use on p.
func earlyFree(t *testing.T) (s *sched.Schedule, pl *mem.Plan, p graph.Proc, o graph.ObjID) {
	s, pl = figure2Plan(t, sched.RCP, 1<<30)
	pi, mi, ai := firstVolatileAlloc(t, pl)
	mapp := &pl.Procs[pi].MAPs[mi]
	o = mapp.Allocs[ai]
	last := int32(len(s.Order[pi]))
	pl.Procs[pi].MAPs[mi].CoverEnd = mapp.Pos + 1
	pl.Procs[pi].MAPs = append(pl.Procs[pi].MAPs, mem.MAP{
		Pos: mapp.Pos + 1, CoverEnd: last, Frees: []graph.ObjID{o},
	})
	return s, pl, graph.Proc(pi), o
}

func TestDetectFreeBeforeLastUse(t *testing.T) {
	s, pl, p, o := earlyFree(t)
	res := Check(s, pl)
	f, ok := find(res, ClassUseAfterFree)
	if !ok {
		t.Fatalf("early free not detected: %v", res.Findings)
	}
	if f.Obj != o || f.Proc != p {
		t.Fatalf("imprecise diagnostic: %+v", f)
	}
}

// doubleFreeRealloc adds a last MAP that frees the first volatile
// allocation's object twice and allocates it again.
func doubleFreeRealloc(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.RCP, 1<<30)
	p, mi, ai := firstVolatileAlloc(t, pl)
	o := pl.Procs[p].MAPs[mi].Allocs[ai]
	last := int32(len(s.Order[p]))
	pl.Procs[p].MAPs[mi].CoverEnd = last - 1
	pl.Procs[p].MAPs = append(pl.Procs[p].MAPs, mem.MAP{
		Pos: last - 1, CoverEnd: last,
		Frees:  []graph.ObjID{o, o},
		Allocs: []graph.ObjID{o},
	})
	return s, pl
}

func TestDetectDoubleFreeAndRealloc(t *testing.T) {
	res := Check(doubleFreeRealloc(t))
	if !has(res, ClassDoubleFree) {
		t.Fatalf("double free not detected: %v", res.Findings)
	}
	if !has(res, ClassRealloc) {
		t.Fatalf("resurrection not detected: %v", res.Findings)
	}
}

// overBudget sets the capacity far below the replayed peak, which the plan
// still claims to fit, and makes P0's declared peak stale.
func overBudget(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.RCP, 1<<30)
	pl.Capacity = 1
	pl.Procs[0].Peak++
	return s, pl
}

func TestDetectBudgetOverflowAndPeakMismatch(t *testing.T) {
	res := Check(overBudget(t))
	if !has(res, ClassBudgetOverflow) {
		t.Fatalf("budget overflow not detected: %v", res.Findings)
	}
	f, _ := find(res, ClassPeakMismatch)
	if f.Proc != 0 {
		t.Fatalf("peak mismatch not located on P0: %v", res.Findings)
	}
}

// dropNotify empties the first non-empty address-package set; the plan
// comes back untouched if it has none.
func dropNotify(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.RCP, 1<<30)
	for p := range pl.Procs {
		for mi := range pl.Procs[p].MAPs {
			if pl.Procs[p].MAPs[mi].Notify.Len() > 0 {
				pl.Procs[p].MAPs[mi].Notify = mem.Notify{}
				return s, pl
			}
		}
	}
	return s, pl
}

func TestDetectNotifyMismatch(t *testing.T) {
	s, pl := dropNotify(t)
	if res := Check(s, pl); !has(res, ClassNotifyMismatch) {
		t.Fatalf("dropped address packages not detected: %v", res.Findings)
	}
}

// reverseOrder reverses the first processor order with two or more tasks:
// every same-processor edge on it flips.
func reverseOrder(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.RCP, 1<<30)
	for p := range s.Order {
		if len(s.Order[p]) < 2 {
			continue
		}
		o := s.Order[p]
		for i, j := 0, len(o)-1; i < j; i, j = i+1, j-1 {
			o[i], o[j] = o[j], o[i]
		}
		break
	}
	return s, pl
}

func TestDetectOrderViolation(t *testing.T) {
	if res := Check(reverseOrder(t)); !has(res, ClassOrderViolation) {
		t.Fatalf("reversed order not detected: %v", res.Findings)
	}
}

// crossSchedule builds the minimal deadlock: a->b and c->d cross processors,
// but P0 orders d before a and P1 orders b before c, so each processor's
// first task waits on the other's second.
func crossSchedule(t *testing.T) (*sched.Schedule, *mem.Plan) {
	t.Helper()
	b := graph.NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	u := b.Object("u", 1)
	w := b.Object("w", 1)
	ta := b.Task("a", 1, nil, []graph.ObjID{x})
	tb := b.Task("b", 1, []graph.ObjID{x}, []graph.ObjID{y})
	tc := b.Task("c", 1, nil, []graph.ObjID{u})
	td := b.Task("d", 1, []graph.ObjID{u}, []graph.ObjID{w})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 0
	g.Objects[w].Owner = 0
	g.Objects[y].Owner = 1
	g.Objects[u].Owner = 1
	s := &sched.Schedule{
		G: g, P: 2,
		Assign: []graph.Proc{0, 1, 1, 0},
		Order:  [][]graph.TaskID{{td, ta}, {tb, tc}},
		Pos:    make([]int32, 4),
	}
	for p := range s.Order {
		for i, tk := range s.Order[p] {
			s.Pos[tk] = int32(i)
		}
	}
	pl := &mem.Plan{Schedule: s, Capacity: 1 << 30, Executable: true,
		Procs: make([]mem.ProcPlan, 2)}
	// Minimal MAP structure: one initial MAP per processor allocating the
	// volatile objects it reads.
	alloc := [][]graph.ObjID{{u}, {x}}
	notify := []mem.Notify{
		{Dst: []graph.Proc{1}, Off: []int32{0, 1}, Objs: []graph.ObjID{u}},
		{Dst: []graph.Proc{0}, Off: []int32{0, 1}, Objs: []graph.ObjID{x}},
	}
	for p := range pl.Procs {
		pl.Procs[p] = mem.ProcPlan{Executable: true, Peak: 1,
			MAPs: []mem.MAP{{Pos: 0, CoverEnd: int32(len(s.Order[p])),
				Allocs: alloc[p], Notify: notify[p]}}}
	}
	return s, pl
}

func TestDetectWaitForCycle(t *testing.T) {
	s, pl := crossSchedule(t)
	res := Check(s, pl)
	f, ok := find(res, ClassWaitCycle)
	if !ok {
		t.Fatalf("deadlock not detected: %v", res.Findings)
	}
	// The chain must name all four tasks and carry the wait reasons.
	for _, name := range []string{`"a"`, `"b"`, `"c"`, `"d"`} {
		if !strings.Contains(f.Detail, name) {
			t.Fatalf("blocking chain missing task %s: %s", name, f.Detail)
		}
	}
	if !strings.Contains(f.Detail, "waits for arrival") {
		t.Fatalf("blocking chain missing wait reason: %s", f.Detail)
	}
}

// thresholdFixture builds a three-task pipeline a(P0) -> b(P1) -> c(P1)
// whose hand-built plan passes, then a tamper closure that makes c read x
// without any true-dependence in-edge for it (the static picture of
// protocol tables that lost a producer): a version of x still arrives at P1
// for b, but nothing orders c's read against it.
func thresholdFixture(t *testing.T) (s *sched.Schedule, pl *mem.Plan, tamper func(), tc graph.TaskID, x graph.ObjID) {
	t.Helper()
	b := graph.NewBuilder()
	x = b.Object("x", 1)
	y := b.Object("y", 1)
	z := b.Object("z", 1)
	ta := b.Task("a", 1, nil, []graph.ObjID{x})
	tb := b.Task("b", 1, []graph.ObjID{x}, []graph.ObjID{y})
	tc = b.Task("c", 1, []graph.ObjID{y}, []graph.ObjID{z})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 0
	g.Objects[y].Owner = 1
	g.Objects[z].Owner = 1
	s = &sched.Schedule{
		G: g, P: 2,
		Assign: []graph.Proc{0, 1, 1},
		Order:  [][]graph.TaskID{{ta}, {tb, tc}},
		Pos:    []int32{0, 0, 1},
	}
	pl = &mem.Plan{Schedule: s, Capacity: 1 << 30, Executable: true,
		Procs: []mem.ProcPlan{
			{Executable: true, Peak: 1, // permanent x
				MAPs: []mem.MAP{{Pos: 0, CoverEnd: 1}}},
			{Executable: true, Peak: 3, // permanent y,z + volatile x
				MAPs: []mem.MAP{{Pos: 0, CoverEnd: 2,
					Allocs: []graph.ObjID{x},
					Notify: mem.Notify{Dst: []graph.Proc{0}, Off: []int32{0, 1}, Objs: []graph.ObjID{x}}}}},
		}}
	tamper = func() { *g = *withRead(g, tc, x) }
	return s, pl, tamper, tc, x
}

// withRead returns g with one more read, of o by task t: the access table
// changes, the edges stay.
func withRead(g *graph.DAG, t graph.TaskID, o graph.ObjID) *graph.DAG {
	var acc graph.Accesses
	var names graph.Names
	var edges []graph.Edge
	for v := range g.Tasks {
		id := graph.TaskID(v)
		reads := g.Reads(id)
		if id == t {
			reads = append(slices.Clip(reads), o)
		}
		acc.Add(reads, g.Writes(id))
		names.Append(g.TaskName(id))
		edges = append(edges, g.Out(id)...)
	}
	return graph.NewDAG(g.Tasks, g.Objects, acc, names, edges)
}

func TestDetectThresholdMismatch(t *testing.T) {
	s, pl, tamper, tc, x := thresholdFixture(t)
	if res := Check(s, pl); !res.OK() {
		t.Fatalf("baseline hand-built plan should pass: %v", res.Err())
	}
	tamper()
	res := Check(s, pl)
	f, ok := find(res, ClassThresholdMismatch)
	if !ok {
		t.Fatalf("ungated remote read not detected: %v", res.Findings)
	}
	if f.Task != tc || f.Obj != x {
		t.Fatalf("imprecise diagnostic: %+v", f)
	}
}

// breakSliceOrder gives the last task of the first DTS processor order with
// a multi-slice tail a smaller slice than its predecessor; the plan comes
// back untouched if there is no such order.
func breakSliceOrder(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.DTS, 1<<30)
	if s.Slices == nil {
		return s, pl
	}
	for p := range s.Order {
		o := s.Order[p]
		if len(o) < 2 {
			continue
		}
		lastT, prevT := o[len(o)-1], o[len(o)-2]
		if s.Slices[prevT] > 0 {
			s.Slices[lastT] = s.Slices[prevT] - 1
			break
		}
	}
	return s, pl
}

func TestDetectDTSBoundViolation(t *testing.T) {
	s, pl := breakSliceOrder(t)
	if res := Check(s, pl); !has(res, ClassDTSBound) {
		t.Fatalf("slice-monotonicity violation not detected: %v", res.Findings)
	}
}

// gutted strips every allocation and address package everywhere: floods of
// use-before-map findings, bounded by dedup and the cap.
func gutted(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.RCP, 1<<30)
	for p := range pl.Procs {
		for mi := range pl.Procs[p].MAPs {
			pl.Procs[p].MAPs[mi].Allocs = nil
			pl.Procs[p].MAPs[mi].Notify = mem.Notify{}
		}
	}
	return s, pl
}

func TestFindingsCapped(t *testing.T) {
	res := Check(gutted(t))
	if res.OK() {
		t.Fatal("gutted plan passed")
	}
	if len(res.Findings) > maxFindings {
		t.Fatalf("findings not capped: %d", len(res.Findings))
	}
}

// stalePeak makes P0's declared peak disagree with the replay.
func stalePeak(t *testing.T) (*sched.Schedule, *mem.Plan) {
	s, pl := figure2Plan(t, sched.RCP, 1<<30)
	pl.Procs[0].Peak++
	return s, pl
}

func TestResultRendering(t *testing.T) {
	res := Check(stalePeak(t))
	if res.Err() == nil {
		t.Fatal("expected error")
	}
	cols, rows := res.Rows()
	if len(cols) == 0 || len(rows) != len(res.Findings) {
		t.Fatalf("rows mismatch: %d cols, %d rows, %d findings", len(cols), len(rows), len(res.Findings))
	}
	for _, r := range rows {
		if len(r) != len(cols) {
			t.Fatalf("ragged row: %v", r)
		}
	}
	for _, f := range res.Findings {
		if f.String() == "" {
			t.Fatal("empty rendering")
		}
	}
}
