package mem

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
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

func TestFullCapacitySingleMAP(t *testing.T) {
	s := figure2Schedule(t, sched.RCP)
	pl, err := NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Executable {
		t.Fatalf("full capacity must be executable")
	}
	for p := range pl.Procs {
		if len(pl.Procs[p].MAPs) != 1 {
			t.Fatalf("proc %d has %d MAPs at full capacity", p, len(pl.Procs[p].MAPs))
		}
		if pl.Procs[p].MAPs[0].Pos != 0 {
			t.Fatalf("first MAP not at position 0")
		}
	}
	if pl.AvgMAPs() != 1 {
		t.Fatalf("AvgMAPs = %v", pl.AvgMAPs())
	}
}

func TestReducedCapacityInsertsMAPs(t *testing.T) {
	s := figure2Schedule(t, sched.MPO)
	// MPO needs 7 units on P1; TOT is larger. Capacity 7 forces recycling.
	pl, err := NewPlan(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Executable {
		t.Fatalf("capacity == MinMem should be executable for this schedule (MinMem=%d)", s.MinMem())
	}
	if pl.TotalMAPs() <= 2 {
		t.Fatalf("expected extra MAPs beyond the initial ones, got %d", pl.TotalMAPs())
	}
	if pl.MaxPeak() > 7 {
		t.Fatalf("peak %d exceeds capacity", pl.MaxPeak())
	}
}

func TestNonExecutableDetection(t *testing.T) {
	s := figure2Schedule(t, sched.RCP)
	// Below permanent space: trivially non-executable.
	perm := s.PermSize()
	var maxPerm int64
	for _, v := range perm {
		if v > maxPerm {
			maxPerm = v
		}
	}
	pl, err := NewPlan(s, maxPerm-1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Executable {
		t.Fatalf("capacity below permanent space must be non-executable")
	}
	// Between perm and MinMem: RCP on the Figure-2 graph needs 9; at 8 the
	// RCP schedule must fail while the MPO schedule (MinMem 7) succeeds.
	pl8, err := NewPlan(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl8.Executable {
		t.Fatalf("RCP schedule should be non-executable at capacity 8 (MinMem=%d)", s.MinMem())
	}
	mpo := figure2Schedule(t, sched.MPO)
	plm, err := NewPlan(mpo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !plm.Executable {
		t.Fatalf("MPO schedule should be executable at capacity 8 (MinMem=%d)", mpo.MinMem())
	}
}

// replayPlan re-executes the plan bookkeeping and checks every invariant.
func replayPlan(t *testing.T, pl *Plan) {
	t.Helper()
	s := pl.Schedule
	perm := s.PermSize()
	lifetimes := s.VolatileLifetimes()
	for p := 0; p < s.P; p++ {
		pp := &pl.Procs[p]
		if !pp.Executable {
			continue
		}
		lt := make(map[graph.ObjID][2]int32, len(lifetimes[p]))
		for _, l := range lifetimes[p] {
			lt[l.Obj] = [2]int32{l.First, l.Last}
		}
		inUse := perm[p]
		allocatedAt := make(map[graph.ObjID]int32)
		freed := make(map[graph.ObjID]bool)
		if len(pp.MAPs) == 0 || pp.MAPs[0].Pos != 0 {
			t.Fatalf("proc %d: first MAP missing or not at 0", p)
		}
		prevEnd := int32(0)
		for mi, m := range pp.MAPs {
			if mi > 0 && m.Pos != prevEnd {
				t.Fatalf("proc %d: MAP %d at %d, expected %d", p, mi, m.Pos, prevEnd)
			}
			prevEnd = m.CoverEnd
			for _, o := range m.Frees {
				r, ok := lt[o]
				if !ok {
					t.Fatalf("proc %d frees non-volatile %d", p, o)
				}
				if r[1] >= m.Pos {
					t.Fatalf("proc %d frees %d at pos %d but last use is %d", p, o, m.Pos, r[1])
				}
				if _, ok := allocatedAt[o]; !ok || freed[o] {
					t.Fatalf("proc %d frees %d which is not live", p, o)
				}
				freed[o] = true
				inUse -= s.G.Objects[o].Size
			}
			for _, o := range m.Allocs {
				if _, dup := allocatedAt[o]; dup {
					t.Fatalf("proc %d allocates %d twice (name-based criterion violated)", p, o)
				}
				allocatedAt[o] = m.Pos
				inUse += s.G.Objects[o].Size
			}
			if inUse > pl.Capacity {
				t.Fatalf("proc %d exceeds capacity after MAP %d: %d > %d", p, mi, inUse, pl.Capacity)
			}
		}
		if prevEnd != int32(len(s.Order[p])) {
			t.Fatalf("proc %d: MAPs cover %d of %d tasks", p, prevEnd, len(s.Order[p]))
		}
		// Every volatile object must be allocated at or before its first use.
		for o, r := range lt {
			at, ok := allocatedAt[o]
			if !ok {
				t.Fatalf("proc %d: volatile %d never allocated", p, o)
			}
			if at > r[0] {
				t.Fatalf("proc %d: volatile %d allocated at %d, first use %d", p, o, at, r[0])
			}
		}
	}
}

func TestPlanInvariantsOnRandomDAGs(t *testing.T) {
	rng := util.NewRNG(21)
	for trial := 0; trial < 40; trial++ {
		p := 2 + rng.Intn(4)
		g := randomOwnerComputeDAG(rng, 20+rng.Intn(50), 6+rng.Intn(12), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		h := []sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3]
		s, err := sched.ScheduleWith(h, g, assign, p, sched.Unit(), 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		tot := s.TOT()
		minm := s.MinMem()
		for _, cap := range []int64{tot, (tot + minm) / 2, minm} {
			pl, err := NewPlan(s, cap)
			if err != nil {
				t.Fatal(err)
			}
			replayPlan(t, pl)
			if cap >= tot && pl.TotalMAPs() != p {
				t.Fatalf("trial %d: full capacity should give exactly one MAP per proc", trial)
			}
			if pl.Executable && pl.MaxPeak() > cap {
				t.Fatalf("trial %d: peak exceeds capacity", trial)
			}
			if cap == tot && !pl.Executable {
				t.Fatalf("trial %d: TOT capacity must be executable", trial)
			}
		}
	}
}

func TestMAPCountGrowsAsMemoryShrinks(t *testing.T) {
	s := figure2Schedule(t, sched.DTS)
	prev := -1
	for _, cap := range []int64{s.TOT(), 8, 7} {
		pl, err := NewPlan(s, cap)
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Executable {
			t.Fatalf("capacity %d unexpectedly non-executable (MinMem=%d)", cap, s.MinMem())
		}
		if prev >= 0 && pl.TotalMAPs() < prev {
			t.Fatalf("MAP count decreased as memory shrank")
		}
		prev = pl.TotalMAPs()
	}
}

func TestNotifyTargetsAreProducers(t *testing.T) {
	s := figure2Schedule(t, sched.RCP)
	pl, err := NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	for p := range pl.Procs {
		for _, m := range pl.Procs[p].MAPs {
			for i, dst := range m.Notify.Dst {
				if i > 0 && dst <= m.Notify.Dst[i-1] {
					t.Fatalf("proc %d notifies %d after %d", p, dst, m.Notify.Dst[i-1])
				}
				objs := m.Notify.Objects(i)
				if dst == graph.Proc(p) {
					t.Fatalf("proc %d notifies itself", p)
				}
				for _, o := range objs {
					// dst must own a producer task of o feeding proc p.
					found := false
					for _, task := range s.Order[p] {
						for _, e := range s.G.In(task) {
							if e.Kind == graph.DepTrue && e.Obj == o && s.Assign[e.From] == dst {
								found = true
							}
						}
					}
					if !found {
						t.Fatalf("notify %d->%d for object %d has no producer", p, dst, o)
					}
				}
			}
		}
	}
}

func TestOwnerComputeViolationRejected(t *testing.T) {
	b := graph.NewBuilder()
	x := b.Object("x", 1)
	b.Task("w", 1, nil, []graph.ObjID{x})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 1
	s := &sched.Schedule{
		G: g, P: 2,
		Assign: []graph.Proc{0},
		Order:  [][]graph.TaskID{{0}, {}},
	}
	if _, err := NewPlan(s, 100); err == nil {
		t.Fatalf("expected owner-compute violation error")
	}
}

// randomOwnerComputeDAG mirrors the sched test helper (duplicated to avoid
// exporting test-only code).
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
