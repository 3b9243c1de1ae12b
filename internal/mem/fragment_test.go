package mem

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/util"
)

// fragSchedule hand-builds a schedule whose MAP trace must fragment on P1.
// Volatile copies are allocated in first-use order A(10), B(10), C(10),
// E(16); A and C die before D(20) is needed while B and E stay alive, so
// the arena holds two separated 10-unit holes plus a 15-unit tail — no
// contiguous 20 even though the counting allocator sees 36 free units.
func fragSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	b := graph.NewBuilder()
	// Producer objects on P0 (read remotely by P1 -> volatiles there).
	oa := b.Object("A", 10)
	ob := b.Object("B", 10)
	oc := b.Object("C", 10)
	od := b.Object("D", 20)
	oe := b.Object("E", 16)
	// P1's permanent outputs.
	r1 := b.Object("r1", 1)
	r2 := b.Object("r2", 1)
	r3 := b.Object("r3", 1)
	r4 := b.Object("r4", 1)
	r5 := b.Object("r5", 1)

	b.Task("pA", 1, nil, []graph.ObjID{oa})
	b.Task("pB", 1, nil, []graph.ObjID{ob})
	b.Task("pC", 1, nil, []graph.ObjID{oc})
	b.Task("pD", 1, nil, []graph.ObjID{od})
	b.Task("pE", 1, nil, []graph.ObjID{oe})
	b.Task("useA", 1, []graph.ObjID{oa}, []graph.ObjID{r1})
	b.Task("useB1", 1, []graph.ObjID{ob}, []graph.ObjID{r3})
	b.Task("useC", 1, []graph.ObjID{oc}, []graph.ObjID{r2})
	b.Task("useE1", 1, []graph.ObjID{oe}, []graph.ObjID{r5})
	b.Task("useD", 1, []graph.ObjID{od}, []graph.ObjID{r4})
	b.Task("useFinal", 1, []graph.ObjID{ob, oe, r4}, []graph.ObjID{r4})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []graph.ObjID{oa, ob, oc, od, oe} {
		g.Objects[o].Owner = 0
	}
	for _, o := range []graph.ObjID{r1, r2, r3, r4, r5} {
		g.Objects[o].Owner = 1
	}
	s := &sched.Schedule{
		G: g, P: 2,
		Assign: []graph.Proc{0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1},
		Order: [][]graph.TaskID{
			{0, 1, 2, 3, 4},
			{5, 6, 7, 8, 9, 10}, // useA, useB1, useC, useE1, useD, useFinal
		},
	}
	if err := fillPositions(s); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// fillPositions mirrors Schedule.finalize for hand-built schedules.
func fillPositions(s *sched.Schedule) error {
	s.Pos = make([]int32, s.G.NumTasks())
	for p := range s.Order {
		for i, t := range s.Order[p] {
			s.Pos[t] = int32(i)
		}
	}
	return nil
}

func TestArenaReplayDetectsFragmentation(t *testing.T) {
	s := fragSchedule(t)
	// Capacity 66 covers P0's permanent producers (A+B+C+D+E). On P1
	// (perm 5), the first MAP greedily lays out A@5, B@15, C@25, E@35..51
	// (D does not fit: 51+20 > 66); the second MAP frees A and C — two
	// separated 10-unit holes plus the 15-unit tail — and the counting
	// allocator accepts D (31 in use, 35 free) while no contiguous 20
	// exists.
	capacity := int64(66)
	pl, err := NewPlan(s, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Executable {
		t.Fatalf("counting plan must be executable at %d (MinMem %d)", capacity, s.MinMem())
	}
	rep := ArenaReplay(pl)
	if rep.OK {
		t.Fatalf("arena replay should fragment")
	}
	if rep.FailProc != 1 {
		t.Fatalf("failure on proc %d, want 1", rep.FailProc)
	}
	// With headroom the replay succeeds.
	pl2, err := NewPlan(s, capacity+20)
	if err != nil {
		t.Fatal(err)
	}
	rep2 := ArenaReplay(pl2)
	if !rep2.OK {
		t.Fatalf("replay with headroom failed at obj %d", rep2.FailObj)
	}
	// Floors reports the premium.
	counting, address, err := Floors(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if address <= counting {
		t.Fatalf("no fragmentation premium: counting %d address %d", counting, address)
	}
}

func TestFloorsAgreeOnUniformSizes(t *testing.T) {
	// Uniform object sizes cannot fragment at MAP granularity: the floors
	// must coincide (the empirical finding of the extension experiment).
	g := graph.GenOwnerCompute(util.NewRNG(3131), 40, 12, 3)
	for i := range g.Objects {
		g.Objects[i].Size = 10
	}
	assign, err := sched.OwnerComputeAssign(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleMPO(g, assign, 3, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	counting, address, err := Floors(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if counting != address {
		t.Fatalf("uniform sizes fragmented: counting %d address %d", counting, address)
	}
}
