package proto

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/util"
)

func figure2Schedule(t *testing.T) *sched.Schedule {
	t.Helper()
	g := sched.Figure2DAG()
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSendsMatchNeeds(t *testing.T) {
	s := figure2Schedule(t)
	tb := Derive(s)
	// Every need must be satisfiable: for (obj, proc) the expected count
	// must be at least the largest threshold.
	for v := 0; v < s.G.NumTasks(); v++ {
		p := s.Assign[v]
		for _, need := range tb.NeedsOf(graph.TaskID(v)) {
			if tb.Expect(p, need.Obj) < need.MinArrivals {
				t.Fatalf("task %d needs %d arrivals of obj %d on proc %d but only %d are sent",
					v, need.MinArrivals, need.Obj, p, tb.Expect(p, need.Obj))
			}
		}
	}
	// Send sequence numbers per (obj, dst) must be 1..k in producer
	// schedule order.
	type key struct {
		obj graph.ObjID
		dst graph.Proc
	}
	seqs := map[key][]int32{}
	poss := map[key][]int32{}
	for u := 0; u < s.G.NumTasks(); u++ {
		for _, snd := range tb.SendsOf(graph.TaskID(u)) {
			k := key{snd.Obj, snd.Dst}
			seqs[k] = append(seqs[k], snd.Seq)
			poss[k] = append(poss[k], s.Pos[u])
		}
	}
	for k, ss := range seqs {
		// Sort by position; sequence numbers must then be 1..n ascending.
		ps := poss[k]
		for i := 0; i < len(ss); i++ {
			for j := i + 1; j < len(ss); j++ {
				if ps[j] < ps[i] {
					ps[i], ps[j] = ps[j], ps[i]
					ss[i], ss[j] = ss[j], ss[i]
				}
			}
		}
		for i, v := range ss {
			if v != int32(i+1) {
				t.Fatalf("key %v: seqs %v not 1..n in producer order", k, ss)
			}
		}
	}
}

func TestNoLocalSends(t *testing.T) {
	s := figure2Schedule(t)
	tb := Derive(s)
	for u := 0; u < s.G.NumTasks(); u++ {
		for _, snd := range tb.SendsOf(graph.TaskID(u)) {
			if snd.Dst == s.Assign[u] {
				t.Fatalf("task %d sends to its own processor", u)
			}
			if s.G.Objects[snd.Obj].Owner == snd.Dst {
				t.Fatalf("task %d sends obj %d to its owner (permanent there)", u, snd.Obj)
			}
		}
	}
}

func TestCtlMatchesCrossPrecEdges(t *testing.T) {
	// Build a graph with a retained cross-processor anti edge.
	b := graph.NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	b.Task("w1", 1, nil, []graph.ObjID{x})
	r := b.Task("r", 1, []graph.ObjID{x}, []graph.ObjID{y})
	w2 := b.Task("w2", 1, []graph.ObjID{x}, []graph.ObjID{x})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 0
	g.Objects[y].Owner = 1
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	tb := Derive(s)
	// r is on proc 1 (writes y), w2 on proc 0: the anti edge r->w2 crosses.
	if tb.CtlNeed[w2] != 1 {
		t.Fatalf("CtlNeed[w2] = %d, want 1", tb.CtlNeed[w2])
	}
	found := false
	for _, v := range tb.CtlSendsOf(r) {
		if v == w2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("r does not signal w2")
	}
}

func TestDedupAcrossVersions(t *testing.T) {
	// Owner proc 0 writes x twice (v1, v2); proc 1 reads after v1 and
	// after v2: two versions must be sent with thresholds 1 and 2.
	b := graph.NewBuilder()
	x := b.Object("x", 1)
	o1 := b.Object("o1", 1)
	o2 := b.Object("o2", 1)
	b.Task("w1", 1, nil, []graph.ObjID{x})
	r1 := b.Task("r1", 1, []graph.ObjID{x}, []graph.ObjID{o1})
	b.Task("w2", 1, []graph.ObjID{x, o1}, []graph.ObjID{x})
	r2 := b.Task("r2", 1, []graph.ObjID{x}, []graph.ObjID{o2})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 0
	g.Objects[o1].Owner = 1
	g.Objects[o2].Owner = 1
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	tb := Derive(s)
	if tb.Expect(1, x) != 2 {
		t.Fatalf("expect %d versions of x on proc 1, want 2", tb.Expect(1, x))
	}
	needOf := func(task graph.TaskID) int32 {
		for _, n := range tb.NeedsOf(task) {
			if n.Obj == x {
				return n.MinArrivals
			}
		}
		return -1
	}
	if needOf(r1) != 1 || needOf(r2) != 2 {
		t.Fatalf("thresholds r1=%d r2=%d, want 1 and 2", needOf(r1), needOf(r2))
	}
}

func TestRandomGraphsThresholdsConsistent(t *testing.T) {
	rng := util.NewRNG(2024)
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 25+rng.Intn(40), 6+rng.Intn(10), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleMPO(g, assign, p, sched.Unit())
		if err != nil {
			t.Fatal(err)
		}
		tb := Derive(s)
		for v := 0; v < g.NumTasks(); v++ {
			for _, need := range tb.NeedsOf(graph.TaskID(v)) {
				if tb.Expect(s.Assign[v], need.Obj) < need.MinArrivals {
					t.Fatalf("trial %d: unsatisfiable threshold", trial)
				}
			}
		}
	}
}

// TestLastReaderIsTheLastAccess: a channel's last reader runs on the
// channel's consumer, needs the channel's object at its newest version,
// and no task after it in that processor's order touches the object — so
// dropping the local copy's payload when it completes loses nothing.
func TestLastReaderIsTheLastAccess(t *testing.T) {
	rng := util.NewRNG(2025)
	for trial := 0; trial < 30; trial++ {
		p := 2 + rng.Intn(4)
		g := graph.GenOwnerCompute(rng, 25+rng.Intn(40), 6+rng.Intn(10), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleWith([]sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3],
			g, assign, p, sched.Unit(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		tb := Derive(s)
		for q := 0; q < p; q++ {
			for ch := tb.expOff[q]; ch < tb.expOff[q+1]; ch++ {
				o, last := tb.expect[ch].Obj, tb.lastRead[ch]
				if s.Assign[last] != graph.Proc(q) ||
					!slices.Contains(tb.NeedsOf(last), Need{Obj: o, MinArrivals: tb.expect[ch].MinArrivals}) {
					t.Fatalf("trial %d: channel %d (object %d to proc %d): last reader %d on proc %d needs %v",
						trial, ch, o, q, last, s.Assign[last], tb.NeedsOf(last))
				}
				for _, v := range s.Order[q][s.Pos[last]+1:] {
					if slices.Contains(g.Accesses(v), o) {
						t.Fatalf("trial %d: task %d touches object %d on proc %d after its last reader %d", trial, v, o, q, last)
					}
				}
			}
		}
	}
}
