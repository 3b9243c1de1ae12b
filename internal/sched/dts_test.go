package sched_test

import (
	"slices"
	"testing"

	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/sched/bakeoff"
)

// TestUnboundedMergeIsOneSlice: an unconstrained DTS+merge compile passes a
// volatile budget of 1<<62, under which MergeSlices makes one slice of any
// slices, so ScheduleDTS does not compute them. Its schedule must be the
// one the computed slices give, on the bake-off zoo and on both factor
// shapes of the benchmark (chol and lu, n=1496, 4 processors).
func TestUnboundedMergeIsOneSlice(t *testing.T) {
	type shape struct {
		name   string
		g      *graph.DAG
		assign []graph.Proc
		p      int
	}
	var shapes []shape
	zoo, err := bakeoff.DefaultStructures()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range zoo {
		shapes = append(shapes, shape{st.Name, st.G, st.Assign, st.Procs})
	}
	for _, f := range []struct {
		kind  string
		block int
	}{{"chol", 12}, {"lu", 16}} {
		a, err := factor.Matrix(f.kind, 1496, 1)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := factor.Build(f.kind, a, 4, f.block)
		if err != nil {
			t.Fatal(err)
		}
		assign, err := sched.OwnerComputeAssign(pb.Program.G, 4)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{"factor_" + f.kind, pb.Program.G, assign, 4})
	}
	const unbounded = int64(1) << 62
	for _, sh := range shapes {
		model := sched.T3D()
		got, err := sched.ScheduleDTS(sh.g, sh.assign, sh.p, model, true, unbounded)
		if err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		want, err := sched.ScheduleSliced(sh.g, sh.assign, sh.p, model, true, unbounded)
		if err != nil {
			t.Fatalf("%s: computed slices: %v", sh.name, err)
		}
		if want.NumSlices != 1 {
			t.Fatalf("%s: merging under an unbounded budget left %d slices", sh.name, want.NumSlices)
		}
		if got.NumSlices != want.NumSlices || !slices.Equal(got.Slices, want.Slices) {
			t.Fatalf("%s: slices %d %v, computed %d %v", sh.name, got.NumSlices, got.Slices, want.NumSlices, want.Slices)
		}
		if got.Makespan != want.Makespan || got.Heuristic != want.Heuristic {
			t.Fatalf("%s: makespan %v (%v), computed %v (%v)", sh.name, got.Makespan, got.Heuristic, want.Makespan, want.Heuristic)
		}
		for p := range want.Order {
			if !slices.Equal(got.Order[p], want.Order[p]) {
				t.Fatalf("%s: processor %d's order differs from the computed slices'", sh.name, p)
			}
		}
	}
}

// TestUnboundedMergeRefusesAccesslessTask: skipping the slices keeps the
// error computing them gives a task that touches no object.
func TestUnboundedMergeRefusesAccesslessTask(t *testing.T) {
	b := graph.NewBuilder()
	x := b.Object("x", 1)
	b.Task("w", 1, nil, []graph.ObjID{x})
	b.Task("idle", 1, nil, nil)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[x].Owner = 0
	assign := []graph.Proc{0, 0}
	_, err = sched.ScheduleDTS(g, assign, 1, sched.Unit(), true, 1<<62)
	_, want := sched.ScheduleSliced(g, assign, 1, sched.Unit(), true, 1<<62)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("got error %v, computing the slices gives %v", err, want)
	}
}
