package graph

import (
	"fmt"
	"testing"
)

// structureSig renders a DAG's full structure (objects with sizes and
// owners, tasks with costs and access lists, derived edges) into one string
// for determinism comparisons.
func structureSig(g *DAG) string {
	s := fmt.Sprintf("n=%d m=%d\n", g.NumTasks(), g.NumObjects())
	for i := range g.Objects {
		o := &g.Objects[i]
		s += fmt.Sprintf("o%d %s sz=%d own=%d\n", i, o.Name, o.Size, o.Owner)
	}
	for i := range g.Tasks {
		t := TaskID(i)
		s += fmt.Sprintf("t%d %s c=%g r=%v w=%v\n", i, g.TaskName(t), g.Tasks[i].Cost, g.Reads(t), g.Writes(t))
	}
	for t := 0; t < g.NumTasks(); t++ {
		for _, e := range g.Out(TaskID(t)) {
			s += fmt.Sprintf("e %d->%d k=%d o=%d\n", e.From, e.To, e.Kind, e.Obj)
		}
	}
	return s
}

// TestScenariosDeterministic: a (seed, size) pair must name one graph
// forever — the golden bake-off table and fuzz corpus both key on it.
func TestScenariosDeterministic(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, seed := range []uint64{0, 1, 42, 1 << 40} {
			a, err := sc.Build(seed, 37)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			b, err := sc.Build(seed, 37)
			if err != nil {
				t.Fatalf("%s: %v", sc.Name, err)
			}
			if structureSig(a) != structureSig(b) {
				t.Fatalf("%s(seed=%d) is not deterministic", sc.Name, seed)
			}
			if err := a.Validate(); err != nil {
				t.Fatalf("%s(seed=%d): emitted invalid graph: %v", sc.Name, seed, err)
			}
		}
		// Different seeds should generally differ (not a hard guarantee for
		// tiny sizes, so use a mid-size instance).
		a, _ := sc.Build(1, 37)
		b, _ := sc.Build(2, 37)
		if structureSig(a) == structureSig(b) {
			t.Errorf("%s: seeds 1 and 2 emitted identical 37-task graphs", sc.Name)
		}
	}
}

// TestScenariosClampSizes: degenerate and huge size requests clamp rather
// than fail, and the emitted task count tracks the request in between.
func TestScenariosClampSizes(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, size := range []int{-5, 0, 1, 2, 60} {
			g, err := sc.Build(3, size)
			if err != nil {
				t.Fatalf("%s(size=%d): %v", sc.Name, size, err)
			}
			if g.NumTasks() < 1 {
				t.Fatalf("%s(size=%d): empty graph", sc.Name, size)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s(size=%d): %v", sc.Name, size, err)
			}
		}
		small, _ := sc.Build(3, 10)
		large, _ := sc.Build(3, 100)
		if large.NumTasks() <= small.NumTasks() {
			t.Errorf("%s: size 100 gave %d tasks, size 10 gave %d", sc.Name, large.NumTasks(), small.NumTasks())
		}
	}
}

// TestMemoryTreeIsInForest pins the property the Liu scheduler depends on:
// every task in the memory-tree gadget has at most one distinct successor
// over all edge kinds, links are owned, files are not.
func TestMemoryTreeIsInForest(t *testing.T) {
	for _, seed := range []uint64{1, 7, 19} {
		g, err := GenMemoryTree(seed, 24)
		if err != nil {
			t.Fatal(err)
		}
		roots := 0
		for i := 0; i < g.NumTasks(); i++ {
			succ := map[TaskID]bool{}
			for _, e := range g.Out(TaskID(i)) {
				succ[e.To] = true
			}
			if len(succ) > 1 {
				t.Fatalf("seed %d: task %d has %d distinct successors; not an in-forest", seed, i, len(succ))
			}
			if len(succ) == 0 {
				roots++
			}
		}
		if roots != 1 {
			t.Fatalf("seed %d: %d roots, want a single tree", seed, roots)
		}
		owned, unowned := 0, 0
		for i := range g.Objects {
			if g.Objects[i].Owner == None {
				unowned++
			} else {
				owned++
			}
		}
		if owned != g.NumTasks() || unowned != g.NumTasks() {
			t.Fatalf("seed %d: %d owned links / %d unowned files for %d tasks", seed, owned, unowned, g.NumTasks())
		}
	}
}

// TestScenarioNamesStable pins the zoo's names and order: golden tables and
// fuzz corpus entries index into this slice.
func TestScenarioNamesStable(t *testing.T) {
	want := []string{"elimtree", "powerlaw", "highfill", "memtree"}
	zoo := Scenarios()
	if len(zoo) != len(want) {
		t.Fatalf("zoo has %d scenarios, want %d", len(zoo), len(want))
	}
	for i, sc := range zoo {
		if sc.Name != want[i] {
			t.Fatalf("scenario %d is %q, want %q", i, sc.Name, want[i])
		}
	}
	if !zoo[3].PresetOwners {
		t.Fatal("memtree must preset its owners")
	}
	for _, sc := range zoo[:3] {
		if sc.PresetOwners {
			t.Fatalf("%s should not preset owners", sc.Name)
		}
	}
}
