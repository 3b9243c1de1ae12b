package graph

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/util"
)

// diamond builds  a -> b, a -> c, b -> d, c -> d  over two objects.
func diamond(t *testing.T) *DAG {
	t.Helper()
	b := NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	z := b.Object("z", 1)
	u := b.Object("u", 1)
	b.Task("a", 1, nil, []ObjID{x})
	b.Task("b", 1, []ObjID{x}, []ObjID{y})
	b.Task("c", 1, []ObjID{x}, []ObjID{z})
	b.Task("d", 1, []ObjID{y, z}, []ObjID{u})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderTrueDeps(t *testing.T) {
	g := diamond(t)
	if g.NumTasks() != 4 || g.NumObjects() != 4 {
		t.Fatalf("sizes wrong")
	}
	wantEdges := map[[2]TaskID]DepKind{
		{0, 1}: DepTrue, {0, 2}: DepTrue, {1, 3}: DepTrue, {2, 3}: DepTrue,
	}
	count := 0
	for ti := 0; ti < g.NumTasks(); ti++ {
		for _, e := range g.Out(TaskID(ti)) {
			k, ok := wantEdges[[2]TaskID{e.From, e.To}]
			if !ok || k != e.Kind {
				t.Fatalf("unexpected edge %+v", e)
			}
			count++
		}
	}
	if count != 4 {
		t.Fatalf("edge count %d, want 4", count)
	}
}

func TestBuilderAntiOutputSubsumption(t *testing.T) {
	// w1 writes x; r reads x; w2 rewrites x reading it (true dep chain
	// w1->r (true), r->w2 (anti), w1->w2 (true via RMW)).
	b := NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	b.Task("w1", 1, nil, []ObjID{x})
	b.Task("r", 1, []ObjID{x}, []ObjID{y})
	b.Task("w2", 1, []ObjID{x}, []ObjID{x})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The anti edge r->w2 is NOT subsumed (no true path r->w2), so it must
	// be retained as a precedence edge.
	found := false
	for _, e := range g.Out(1) {
		if e.To == 2 && e.Kind == DepPrec {
			found = true
		}
	}
	if !found {
		t.Fatalf("anti dependence r->w2 not preserved")
	}
}

func TestBuilderOutputSubsumed(t *testing.T) {
	// w1 writes x, r reads x writes y, w2 reads y writes x.
	// Output dep w1->w2 subsumed by true path w1->r->w2; anti r->w2 also
	// subsumed by true edge r->w2 (y flows). Result: only true edges.
	b := NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	b.Task("w1", 1, nil, []ObjID{x})
	b.Task("r", 1, []ObjID{x}, []ObjID{y})
	b.Task("w2", 1, []ObjID{y}, []ObjID{x})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < g.NumTasks(); ti++ {
		for _, e := range g.Out(TaskID(ti)) {
			if e.Kind != DepTrue {
				t.Fatalf("non-true edge survived: %+v", e)
			}
		}
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
}

func TestBuilderCommutativeGroup(t *testing.T) {
	// init writes acc; u1,u2,u3 commutatively accumulate into acc (each
	// reads a distinct input and acc); fin reads acc.
	b := NewBuilder()
	acc := b.Object("acc", 1)
	in1 := b.Object("in1", 1)
	in2 := b.Object("in2", 1)
	in3 := b.Object("in3", 1)
	b.Task("init", 1, nil, []ObjID{acc})
	b.Task("p1", 1, nil, []ObjID{in1})
	b.Task("p2", 1, nil, []ObjID{in2})
	b.Task("p3", 1, nil, []ObjID{in3})
	u1 := b.CommutativeTask("u1", 1, []ObjID{in1, acc}, []ObjID{acc})
	u2 := b.CommutativeTask("u2", 1, []ObjID{in2, acc}, []ObjID{acc})
	u3 := b.CommutativeTask("u3", 1, []ObjID{in3, acc}, []ObjID{acc})
	fin := b.Task("fin", 1, []ObjID{acc}, nil)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// u1,u2,u3 must be mutually unordered.
	for _, u := range []TaskID{u1, u2, u3} {
		for _, e := range g.Out(u) {
			if e.To == u1 || e.To == u2 || e.To == u3 {
				t.Fatalf("commutative members ordered: %+v", e)
			}
		}
	}
	// Each u must depend on init, and fin must depend on all three.
	hasEdge := func(from, to TaskID) bool {
		for _, e := range g.Out(from) {
			if e.To == to {
				return true
			}
		}
		return false
	}
	for _, u := range []TaskID{u1, u2, u3} {
		if !hasEdge(0, u) {
			t.Fatalf("u%d missing dependence on init", u)
		}
		if !hasEdge(u, fin) {
			t.Fatalf("fin missing dependence on u%d", u)
		}
	}
	if err := g.CheckDependenceComplete(); err != nil {
		t.Fatalf("commutative graph should be dependence complete: %v", err)
	}
}

func TestTopoSortValid(t *testing.T) {
	g := diamond(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[TaskID]int)
	for i, v := range order {
		pos[v] = i
	}
	for ti := 0; ti < g.NumTasks(); ti++ {
		for _, e := range g.Out(TaskID(ti)) {
			if pos[e.From] >= pos[e.To] {
				t.Fatalf("topo order violates edge %+v", e)
			}
		}
	}
}

func TestLevels(t *testing.T) {
	g := diamond(t)
	bl := g.BottomLevels(UnitComm)
	// d: 1; b,c: 1 + 1 + 1 = 3; a: 1 + 1 + 3 = 5.
	if bl[3] != 1 || bl[1] != 3 || bl[2] != 3 || bl[0] != 5 {
		t.Fatalf("bottom levels wrong: %v", bl)
	}
	tl := g.TopLevels(UnitComm)
	if tl[0] != 0 || tl[1] != 2 || tl[2] != 2 || tl[3] != 4 {
		t.Fatalf("top levels wrong: %v", tl)
	}
	if cp := g.CriticalPathLength(UnitComm); cp != 5 {
		t.Fatalf("critical path %v, want 5", cp)
	}
	if cp := g.CriticalPathLength(ZeroComm); cp != 3 {
		t.Fatalf("critical path %v, want 3", cp)
	}
	if g.Depth() != 3 {
		t.Fatalf("depth %d, want 3", g.Depth())
	}
	if g.TotalWork() != 4 {
		t.Fatalf("total work %v, want 4", g.TotalWork())
	}
	if g.SeqSpace() != 4 {
		t.Fatalf("seq space %v, want 4", g.SeqSpace())
	}
}

func TestDependenceComplete(t *testing.T) {
	g := diamond(t)
	if err := g.CheckDependenceComplete(); err != nil {
		t.Fatal(err)
	}
	// Build an incomplete graph by hand: two unordered writers of x.
	var acc Accesses
	var names Names
	for _, name := range []string{"w1", "w2"} {
		acc.Add(nil, []ObjID{0})
		names.Append(name)
	}
	bad := NewDAG(
		[]Task{{ID: 0}, {ID: 1}},
		[]Object{{ID: 0, Name: "x", Size: 1, Owner: None}},
		acc, names, nil,
	)
	if err := bad.CheckDependenceComplete(); err == nil {
		t.Fatalf("expected incompleteness error")
	}
}

// randomAdj builds a random directed graph for SCC testing.
func randomAdj(rng *util.RNG, n, e int) [][]int32 {
	adj := make([][]int32, n)
	for k := 0; k < e; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		adj[u] = append(adj[u], int32(v))
	}
	return adj
}

// bruteReach computes the reachability closure.
func bruteReach(adj [][]int32) [][]bool {
	n := len(adj)
	r := make([][]bool, n)
	for u := 0; u < n; u++ {
		r[u] = make([]bool, n)
		stack := []int32{int32(u)}
		r[u][u] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, y := range adj[x] {
				if !r[u][y] {
					r[u][y] = true
					stack = append(stack, y)
				}
			}
		}
	}
	return r
}

func TestSCCAgainstBruteForce(t *testing.T) {
	rng := util.NewRNG(123)
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		adj := randomAdj(rng, n, rng.Intn(3*n))
		comp, nc := SCC(adj)
		reach := bruteReach(adj)
		for u := 0; u < n; u++ {
			if comp[u] < 0 || int(comp[u]) >= nc {
				t.Fatalf("component index out of range")
			}
			for v := 0; v < n; v++ {
				same := reach[u][v] && reach[v][u]
				if same != (comp[u] == comp[v]) {
					t.Fatalf("SCC mismatch: u=%d v=%d same=%v comp=%v", u, v, same, comp)
				}
			}
		}
		// Edge direction property: u->v across components implies
		// comp[u] > comp[v] (reverse topological indices).
		for u := 0; u < n; u++ {
			for _, v := range adj[u] {
				if comp[u] != comp[v] && comp[u] <= comp[v] {
					t.Fatalf("condensation order violated: comp[%d]=%d comp[%d]=%d", u, comp[u], v, comp[v])
				}
			}
		}
	}
}

func TestSCCCycle(t *testing.T) {
	adj := [][]int32{{1}, {2}, {0}, {0}} // 0->1->2->0, 3->0
	comp, nc := SCC(adj)
	if nc != 2 {
		t.Fatalf("nComp = %d, want 2", nc)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] || comp[3] == comp[0] {
		t.Fatalf("components wrong: %v", comp)
	}
	if comp[3] <= comp[0] {
		t.Fatalf("3->0 must give comp[3] > comp[0]: %v", comp)
	}
}

func TestValidateCatchesCycle(t *testing.T) {
	var acc Accesses
	acc.Add(nil, nil)
	acc.Add(nil, nil)
	g := NewDAG(
		[]Task{{ID: 0}, {ID: 1}},
		nil, acc, Names{},
		[]Edge{{From: 0, To: 1, Kind: DepPrec}, {From: 1, To: 0, Kind: DepPrec}},
	)
	if err := g.Validate(); err == nil {
		t.Fatalf("cycle not detected")
	}
}

func TestAccessors(t *testing.T) {
	g := diamond(t)
	readers, writers := g.Accessors()
	if len(writers[0]) != 1 || writers[0][0] != 0 {
		t.Fatalf("writers of x wrong: %v", writers[0])
	}
	if len(readers[0]) != 2 {
		t.Fatalf("readers of x wrong: %v", readers[0])
	}
}

// TestTaskHasNoPointers: a task is a plain value — its name and access
// lists live in the DAG's tables — so a cached graph of any size gives the
// collector nothing to walk per task.
func TestTaskHasNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Task{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.String, reflect.Map, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer, reflect.Struct, reflect.Array:
			t.Errorf("Task.%s is a %s, which may carry a pointer", f.Name, f.Type)
		}
	}
	if size := typ.Size(); size != 16 {
		t.Errorf("Task is %d bytes, want 16", size)
	}
}

// TestTaskTables: the builder's tables hand every task its own lists and
// name, an unnamed task — before, between or after named ones — reads "",
// and Apply replaces the names wholesale.
func TestTaskTables(t *testing.T) {
	b := NewBuilder()
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	b.Task("", 1, nil, []ObjID{x})
	b.Task("mid", 1, []ObjID{x}, []ObjID{y})
	b.Task("", 1, []ObjID{x, y}, nil)
	b.Task("", 1, []ObjID{y}, []ObjID{y})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name          string
		reads, writes []ObjID
	}{
		{"", nil, []ObjID{x}},
		{"mid", []ObjID{x}, []ObjID{y}},
		{"", []ObjID{x, y}, nil},
		{"", []ObjID{y}, []ObjID{y}},
	}
	for i, w := range want {
		id := TaskID(i)
		if g.TaskName(id) != w.name || !slices.Equal(g.Reads(id), w.reads) || !slices.Equal(g.Writes(id), w.writes) ||
			!slices.Equal(g.Accesses(id), append(slices.Clip(w.reads), w.writes...)) {
			t.Errorf("task %d: name %q reads %v writes %v accesses %v, want %q %v %v",
				i, g.TaskName(id), g.Reads(id), g.Writes(id), g.Accesses(id), w.name, w.reads, w.writes)
		}
	}
	if n := g.NumAccesses(); n != 7 {
		t.Errorf("%d accesses, want 7", n)
	}
	var names Names
	for i := range g.Tasks {
		names.Add("op", int32(i), 7)
	}
	names.Apply(g)
	if got := g.TaskName(3); got != "op(3,7)" {
		t.Errorf("applied name %q, want op(3,7)", got)
	}
}
