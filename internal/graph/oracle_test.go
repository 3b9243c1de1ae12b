package graph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/util"
)

// oracleBuild is Builder.Build as it stood before the builder gave up its
// hash maps (commit 7ba6f29), kept as the reference the map-free version is
// compared with: dependences deduplicated through a map keyed by (from, to),
// a write-set map per task, true edges inserted first, then every anti and
// output dependence that a forward search over the true edges, pruned by a
// topological index, does not find a path for. It returns the adjacency
// lists in insertion order and how often a weaker dependence on a pair was
// upgraded to a true one.
func oracleBuild(t *testing.T, g *DAG) (out, in [][]Edge, upgrades int) {
	t.Helper()
	type objState struct {
		lastWriters    []TaskID
		commOpen       bool
		readersSince   []TaskID
		groupPreds     []TaskID
		groupAntiPreds []TaskID
	}
	st := make([]objState, g.NumObjects())
	var deps []Edge
	seen := make(map[[2]TaskID]DepKind)
	add := func(from, to TaskID, obj ObjID, kind DepKind) {
		if from == to {
			return
		}
		key := [2]TaskID{from, to}
		if prev, ok := seen[key]; ok {
			if prev == DepTrue || kind != DepTrue {
				return
			}
			upgrades++
		}
		seen[key] = kind
		deps = append(deps, Edge{from, to, obj, kind})
	}
	for ti := range g.Tasks {
		t := &g.Tasks[ti]
		writes := make(map[ObjID]bool, len(g.Writes(t.ID)))
		for _, o := range g.Writes(t.ID) {
			writes[o] = true
		}
		for _, o := range g.Reads(t.ID) {
			if writes[o] && t.Commutative {
				continue
			}
			s := &st[o]
			for _, w := range s.lastWriters {
				add(w, t.ID, o, DepTrue)
			}
			if !writes[o] {
				s.readersSince = append(s.readersSince, t.ID)
				s.commOpen = false
			}
		}
		for _, o := range g.Writes(t.ID) {
			s := &st[o]
			if t.Commutative && s.commOpen {
				for _, w := range s.groupPreds {
					add(w, t.ID, o, DepTrue)
				}
				for _, r := range s.groupAntiPreds {
					add(r, t.ID, o, DepAnti)
				}
				s.lastWriters = append(s.lastWriters, t.ID)
				continue
			}
			for _, r := range s.readersSince {
				add(r, t.ID, o, DepAnti)
			}
			for _, w := range s.lastWriters {
				kind := DepOutput
				if slices.Contains(g.Reads(t.ID), o) {
					kind = DepTrue
				}
				add(w, t.ID, o, kind)
			}
			if t.Commutative {
				s.groupPreds = append(s.groupPreds[:0], s.lastWriters...)
				s.groupAntiPreds = append(s.groupAntiPreds[:0], s.readersSince...)
			}
			s.readersSince = s.readersSince[:0]
			s.lastWriters = append(s.lastWriters[:0], t.ID)
			s.commOpen = t.Commutative
		}
	}

	n := g.NumTasks()
	out, in = make([][]Edge, n), make([][]Edge, n)
	addEdge := func(e Edge) {
		out[e.From] = append(out[e.From], e)
		in[e.To] = append(in[e.To], e)
	}
	for _, d := range deps {
		if d.Kind == DepTrue {
			addEdge(d)
		}
	}
	// Kahn's order over the true edges, FIFO, as DAG.TopoSort computes it.
	indeg := make([]int, n)
	var order []TaskID
	for v := 0; v < n; v++ {
		if indeg[v] = len(in[v]); indeg[v] == 0 {
			order = append(order, TaskID(v))
		}
	}
	for i := 0; i < len(order); i++ {
		for _, e := range out[order[i]] {
			if indeg[e.To]--; indeg[e.To] == 0 {
				order = append(order, e.To)
			}
		}
	}
	if len(order) != n {
		t.Fatalf("oracle: true-dependence subgraph is cyclic")
	}
	topoIdx := make([]int, n)
	for i, v := range order {
		topoIdx[v] = i
	}
	mark := make([]int, n)
	stamp := 0
	hasPath := func(from, to TaskID) bool {
		if topoIdx[from] >= topoIdx[to] {
			return from == to
		}
		stamp++
		stack := []TaskID{from}
		mark[from] = stamp
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range out[v] {
				if e.Kind != DepTrue {
					continue
				}
				if e.To == to {
					return true
				}
				if topoIdx[e.To] >= topoIdx[to] || mark[e.To] == stamp {
					continue
				}
				mark[e.To] = stamp
				stack = append(stack, e.To)
			}
		}
		return false
	}
	for _, d := range deps {
		if d.Kind != DepTrue && !hasPath(d.From, d.To) {
			d.Kind = DepPrec
			addEdge(d)
		}
	}
	return out, in, upgrades
}

// sameAsOracle compares the graph Build returned with the oracle's run over
// the same task stream: every adjacency list, edge for edge, in order.
func sameAsOracle(t *testing.T, name string, g *DAG) (upgrades int) {
	t.Helper()
	out, in, upgrades := oracleBuild(t, g)
	edges := 0
	for v := range g.Tasks {
		if !slices.Equal(g.Out(TaskID(v)), out[v]) {
			t.Fatalf("%s: out-edges of task %d:\n got %v\nwant %v", name, v, g.Out(TaskID(v)), out[v])
		}
		if !slices.Equal(g.In(TaskID(v)), in[v]) {
			t.Fatalf("%s: in-edges of task %d:\n got %v\nwant %v", name, v, g.In(TaskID(v)), in[v])
		}
		edges += len(out[v])
	}
	if g.NumEdges() != edges {
		t.Fatalf("%s: NumEdges %d, oracle inserted %d", name, g.NumEdges(), edges)
	}
	return upgrades
}

// TestBuildMatchesMapOracle: the stamp-per-source deduplication, the write
// list scan and the backward subsumption search give the edges the map
// version gave, in the same order — over the scenario zoo, over the two
// streams in which one (from, to) pair is first an output or an anti
// dependence and then a true one, and over random streams dense enough in
// commutative read-modify-writes to do that by themselves.
func TestBuildMatchesMapOracle(t *testing.T) {
	for _, sc := range Scenarios() {
		for seed := uint64(1); seed <= 6; seed++ {
			for _, size := range []int{2, 17, 120, 600} {
				g, err := sc.Build(seed, size)
				if err != nil {
					t.Fatal(err)
				}
				sameAsOracle(t, fmt.Sprintf("%s/seed=%d/size=%d", sc.Name, seed, size), g)
			}
		}
	}

	// w writes A and B; the commutative t overwrites A (output: w → t) and
	// then read-modify-writes B (true: w → t). The pair is upgraded and no
	// precedence edge survives beside the true one.
	for _, first := range []string{"output", "anti"} {
		b := NewBuilder()
		A, B := b.Object("A", 1), b.Object("B", 1)
		if first == "output" {
			b.Task("w", 1, nil, []ObjID{A, B})
		} else {
			b.Task("r", 1, []ObjID{A}, []ObjID{B})
		}
		b.CommutativeTask("t", 1, []ObjID{B}, []ObjID{A, B})
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if up := sameAsOracle(t, first+" then true", g); up != 1 {
			t.Fatalf("%s then true: the stream upgraded %d pairs, want 1", first, up)
		}
		if want := []Edge{{From: 0, To: 1, Obj: B, Kind: DepTrue}}; !slices.Equal(g.Out(0), want) {
			t.Fatalf("%s then true: edges %v, want %v", first, g.Out(0), want)
		}
	}

	upgrades := 0
	for seed := uint64(1); seed <= 300; seed++ {
		rng := util.NewRNG(seed)
		nObj := 1 + rng.Intn(6)
		b := NewBuilder()
		objs := make([]ObjID, nObj)
		for i := range objs {
			objs[i] = b.Object(fmt.Sprintf("o%d", i), 1)
		}
		pick := func(max int) []ObjID {
			var l []ObjID
			for k := rng.Intn(max + 1); k > 0; k-- {
				l = append(l, objs[rng.Intn(nObj)]) // repeats allowed
			}
			return l
		}
		for i, n := 0, 2+rng.Intn(40); i < n; i++ {
			reads, writes := pick(3), pick(3)
			if len(reads)+len(writes) == 0 {
				writes = objs[:1]
			}
			if rng.Intn(2) == 0 {
				b.CommutativeTask(fmt.Sprintf("c%d", i), 1, reads, writes)
			} else {
				b.Task(fmt.Sprintf("t%d", i), 1, reads, writes)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		upgrades += sameAsOracle(t, fmt.Sprintf("random/seed=%d", seed), g)
	}
	if upgrades == 0 {
		t.Fatal("no random stream upgraded a pair; the generator no longer reaches that branch")
	}
}
