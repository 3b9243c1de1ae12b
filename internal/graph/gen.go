package graph

import (
	"fmt"

	"repro/internal/util"
)

// This file is the scenario zoo: deterministic seeded generators for the
// irregular structures the scheduler bake-off (internal/sched/bakeoff) and
// the property suites measure the heuristics on. Every generator emits its
// structure through the Builder API, so the dependence edges are derived by
// the same Section-2 transformation as real workloads, and every emitted
// graph has passed Validate by construction. All randomness flows from
// util.RNG so a (seed, size) pair names one graph forever.

// Scenario is one named generator of the zoo.
type Scenario struct {
	// Name identifies the structure family (stable across releases: golden
	// tables key on it).
	Name string
	// PresetOwners reports that the generator assigns object owners itself
	// (the memory-tree gadget needs a specific ownership to be meaningful);
	// otherwise the consumer picks an ownership policy.
	PresetOwners bool
	// Build materializes the structure for a seed and an approximate task
	// count. Implementations clamp size to a sane range rather than fail.
	Build func(seed uint64, size int) (*DAG, error)
}

// Scenarios returns the zoo in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "elimtree", Build: GenEliminationTree},
		{Name: "powerlaw", Build: GenPowerLawDAG},
		{Name: "highfill", Build: GenHighFill},
		{Name: "memtree", PresetOwners: true, Build: GenMemoryTree},
	}
}

func clampSize(size, lo, hi int) int {
	if size < lo {
		return lo
	}
	if size > hi {
		return hi
	}
	return size
}

// GenEliminationTree generates a deep elimination-tree factorization: task
// i factors column i after reading its children's columns, and additionally
// reads a few deeper descendant columns (the fill-in of sparse Cholesky,
// which makes lifetimes long and irregular). Parents are biased close to
// their children, so trees are deep rather than bushy.
func GenEliminationTree(seed uint64, size int) (*DAG, error) {
	n := clampSize(size, 2, 4096)
	rng := util.NewRNG(seed)
	parent := make([]int, n)
	parent[n-1] = -1
	for i := 0; i < n-1; i++ {
		span := n - 1 - i
		if span > 4 {
			span = 4
		}
		parent[i] = i + 1 + rng.Intn(span)
	}
	kids := make([][]int, n)
	for i := 0; i < n-1; i++ {
		kids[parent[i]] = append(kids[parent[i]], i)
	}
	b := NewBuilder()
	cols := make([]ObjID, n)
	for i := 0; i < n; i++ {
		cols[i] = b.Object(fmt.Sprintf("L%d", i), int64(1+rng.Intn(4)))
	}
	for i := 0; i < n; i++ {
		reads := make([]ObjID, 0, len(kids[i])+2)
		for _, c := range kids[i] {
			reads = append(reads, cols[c])
		}
		// Fill-in: read up to two deeper descendant columns.
		for f := 0; f < 2; f++ {
			if len(kids[i]) == 0 || rng.Intn(3) != 0 {
				continue
			}
			d := kids[i][rng.Intn(len(kids[i]))]
			if len(kids[d]) > 0 {
				reads = append(reads, cols[kids[d][rng.Intn(len(kids[d]))]])
			}
		}
		b.Task(fmt.Sprintf("F%d", i), 1+rng.Float64()*3, reads, []ObjID{cols[i]})
	}
	return b.Build()
}

// GenPowerLawDAG generates an irregular-fanout DAG with preferential
// attachment: each task writes a fresh object and reads earlier objects
// chosen proportionally to their current reader count, so a few hub
// objects acquire power-law fanout and very long volatile lifetimes.
func GenPowerLawDAG(seed uint64, size int) (*DAG, error) {
	n := clampSize(size, 2, 4096)
	rng := util.NewRNG(seed)
	b := NewBuilder()
	objs := make([]ObjID, n)
	weight := make([]int, n) // 1 + reader count, drives attachment
	var totalWeight int
	for i := 0; i < n; i++ {
		objs[i] = b.Object(fmt.Sprintf("d%d", i), int64(1)<<rng.Intn(4))
		weight[i] = 1
	}
	for i := 0; i < n; i++ {
		var reads []ObjID
		if i > 0 {
			k := 1 + rng.Intn(3)
			seen := make(map[int]bool, k)
			for j := 0; j < k; j++ {
				// Weighted draw over objs[0:i].
				r := rng.Intn(totalWeight)
				pick := 0
				for acc := weight[0]; acc <= r; acc += weight[pick] {
					pick++
				}
				if seen[pick] {
					continue
				}
				seen[pick] = true
				reads = append(reads, objs[pick])
				weight[pick]++
				totalWeight++
			}
		}
		b.Task(fmt.Sprintf("t%d", i), 1+rng.Float64()*2, reads, []ObjID{objs[i]})
		totalWeight += weight[i]
	}
	return b.Build()
}

// GenHighFill generates a pathological high-fill structure: a band of
// producers followed by a dense wave of combiners that each read a large
// random subset of the produced blocks, and one reducer over every combiner
// output. TOT explodes relative to MIN_MEM, which is exactly the regime the
// paper's slice merging and memory budgets are for.
func GenHighFill(seed uint64, size int) (*DAG, error) {
	n := clampSize(size, 4, 4096)
	rng := util.NewRNG(seed)
	m := n / 3
	if m < 2 {
		m = 2
	}
	b := NewBuilder()
	blocks := make([]ObjID, m)
	for i := 0; i < m; i++ {
		blocks[i] = b.Object(fmt.Sprintf("b%d", i), int64(1+rng.Intn(3)))
		b.Task(fmt.Sprintf("p%d", i), 1+rng.Float64(), nil, []ObjID{blocks[i]})
	}
	nc := n - m - 1
	if nc < 1 {
		nc = 1
	}
	outs := make([]ObjID, nc)
	for j := 0; j < nc; j++ {
		span := 2 + rng.Intn(m-1)
		start := rng.Intn(m)
		reads := make([]ObjID, 0, span)
		for k := 0; k < span; k++ {
			reads = append(reads, blocks[(start+k)%m])
		}
		outs[j] = b.Object(fmt.Sprintf("w%d", j), int64(1+rng.Intn(2)))
		b.Task(fmt.Sprintf("c%d", j), 1+rng.Float64()*2, reads, []ObjID{outs[j]})
	}
	sum := b.Object("sum", 1)
	b.Task("reduce", 2, outs, []ObjID{sum})
	return b.Build()
}

// GenMemoryTree generates the Liu-tree gadget: a random in-tree of tasks
// where task i writes a small chain object l_i read only by its parent (the
// tree edges), and additionally reads a per-node file object f_i that its
// parent reads again. The files are external inputs — owned by nobody
// (graph.None), like Liu's pebble-game node weights materialized on first
// read — so on the computing processor each f_i is volatile precisely from
// node i to parent(i) and the repository's MIN_MEM of a traversal equals
// the (constant) link residency plus the peak of Liu's pebble game with
// node weights size(f_i). Owners are preset (PresetOwners); schedule it
// with OwnerComputeAssign (all tasks land on processor 0).
func GenMemoryTree(seed uint64, size int) (*DAG, error) {
	n := clampSize(size, 2, 2048)
	rng := util.NewRNG(seed)
	parent := make([]int, n)
	parent[n-1] = -1
	for i := 0; i < n-1; i++ {
		span := n - 1 - i
		if span > 3 {
			span = 3
		}
		parent[i] = i + 1 + rng.Intn(span)
	}
	kids := make([][]int, n)
	for i := 0; i < n-1; i++ {
		kids[parent[i]] = append(kids[parent[i]], i)
	}
	b := NewBuilder()
	link := make([]ObjID, n)
	file := make([]ObjID, n)
	for i := 0; i < n; i++ {
		link[i] = b.Object(fmt.Sprintf("l%d", i), 1)
		file[i] = b.Object(fmt.Sprintf("f%d", i), int64(1+rng.Intn(8)))
	}
	for i := 0; i < n; i++ {
		reads := []ObjID{file[i]}
		for _, c := range kids[i] {
			reads = append(reads, link[c], file[c])
		}
		b.Task(fmt.Sprintf("T%d", i), 1, reads, []ObjID{link[i]})
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		g.Objects[link[i]].Owner = 0
		// file[i] stays graph.None: an unowned external input, volatile on
		// every reader, permanent nowhere.
	}
	return g, nil
}

// GenOwnerCompute generates the random owner-compute program the
// equivalence and property suites run: nObjs objects of 1–4 units, then
// nTasks tasks that each write one random object after reading up to two
// objects written earlier, with owners assigned cyclically over p
// processors (object i on processor i mod p). The draws from rng are part
// of the contract: a suite's seed names its graphs.
func GenOwnerCompute(rng *util.RNG, nTasks, nObjs, p int) *DAG {
	b := NewBuilder()
	objs := make([]ObjID, nObjs)
	for i := range objs {
		objs[i] = b.Object(fmt.Sprintf("o%d", i), int64(1+rng.Intn(4)))
	}
	var written []ObjID
	for t := 0; t < nTasks; t++ {
		var reads []ObjID
		// rng.Intn(3) is drawn again on every iteration.
		for r := 0; r < rng.Intn(3); r++ {
			if len(written) > 0 {
				reads = append(reads, written[rng.Intn(len(written))])
			}
		}
		w := objs[rng.Intn(nObjs)]
		b.Task(fmt.Sprintf("t%d", t), float64(1+rng.Intn(5)), reads, []ObjID{w})
		written = append(written, w)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	for i := range g.Objects {
		g.Objects[i].Owner = Proc(i % p)
	}
	return g
}
