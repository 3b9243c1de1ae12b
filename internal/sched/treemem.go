package sched

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// This file implements the TreeMem strategy: a memory-first scheduler built
// on the optimal sequential tree-traversal theory of Liu as revisited by
// Marchal–Sinnen–Vivien (arXiv 1210.2580) and Eyraud-Dubois et al. (arXiv
// 1410.0329). The scheduler first computes one global activation order that
// minimizes (exactly, on tree-shaped graphs; greedily otherwise) the
// footprint of a sequential sweep, then lifts it to p processors as a
// rank-strict list schedule: each processor executes its tasks exactly in
// activation order. Because every per-processor order is then a projection
// of the global order, the realized per-processor peak is bounded by the
// sequential sweep's footprint — the 2014-style "parallel execution of a
// sequential traversal" guarantee, checked end to end in the test suite.

// hvSeg is one canonical hill/valley segment of a subtree traversal
// profile: executing the segment's tasks raises the alive volatile total to
// at most hill (absolute, relative to the subtree entry level 0) and leaves
// it at base. Canonical sequences have strictly decreasing hills and
// strictly increasing bases, which makes the decreasing (hill−base) merge
// of child sequences optimal (Liu's theorem).
type hvSeg struct {
	hill, base int64
	tasks      []graph.TaskID
}

// treeParents reports whether every task has at most one distinct successor
// over all dependence kinds — i.e. the whole DAG is an in-forest — and
// returns the parent array (graph.None-typed -1 for roots) if so.
func treeParents(g *graph.DAG) ([]graph.TaskID, bool) {
	n := g.NumTasks()
	parent := make([]graph.TaskID, n)
	for t := 0; t < n; t++ {
		parent[t] = -1
		for _, e := range g.Out(graph.TaskID(t)) {
			if parent[t] == -1 {
				parent[t] = e.To
			} else if parent[t] != e.To {
				return nil, false
			}
		}
	}
	return parent, true
}

// volKey identifies a volatile copy: object o held on processor q ≠ owner.
type volKey struct {
	q graph.Proc
	o graph.ObjID
}

// volatileTouchers groups, for every volatile copy, the tasks that touch it
// (each task listed once), in task-ID order.
func volatileTouchers(g *graph.DAG, assign []graph.Proc) map[volKey][]graph.TaskID {
	touch := make(map[volKey][]graph.TaskID)
	for t := 0; t < g.NumTasks(); t++ {
		q := assign[t]
		acc := g.Accesses(graph.TaskID(t))
		seen := make(map[graph.ObjID]bool, len(acc))
		for _, o := range acc {
			if g.Objects[o].Owner == q || seen[o] {
				continue
			}
			seen[o] = true
			k := volKey{q, o}
			touch[k] = append(touch[k], graph.TaskID(t))
		}
	}
	return touch
}

// liuContrib computes, for an in-forest DAG whose volatile toucher sets are
// ancestor chains, the per-task allocation and release totals: alloc[t] is
// the size of volatile copies whose first use (in every valid traversal) is
// t, free[t] those whose last use is t. With chains these positions are
// order-independent — the deepest toucher is a descendant of the others and
// therefore always runs first; the shallowest always runs last — which is
// exactly what makes the hill/valley algebra applicable. Returns ok=false
// when some toucher set is not a chain.
func liuContrib(g *graph.DAG, assign []graph.Proc, parent []graph.TaskID) (alloc, free []int64, ok bool) {
	n := g.NumTasks()
	depth := make([]int32, n)
	for t := 0; t < n; t++ {
		depth[t] = -1
	}
	var depthOf func(t graph.TaskID) int32
	depthOf = func(t graph.TaskID) int32 {
		// Iterative: walk up to a known depth, then fill back down.
		var chain []graph.TaskID
		u := t
		for depth[u] == -1 {
			chain = append(chain, u)
			if parent[u] == -1 {
				depth[u] = 0
				break
			}
			u = parent[u]
		}
		for i := len(chain) - 1; i >= 0; i-- {
			c := chain[i]
			if depth[c] != -1 {
				continue
			}
			depth[c] = depth[parent[c]] + 1
		}
		return depth[t]
	}
	for t := 0; t < n; t++ {
		depthOf(graph.TaskID(t))
	}
	isAncestor := func(anc, t graph.TaskID) bool {
		for depth[t] > depth[anc] {
			t = parent[t]
		}
		return t == anc
	}

	alloc = make([]int64, n)
	free = make([]int64, n)
	touch := volatileTouchers(g, assign)
	keys := make([]volKey, 0, len(touch))
	for k := range touch { //det:ok keys collected then sorted
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].q != keys[j].q {
			return keys[i].q < keys[j].q
		}
		return keys[i].o < keys[j].o
	})
	for _, k := range keys {
		ts := touch[k]
		sort.Slice(ts, func(i, j int) bool { return depth[ts[i]] > depth[ts[j]] })
		for i := 1; i < len(ts); i++ {
			if depth[ts[i]] == depth[ts[i-1]] || !isAncestor(ts[i], ts[i-1]) {
				return nil, nil, false
			}
		}
		sz := g.Objects[k.o].Size
		alloc[ts[0]] += sz        // deepest toucher allocates
		free[ts[len(ts)-1]] += sz // shallowest toucher releases
	}
	return alloc, free, true
}

// composeLiu merges the canonical child traversal sequences of a node in
// decreasing (hill − base) order — optimal by Liu's theorem because each
// canonical sequence is itself sorted that way — and appends the node's own
// segment, re-canonicalizing as it goes. self == -1 composes root
// sequences without appending a node.
func composeLiu(children [][]hvSeg, selfAlloc, selfFree int64, self graph.TaskID) []hvSeg {
	type rel struct {
		h, d  int64
		tasks []graph.TaskID
	}
	var rels []rel
	for _, segs := range children {
		prev := int64(0)
		for _, sg := range segs {
			rels = append(rels, rel{h: sg.hill - prev, d: sg.base - prev, tasks: sg.tasks})
			prev = sg.base
		}
	}
	// Stable sort keeps per-child segment order on ties (within a child the
	// key is strictly decreasing, so only cross-child ties exist).
	sort.SliceStable(rels, func(i, j int) bool {
		return rels[i].h-rels[i].d > rels[j].h-rels[j].d
	})

	var out []hvSeg
	base := int64(0)
	push := func(h, d int64, tasks []graph.TaskID) {
		out = append(out, hvSeg{hill: base + h, base: base + d, tasks: tasks})
		base += d
		for len(out) >= 2 {
			a, b := out[len(out)-2], out[len(out)-1]
			if b.hill < a.hill && b.base > a.base {
				break // canonical: hills decrease, bases increase
			}
			hill := a.hill
			if b.hill > hill {
				hill = b.hill
			}
			merged := hvSeg{hill: hill, base: b.base}
			merged.tasks = append(append([]graph.TaskID(nil), a.tasks...), b.tasks...)
			out = out[:len(out)-2]
			out = append(out, merged)
		}
	}
	for _, r := range rels {
		push(r.h, r.d, r.tasks)
	}
	if self >= 0 {
		push(selfAlloc, selfAlloc-selfFree, []graph.TaskID{self})
	}
	return out
}

// liuOrder computes Liu's memory-optimal traversal of an in-forest DAG.
func liuOrder(g *graph.DAG, parent []graph.TaskID, alloc, free []int64) ([]graph.TaskID, error) {
	topo, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	n := g.NumTasks()
	kids := make([][]graph.TaskID, n)
	roots := make([]graph.TaskID, 0)
	for t := 0; t < n; t++ {
		if parent[t] == -1 {
			roots = append(roots, graph.TaskID(t))
		} else {
			kids[parent[t]] = append(kids[parent[t]], graph.TaskID(t))
		}
	}
	for t := range kids {
		sort.Slice(kids[t], func(i, j int) bool { return kids[t][i] < kids[t][j] })
	}
	seqs := make([][]hvSeg, n)
	for _, t := range topo { // children precede parents in any topo order
		childSeqs := make([][]hvSeg, 0, len(kids[t]))
		for _, c := range kids[t] {
			childSeqs = append(childSeqs, seqs[c])
		}
		seqs[t] = composeLiu(childSeqs, alloc[t], free[t], t)
	}
	rootSeqs := make([][]hvSeg, 0, len(roots))
	for _, r := range roots {
		rootSeqs = append(rootSeqs, seqs[r])
	}
	final := composeLiu(rootSeqs, 0, 0, -1)
	order := make([]graph.TaskID, 0, n)
	for _, sg := range final {
		order = append(order, sg.tasks...)
	}
	if len(order) != n {
		return nil, fmt.Errorf("sched: liu traversal emitted %d of %d tasks", len(order), n)
	}
	return order, nil
}

// greedyMemOrder computes a memory-sweep linear extension of an arbitrary
// DAG: among ready tasks, repeatedly pick the one with the smallest net
// growth of the summed alive volatile space (ties: smallest new allocation,
// then largest bottom level, then task ID). This is the general-DAG
// fallback of the tree traversal — on trees with chain-shaped lifetimes it
// tends to match Liu but carries no optimality proof.
func greedyMemOrder(g *graph.DAG, assign []graph.Proc, model CostModel) []graph.TaskID {
	n := g.NumTasks()
	bl := g.BottomLevels(model.EdgeComm(g, assign))

	// Distinct volatile copies per task, and total touch counts per copy.
	vols := make([][]volKey, n)
	left := make(map[volKey]int32)
	for t := 0; t < n; t++ {
		q := assign[t]
		acc := g.Accesses(graph.TaskID(t))
		seen := make(map[graph.ObjID]bool, len(acc))
		for _, o := range acc {
			if g.Objects[o].Owner == q || seen[o] {
				continue
			}
			seen[o] = true
			k := volKey{q, o}
			vols[t] = append(vols[t], k)
			left[k]++
		}
	}

	remaining := make([]int32, n)
	for t := 0; t < n; t++ {
		remaining[t] = int32(len(g.In(graph.TaskID(t))))
	}
	ready := make([]graph.TaskID, 0, n)
	for t := 0; t < n; t++ {
		if remaining[t] == 0 {
			ready = append(ready, graph.TaskID(t))
		}
	}
	alive := make(map[volKey]bool)
	order := make([]graph.TaskID, 0, n)
	for len(ready) > 0 {
		besti := -1
		var bestGrow, bestAlloc int64
		for i, t := range ready {
			var grow, allocNew int64
			for _, k := range vols[t] {
				sz := g.Objects[k.o].Size
				if !alive[k] {
					allocNew += sz
					grow += sz
				}
				if left[k] == 1 {
					grow -= sz
				}
			}
			if besti == -1 {
				besti, bestGrow, bestAlloc = i, grow, allocNew
				continue
			}
			b := ready[besti]
			better := false
			switch {
			case grow != bestGrow:
				better = grow < bestGrow
			case allocNew != bestAlloc:
				better = allocNew < bestAlloc
			case bl[t] != bl[b]:
				better = bl[t] > bl[b]
			default:
				better = t < b
			}
			if better {
				besti, bestGrow, bestAlloc = i, grow, allocNew
			}
		}
		t := ready[besti]
		ready = append(ready[:besti], ready[besti+1:]...)
		order = append(order, t)
		for _, k := range vols[t] {
			alive[k] = true
			left[k]--
			if left[k] == 0 {
				delete(alive, k)
			}
		}
		for _, e := range g.Out(t) {
			remaining[e.To]--
			if remaining[e.To] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return order
}

// TreeMemOrder computes the TreeMem global activation order: Liu's
// memory-optimal traversal when the DAG is an in-forest whose volatile
// lifetimes are ancestor chains (liu=true), the greedy memory sweep
// otherwise. The returned order is always a linear extension of the full
// dependence graph.
func TreeMemOrder(g *graph.DAG, assign []graph.Proc, model CostModel) (order []graph.TaskID, liu bool, err error) {
	if parent, isForest := treeParents(g); isForest {
		if alloc, free, chains := liuContrib(g, assign, parent); chains {
			o, err := liuOrder(g, parent, alloc, free)
			if err != nil {
				return nil, false, err
			}
			return o, true, nil
		}
	}
	return greedyMemOrder(g, assign, model), false, nil
}

// SequentialFootprint evaluates an activation order as if one processor at
// a time executed it: the maximum, over positions, of the largest permanent
// residency plus the total alive volatile space summed across processors
// (each volatile copy alive from the first to the last position of its
// touchers). Because every per-processor order of a TreeMem schedule is a
// projection of the activation order, each realized per-processor peak — and
// therefore MIN_MEM — is bounded by this footprint (the 2014-style bound).
func SequentialFootprint(g *graph.DAG, assign []graph.Proc, p int, order []graph.TaskID) int64 {
	perm := make([]int64, p)
	for i := range g.Objects {
		o := &g.Objects[i]
		if o.Owner >= 0 {
			perm[o.Owner] += o.Size
		}
	}
	var maxPerm int64
	for _, v := range perm {
		if v > maxPerm {
			maxPerm = v
		}
	}
	pos := make([]int32, g.NumTasks())
	for i, t := range order {
		pos[t] = int32(i)
	}
	first := make(map[volKey]int32)
	last := make(map[volKey]int32)
	for k, ts := range volatileTouchers(g, assign) { //det:ok folds into position extremes, commutative
		lo, hi := int32(len(order)), int32(-1)
		for _, t := range ts {
			if pos[t] < lo {
				lo = pos[t]
			}
			if pos[t] > hi {
				hi = pos[t]
			}
		}
		first[k] = lo
		last[k] = hi
	}
	allocAt := make([]int64, len(order)+1)
	freeAfter := make([]int64, len(order)+1)
	for k := range first { //det:ok sums into position buckets, commutative
		allocAt[first[k]] += g.Objects[k.o].Size
		freeAfter[last[k]] += g.Objects[k.o].Size
	}
	peak := maxPerm
	var aliveVol int64
	for i := range order {
		aliveVol += allocAt[i]
		if req := maxPerm + aliveVol; req > peak {
			peak = req
		}
		aliveVol -= freeAfter[i]
	}
	return peak
}

// rankPolicy makes each processor execute its tasks exactly in activation
// order: a ready task is eligible only when it is its processor's
// head-of-line task by global rank. The globally smallest unscheduled rank
// is always ready (the order is a linear extension) and head-of-line on its
// processor, so the policy never starves the list engine.
type rankPolicy struct {
	rank      []int32
	procRanks [][]int32 // ascending ranks of each processor's tasks
	next      []int
}

func newRankPolicy(order []graph.TaskID, assign []graph.Proc, p int) *rankPolicy {
	r := &rankPolicy{
		rank:      make([]int32, len(order)),
		procRanks: make([][]int32, p),
		next:      make([]int, p),
	}
	for i, t := range order {
		r.rank[t] = int32(i)
		q := assign[t]
		r.procRanks[q] = append(r.procRanks[q], int32(i))
	}
	// Ranks arrive in ascending order per processor (one pass over order).
	return r
}

func (r *rankPolicy) keys(t graph.TaskID) (float64, float64) {
	return float64(r.rank[t]), 0
}

func (r *rankPolicy) eligible(t graph.TaskID, p graph.Proc) bool {
	return r.rank[t] == r.procRanks[p][r.next[p]]
}

func (r *rankPolicy) inserted(graph.TaskID, graph.Proc) {}

func (r *rankPolicy) scheduled(t graph.TaskID, p graph.Proc) {
	r.next[p]++
}

// ScheduleTreeMem produces the tree-memory schedule: the TreeMemOrder
// activation order lifted to p processors rank-strictly, so that MIN_MEM of
// the result is bounded by SequentialFootprint of the order.
func ScheduleTreeMem(g *graph.DAG, assign []graph.Proc, p int, model CostModel) (*Schedule, error) {
	order, _, err := TreeMemOrder(g, assign, model)
	if err != nil {
		return nil, err
	}
	pol := newRankPolicy(order, assign, p)
	return runList(g, assign, p, model, pol, TreeMem)
}
