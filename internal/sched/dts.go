package sched

import (
	"fmt"

	"repro/internal/graph"
)

// appendAssoc appends to dst the data nodes task t is associated with in the
// data connection graph (Section 4.2): the objects it uses but does not
// modify, or, if it has none (e.g. it only modifies objects), the objects it
// modifies. mark is scratch indexed by object id: while t is being looked
// at, 2·t+1 marks an object t writes and 2·t+2 one already appended.
func appendAssoc(dst []graph.ObjID, g *graph.DAG, t graph.TaskID, mark []int32) []graph.ObjID {
	written, taken := 2*t+1, 2*t+2
	for _, o := range g.Writes(t) {
		mark[o] = written
	}
	first := len(dst)
	for _, o := range g.Reads(t) {
		if mark[o] != written && mark[o] != taken {
			mark[o] = taken
			dst = append(dst, o)
		}
	}
	if len(dst) == first {
		for _, o := range g.Writes(t) {
			if mark[o] != taken {
				mark[o] = taken
				dst = append(dst, o)
			}
		}
	}
	return dst
}

// BuildDCG constructs the data connection graph of the DAG: one node per
// data object, doubly-directed edges among the objects associated with a
// common task, and an edge d_i -> d_j for every task dependence edge
// (Tx, Ty) with Tx associated with d_i and Ty associated with d_j. It
// returns the adjacency list and the per-task association lists. Both are
// carved out of one allocation each: the access lists bound the
// associations, and a counting sweep over the edges sizes the adjacency
// before a second one fills it.
func BuildDCG(g *graph.DAG) (adj [][]int32, assoc [][]graph.ObjID) {
	m := g.NumObjects()
	assoc = make([][]graph.ObjID, g.NumTasks())
	nodes := make([]graph.ObjID, 0, g.NumAccesses())
	mark := make([]int32, m)
	for ti := range g.Tasks {
		first := len(nodes)
		nodes = appendAssoc(nodes, g, graph.TaskID(ti), mark)
		assoc[ti] = nodes[first:len(nodes):len(nodes)]
	}

	// Node a's neighbours are to[off[a]:off[a+1]], in the order the sweep
	// meets them. A task's successors are mostly associated with the same
	// few nodes, and a repeated neighbour changes nothing SCC computes, so
	// each task links a node once: mark now says which task, in which
	// sweep, linked it last. (Repeats between tasks stay.)
	off := make([]int32, m+1)
	var to, next []int32
	clear(mark)
	for _, fill := range [2]bool{false, true} {
		link := func(a, b graph.ObjID) {
			switch {
			case a == b:
			case fill:
				to[next[a]] = b
				next[a]++
			default:
				off[a+1]++
			}
		}
		for _, as := range assoc {
			// Strongly connect multi-associated data nodes.
			for i := 0; i < len(as); i++ {
				for j := i + 1; j < len(as); j++ {
					link(as[i], as[j])
					link(as[j], as[i])
				}
			}
		}
		for ti, from := range assoc {
			linked := int32(2*ti + 1)
			if fill {
				linked++
			}
			for _, e := range g.Out(graph.TaskID(ti)) {
				for _, dj := range assoc[e.To] {
					if mark[dj] == linked {
						continue
					}
					mark[dj] = linked
					for _, di := range from {
						link(di, dj)
					}
				}
			}
		}
		if !fill {
			for a := 0; a < m; a++ {
				off[a+1] += off[a]
			}
			to = make([]int32, off[m])
			next = append(make([]int32, 0, m), off[:m]...)
		}
	}
	adj = make([][]int32, m)
	for a := range adj {
		adj[a] = to[off[a]:off[a+1]:off[a+1]]
	}
	return adj, assoc
}

// Slices computes the DTS slices: strongly connected components of the DCG
// in a topological order of the condensation. It returns sliceOf[task] and
// the number of slices. Tasks associated with multiple objects always land
// in a single slice because their data nodes are strongly connected.
func Slices(g *graph.DAG) (sliceOf []int32, nSlices int, err error) {
	adj, assoc := BuildDCG(g)
	comp, nc := graph.SCC(adj)
	// Tarjan indices are reverse-topological; flip them.
	sliceOf = make([]int32, g.NumTasks())
	for ti := range sliceOf {
		as := assoc[ti]
		if len(as) == 0 {
			return nil, 0, fmt.Errorf("sched: task %q accesses no objects", g.TaskName(graph.TaskID(ti)))
		}
		s := int32(nc) - 1 - comp[as[0]]
		for _, o := range as[1:] {
			if s2 := int32(nc) - 1 - comp[o]; s2 != s {
				return nil, 0, fmt.Errorf("sched: task %q spans slices %d and %d", g.TaskName(graph.TaskID(ti)), s, s2)
			}
		}
		sliceOf[ti] = s
	}
	return sliceOf, nc, nil
}

// SliceVolatileNeed computes H(R, L) for every slice (Definition 7): the
// maximum over processors of the total size of distinct volatile objects
// used by the slice's tasks on that processor.
func SliceVolatileNeed(g *graph.DAG, assign []graph.Proc, p int, sliceOf []int32, nSlices int) []int64 {
	// Bucket the tasks by slice, so that a (processor, object) pair needs
	// one stamp — the last slice that counted it — not one per slice.
	sliceOff := make([]int32, nSlices+1)
	for _, s := range sliceOf {
		sliceOff[s+1]++
	}
	for s := 0; s < nSlices; s++ {
		sliceOff[s+1] += sliceOff[s]
	}
	tasks := make([]graph.TaskID, len(sliceOf))
	next := append(make([]int32, 0, nSlices), sliceOff[:nSlices]...)
	for ti, s := range sliceOf {
		tasks[next[s]] = graph.TaskID(ti)
		next[s]++
	}

	m := g.NumObjects()
	counted := make([]int32, p*m) // counted[q·m+o] == s+1: slice s counted o on q
	load := make([]int64, p)
	h := make([]int64, nSlices)
	for s := 0; s < nSlices; s++ {
		clear(load)
		for _, ti := range tasks[sliceOff[s]:sliceOff[s+1]] {
			q := assign[ti]
			for _, o := range g.Accesses(ti) {
				if slot := int(q)*m + int(o); g.Objects[o].Owner != q && counted[slot] != int32(s)+1 {
					counted[slot] = int32(s) + 1
					load[q] += g.Objects[o].Size
				}
			}
		}
		for _, l := range load {
			if l > h[s] {
				h[s] = l
			}
		}
	}
	return h
}

// MergeSlices implements the greedy slice-merging of Figure 6: consecutive
// slices are merged while the sum of their volatile requirements stays
// within availVolatile (AVAIL_MEM expressed as the per-processor volatile
// budget). It returns the new slice index for each original slice and the
// new slice count.
func MergeSlices(h []int64, availVolatile int64) (newIdx []int32, nNew int) {
	newIdx = make([]int32, len(h))
	if len(h) == 0 {
		return newIdx, 0
	}
	cur := int32(0)
	spaceReq := h[0]
	newIdx[0] = 0
	for i := 1; i < len(h); i++ {
		if spaceReq+h[i] <= availVolatile {
			newIdx[i] = cur
			spaceReq += h[i]
		} else {
			cur++
			newIdx[i] = cur
			spaceReq = h[i]
		}
	}
	return newIdx, int(cur) + 1
}

// dtsPolicy schedules slice by slice: on each processor, a ready task is
// eligible only if no unscheduled task on the same processor belongs to an
// earlier slice. Within a slice, critical-path priority orders tasks.
type dtsPolicy struct {
	sliceOf []int32
	bl      []float64
	// unsched[p][s] counts unscheduled tasks of slice s on processor p;
	// minSlice[p] is the smallest s with unsched[p][s] > 0.
	unsched  [][]int32
	minSlice []int32
	nSlices  int
}

func newDTSPolicy(g *graph.DAG, assign []graph.Proc, p int, sliceOf []int32, nSlices int, bl []float64) *dtsPolicy {
	d := &dtsPolicy{
		sliceOf:  sliceOf,
		bl:       bl,
		unsched:  make([][]int32, p),
		minSlice: make([]int32, p),
		nSlices:  nSlices,
	}
	for q := 0; q < p; q++ {
		d.unsched[q] = make([]int32, nSlices)
	}
	for ti := range g.Tasks {
		d.unsched[assign[ti]][sliceOf[ti]]++
	}
	for q := 0; q < p; q++ {
		d.advance(graph.Proc(q))
	}
	return d
}

func (d *dtsPolicy) advance(p graph.Proc) {
	for int(d.minSlice[p]) < d.nSlices && d.unsched[p][d.minSlice[p]] == 0 {
		d.minSlice[p]++
	}
}

func (d *dtsPolicy) keys(t graph.TaskID) (float64, float64) {
	// Slice-major (ascending) so that the heap top always carries the
	// smallest ready slice; an ineligible top therefore implies no
	// eligible ready task on the processor.
	return float64(d.sliceOf[t]), -d.bl[t]
}

func (d *dtsPolicy) eligible(t graph.TaskID, p graph.Proc) bool {
	return d.sliceOf[t] == d.minSlice[p]
}

func (d *dtsPolicy) inserted(graph.TaskID, graph.Proc) {}

func (d *dtsPolicy) scheduled(t graph.TaskID, p graph.Proc) {
	d.unsched[p][d.sliceOf[t]]--
	d.advance(p)
}

// ScheduleDTS produces the data-access directed time-slicing schedule of
// Section 4.2. If merge is true, consecutive slices are first merged under
// the per-processor volatile budget availVolatile (Figure 6); otherwise
// availVolatile is ignored. A budget that holds every task's volatile
// accesses at once (an unconstrained compile's) merges all slices into
// one, so the slices are not computed at all.
func ScheduleDTS(g *graph.DAG, assign []graph.Proc, p int, model CostModel, merge bool, availVolatile int64) (*Schedule, error) {
	if merge && mergesToOne(g, assign, availVolatile) {
		sliceOf, nSlices, err := oneSlice(g)
		if err != nil {
			return nil, err
		}
		return scheduleSlices(g, assign, p, model, DTSMerge, sliceOf, nSlices)
	}
	return scheduleSliced(g, assign, p, model, merge, availVolatile)
}

// scheduleSliced is ScheduleDTS computing the slices: the DCG's strongly
// connected components, merged under availVolatile if merge is true.
func scheduleSliced(g *graph.DAG, assign []graph.Proc, p int, model CostModel, merge bool, availVolatile int64) (*Schedule, error) {
	sliceOf, nSlices, err := Slices(g)
	if err != nil {
		return nil, err
	}
	h := DTS
	if merge {
		hv := SliceVolatileNeed(g, assign, p, sliceOf, nSlices)
		newIdx, nNew := MergeSlices(hv, availVolatile)
		for ti := range sliceOf {
			sliceOf[ti] = newIdx[sliceOf[ti]]
		}
		nSlices = nNew
		h = DTSMerge
	}
	return scheduleSlices(g, assign, p, model, h, sliceOf, nSlices)
}

// scheduleSlices list-schedules slice by slice for the given slices.
func scheduleSlices(g *graph.DAG, assign []graph.Proc, p int, model CostModel, h Heuristic, sliceOf []int32, nSlices int) (*Schedule, error) {
	bl := g.BottomLevels(model.EdgeComm(g, assign))
	pol := newDTSPolicy(g, assign, p, sliceOf, nSlices, bl)
	s, err := runList(g, assign, p, model, pol, h)
	if err != nil {
		return nil, err
	}
	s.Slices = sliceOf
	s.NumSlices = nSlices
	return s, nil
}

// mergesToOne reports whether MergeSlices would make one slice of every
// slice under availVolatile, whatever the slices: the sizes of all
// volatile accesses, one per task and access, bound the sum of the
// slices' volatile needs, so a budget holding that sum holds every prefix
// of them. The sweep stops once the sum passes the budget.
func mergesToOne(g *graph.DAG, assign []graph.Proc, availVolatile int64) bool {
	var sum int64
	for ti := range g.Tasks {
		q := assign[ti]
		for _, o := range g.Accesses(graph.TaskID(ti)) {
			if obj := &g.Objects[o]; obj.Owner != q {
				if obj.Size < 0 {
					return false
				}
				if sum += obj.Size; sum > availVolatile {
					return false
				}
			}
		}
	}
	return true
}

// oneSlice is the slice table of a merge into one slice: every task in
// slice 0, and one slice if the DCG has a node. It refuses a task with no
// access, as Slices does.
func oneSlice(g *graph.DAG) (sliceOf []int32, nSlices int, err error) {
	for ti := range g.Tasks {
		if len(g.Accesses(graph.TaskID(ti))) == 0 {
			return nil, 0, fmt.Errorf("sched: task %q accesses no objects", g.TaskName(graph.TaskID(ti)))
		}
	}
	return make([]int32, g.NumTasks()), min(1, g.NumObjects()), nil
}

// Schedule dispatches to the requested heuristic. availVolatile is only
// used by DTSMerge.
func ScheduleWith(h Heuristic, g *graph.DAG, assign []graph.Proc, p int, model CostModel, availVolatile int64) (*Schedule, error) {
	switch h {
	case RCP:
		return ScheduleRCP(g, assign, p, model)
	case MPO:
		return ScheduleMPO(g, assign, p, model)
	case DTS:
		return ScheduleDTS(g, assign, p, model, false, 0)
	case DTSMerge:
		return ScheduleDTS(g, assign, p, model, true, availVolatile)
	case TreeMem:
		return ScheduleTreeMem(g, assign, p, model)
	}
	return nil, fmt.Errorf("sched: unknown heuristic %d", h)
}
