// Package sched implements the scheduling layer of the paper: owner-compute
// clustering and load-balanced mapping, and the three task-ordering
// heuristics evaluated in Section 5 — RCP (critical-path ordering, the
// time-efficient baseline), MPO (memory-priority guided ordering) and DTS
// (data-access directed time slicing, with optional slice merging under a
// known memory budget). It also evaluates schedules: the MEM_REQ / MIN_MEM
// quantities of Definitions 4-6, the no-recycling total TOT used by the
// paper's memory-constraint percentages, and a predicted makespan.
package sched

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/util"
)

// Heuristic names a task-ordering algorithm.
type Heuristic uint8

const (
	// RCP is critical-path list scheduling (Yang & Gerasoulis [20]).
	RCP Heuristic = iota
	// MPO is memory-priority guided ordering (Section 4.1).
	MPO
	// DTS is data-access directed time slicing (Section 4.2).
	DTS
	// DTSMerge is DTS followed by slice merging under AVAIL_MEM (Figure 6).
	DTSMerge
	// TreeMem is the tree-memory scheduler: Liu's memory-optimal traversal
	// on tree-shaped dependence graphs (via the hill/valley segment algebra
	// of Marchal–Sinnen–Vivien and Eyraud-Dubois et al., see PAPERS.md),
	// generalized to arbitrary DAGs by a greedy memory sweep, and lifted to
	// p processors as a rank-strict bounded-memory list schedule.
	TreeMem
)

func (h Heuristic) String() string {
	switch h {
	case RCP:
		return "RCP"
	case MPO:
		return "MPO"
	case DTS:
		return "DTS"
	case DTSMerge:
		return "DTS+merge"
	case TreeMem:
		return "TreeMem"
	}
	return "?"
}

// ParseHeuristic reads a heuristic as the command lines and job specs spell
// it — rcp, mpo, dts, dtsmerge, treemem, in any letter case.
func ParseHeuristic(name string) (Heuristic, error) {
	switch strings.ToLower(name) {
	case "rcp":
		return RCP, nil
	case "mpo":
		return MPO, nil
	case "dts":
		return DTS, nil
	case "dtsmerge":
		return DTSMerge, nil
	case "treemem":
		return TreeMem, nil
	}
	return 0, fmt.Errorf("unknown heuristic %q (want rcp, mpo, dts, dtsmerge or treemem)", name)
}

// Schedule is a static schedule: an assignment of every task to a processor
// and an execution order on each processor, together with the object
// ownership map that induced it.
type Schedule struct {
	G *graph.DAG
	P int
	// Assign[t] is the processor of task t.
	Assign []graph.Proc
	// Order[p] lists the tasks of processor p in execution order.
	Order [][]graph.TaskID
	// Pos[t] is the position of task t within Order[Assign[t]].
	Pos []int32
	// Makespan is the parallel time predicted by the ordering simulation
	// (no memory-management overhead).
	Makespan float64
	// Heuristic records which ordering produced the schedule.
	Heuristic Heuristic
	// Slices, for DTS schedules, maps each task to its slice index
	// (nil otherwise).
	Slices []int32
	// NumSlices is the number of slices for DTS schedules (post merging).
	NumSlices int
}

// Bytes is the heap the schedule keeps live, its task graph aside: one
// step per table and per processor. A processor's order counts its
// capacity: the list scheduler carves every order from one array with
// the capacity cut at the order's length, so the array counts once.
func (s *Schedule) Bytes() int64 {
	n := int64(unsafe.Sizeof(*s)) + util.SliceBytes(s.Assign) + util.SliceBytes(s.Order) +
		util.SliceBytes(s.Pos) + util.SliceBytes(s.Slices)
	for _, o := range s.Order {
		n += util.SliceBytes(o)
	}
	return n
}

// finalize fills Pos and validates that every task appears exactly once.
func (s *Schedule) finalize() error {
	n := s.G.NumTasks()
	s.Pos = make([]int32, n)
	for i := range s.Pos {
		s.Pos[i] = -1
	}
	count := 0
	for p := 0; p < s.P; p++ {
		for i, t := range s.Order[p] {
			if s.Assign[t] != graph.Proc(p) {
				return fmt.Errorf("sched: task %d ordered on proc %d but assigned to %d", t, p, s.Assign[t])
			}
			if s.Pos[t] != -1 {
				return fmt.Errorf("sched: task %d appears twice", t)
			}
			s.Pos[t] = int32(i)
			count++
		}
	}
	if count != n {
		return fmt.Errorf("sched: %d of %d tasks ordered", count, n)
	}
	return nil
}

// Validate checks that the per-processor orders respect all dependence
// edges: for every edge u->v, u is ordered before v if on the same
// processor, and there is no cycle in the induced execution constraints.
func (s *Schedule) Validate() error {
	for t := 0; t < s.G.NumTasks(); t++ {
		for _, e := range s.G.Out(graph.TaskID(t)) {
			if s.Assign[e.From] == s.Assign[e.To] && s.Pos[e.From] >= s.Pos[e.To] {
				return fmt.Errorf("sched: edge %d->%d violated on proc %d", e.From, e.To, s.Assign[e.From])
			}
		}
	}
	// Cross-processor cycles: the execution order must be a linear extension
	// of the DAG plus the per-proc chains; check by topological sort over
	// the union.
	n := s.G.NumTasks()
	indeg := make([]int32, n)
	// The chain edges, grouped by source: u's successors on the processors
	// that order it are extraTo[extraOff[u]:extraOff[u+1]].
	extraOff := make([]int32, n+1)
	chains := 0
	for p := 0; p < s.P; p++ {
		for i := 1; i < len(s.Order[p]); i++ {
			extraOff[s.Order[p][i-1]+1]++
			chains++
		}
	}
	for t := 0; t < n; t++ {
		extraOff[t+1] += extraOff[t]
	}
	extraTo := make([]graph.TaskID, chains)
	next := slices.Clone(extraOff[:n])
	for p := 0; p < s.P; p++ {
		for i := 1; i < len(s.Order[p]); i++ {
			u, v := s.Order[p][i-1], s.Order[p][i]
			extraTo[next[u]] = v
			next[u]++
			indeg[v]++
		}
	}
	for t := 0; t < n; t++ {
		indeg[t] += int32(len(s.G.In(graph.TaskID(t))))
	}
	queue := make([]graph.TaskID, 0, n)
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, graph.TaskID(t))
		}
	}
	seen := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		relax := func(v graph.TaskID) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
		for _, e := range s.G.Out(u) {
			relax(e.To)
		}
		for _, v := range extraTo[extraOff[u]:extraOff[u+1]] {
			relax(v)
		}
	}
	if seen != n {
		return fmt.Errorf("sched: execution constraints contain a cycle")
	}
	return nil
}

// PermSize returns the total size of permanent objects on each processor
// (every object is permanent on its owner and stays allocated throughout).
func (s *Schedule) PermSize() []int64 {
	perm := make([]int64, s.P)
	for i := range s.G.Objects {
		o := &s.G.Objects[i]
		if o.Owner >= 0 {
			perm[o.Owner] += o.Size
		}
	}
	return perm
}

// volatilePairs marks the (processor, volatile object) pairs of the
// schedule — objects read or written by a processor's tasks but owned
// elsewhere — as p·m+o, m the object count, and counts them per processor.
// It reads the assignment only, not the order.
func (s *Schedule) volatilePairs() (touched *util.Bitset, count []int) {
	m := s.G.NumObjects()
	touched = util.NewBitset(s.P * m)
	count = make([]int, s.P)
	for t := range s.G.Tasks {
		p := s.Assign[t]
		for _, o := range s.G.Accesses(graph.TaskID(t)) {
			if slot := int(p)*m + int(o); s.G.Objects[o].Owner != p && !touched.Has(slot) {
				touched.Set(slot)
				count[p]++
			}
		}
	}
	return touched, count
}

// VolatileObjects returns, for each processor, the volatile objects it
// touches — objects read or written by its tasks but owned elsewhere — in
// ascending ID order. It reads the assignment only, not the order.
func (s *Schedule) VolatileObjects() [][]graph.ObjID {
	touched, count := s.volatilePairs()
	total := 0
	for _, c := range count {
		total += c
	}
	m := s.G.NumObjects()
	objs := make([]graph.ObjID, 0, total)
	vol := make([][]graph.ObjID, s.P)
	for p := range vol {
		first := len(objs)
		for o := 0; o < m; o++ {
			if touched.Has(p*m + o) {
				objs = append(objs, graph.ObjID(o))
			}
		}
		vol[p] = objs[first:len(objs):len(objs)]
	}
	return vol
}

// TOT returns the paper's "total memory space needed for a given task
// schedule without any space recycling": on each processor the permanent
// space plus the space of every volatile object it touches; TOT is the
// maximum over processors.
func (s *Schedule) TOT() int64 {
	perm := s.PermSize()
	vol := s.VolatileObjects()
	var tot int64
	for p := 0; p < s.P; p++ {
		sum := perm[p]
		for _, o := range vol[p] {
			sum += s.G.Objects[o].Size
		}
		if sum > tot {
			tot = sum
		}
	}
	return tot
}

// Lifetime is the alive range of one volatile object on one processor
// (Definition 4): the positions, in the processor's order, of the first and
// the last task that uses it.
type Lifetime struct {
	Obj         graph.ObjID
	First, Last int32
}

// VolatileLifetimes computes, for each processor, the lifetime of every
// volatile object it touches, ordered by (first use, object).
func (s *Schedule) VolatileLifetimes() [][]Lifetime {
	n := 0
	_, count := s.volatilePairs()
	for _, c := range count {
		n += c
	}
	// at[o] is 1 + the index in all of o's lifetime on the processor being
	// swept, if that is beyond the processor's first index.
	at := make([]int32, s.G.NumObjects())
	all := make([]Lifetime, 0, n)
	lt := make([][]Lifetime, s.P)
	for p := 0; p < s.P; p++ {
		first := len(all)
		for i, t := range s.Order[p] {
			firstUsed := len(all) // the objects task i is the first to use start here
			for _, o := range s.G.Accesses(graph.TaskID(t)) {
				switch {
				case s.G.Objects[o].Owner == graph.Proc(p):
				case int(at[o]) > first:
					all[at[o]-1].Last = int32(i)
				default:
					all = append(all, Lifetime{Obj: o, First: int32(i), Last: int32(i)})
					at[o] = int32(len(all))
				}
			}
			if seg := all[firstUsed:]; len(seg) > 1 {
				slices.SortFunc(seg, func(a, b Lifetime) int { return cmp.Compare(a.Obj, b.Obj) })
				for k := range seg {
					at[seg[k].Obj] = int32(firstUsed + k + 1)
				}
			}
		}
		lt[p] = all[first:len(all):len(all)]
	}
	return lt
}

// PerProcPeaks computes, for each processor, the peak space requirement of
// its order under immediate-free semantics (Definition 5 applied per
// processor): permanent space plus the maximum overlap of volatile
// lifetimes, S_p^A in the Figure 7 comparisons. A processor that runs no
// tasks still holds its permanent objects.
func (s *Schedule) PerProcPeaks() []int64 {
	perm := s.PermSize()
	lt := s.VolatileLifetimes()
	longest := 0
	for p := 0; p < s.P; p++ {
		longest = max(longest, len(s.Order[p]))
	}
	// Sizes allocated at, and freed after, each position of the order swept.
	allocAt, freeAfter := make([]int64, longest), make([]int64, longest)
	peaks := make([]int64, s.P)
	for p := 0; p < s.P; p++ {
		clear(allocAt)
		clear(freeAfter)
		for _, l := range lt[p] {
			allocAt[l.First] += s.G.Objects[l.Obj].Size
			freeAfter[l.Last] += s.G.Objects[l.Obj].Size
		}
		peak := perm[p]
		var alive int64
		for i := range s.Order[p] {
			alive += allocAt[i]
			if req := perm[p] + alive; req > peak {
				peak = req
			}
			alive -= freeAfter[i]
		}
		peaks[p] = peak
	}
	return peaks
}

// MinMem computes MIN_MEM (Definition 5): the maximum over processors and
// tasks of the memory requirement assuming volatile objects are freed
// immediately after their last use and allocated at their first use, with
// lifetimes able to share space only when disjoint.
func (s *Schedule) MinMem() int64 {
	var minMem int64
	for _, pk := range s.PerProcPeaks() {
		if pk > minMem {
			minMem = pk
		}
	}
	return minMem
}

// PeakImbalance reports how unevenly the peak space requirement is spread
// across processors: the largest per-processor peak divided by the mean
// peak. 1.0 means perfectly balanced; p means one processor carries
// everything. A schedule with no processors (or all-zero peaks) reports 1.0.
func (s *Schedule) PeakImbalance() float64 {
	peaks := s.PerProcPeaks()
	var sum, max int64
	for _, pk := range peaks {
		sum += pk
		if pk > max {
			max = pk
		}
	}
	if sum == 0 {
		return 1.0
	}
	return float64(max) * float64(len(peaks)) / float64(sum)
}
