// Package exact is a branch-and-bound reference solver for small
// scheduling instances: given a task graph, a fixed owner-compute
// assignment and a cost model, it enumerates every per-processor execution
// order (all linear extensions, interleaved across processors) and returns
// the true Pareto frontier over (makespan, MIN_MEM) — the same two
// quantities internal/sched reports for its heuristics, computed with
// identical start-time and immediate-free semantics. It exists to measure
// the heuristics, not to schedule real workloads: instances are capped at
// MaxTasks (default 20), in the spirit of the exact memory-constrained
// multiprocessor formulations of Papp, Papp and Yzelman (arXiv 2507.17411).
//
// The search prunes with (a) per-branch lower bounds against the incumbent
// frontier — a branch whose optimistic (time, memory) completion is already
// weakly dominated cannot extend the frontier — and (b) memoized dominance
// over states keyed by the scheduled-task bitmask: the alive volatile sets
// are a pure function of the mask, so two search states with the same mask
// compare on processor clocks, realized peaks and pending data-ready times
// alone; a state componentwise no better than a recorded one is dead.
package exact

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/sched"
)

// Options tunes the solver.
type Options struct {
	// MaxTasks rejects instances larger than this (default 20): the state
	// space is exponential and the solver is a test oracle, not a scheduler.
	MaxTasks int
	// NodeBudget caps search-tree expansions (default 4e6). An exhausted
	// budget yields Complete == false and a frontier that is only an upper
	// envelope (it must not be used as a lower bound).
	NodeBudget int64
}

func (o Options) withDefaults() Options {
	if o.MaxTasks == 0 {
		o.MaxTasks = 20
	}
	if o.NodeBudget == 0 {
		o.NodeBudget = 4_000_000
	}
	return o
}

// Point is one Pareto-optimal (makespan, MIN_MEM) pair.
type Point struct {
	Makespan float64
	MinMem   int64
}

// Result is the solver outcome.
type Result struct {
	// Frontier holds the non-dominated points, ascending in Makespan and
	// strictly descending in MinMem.
	Frontier []Point
	// Nodes counts search-tree expansions.
	Nodes int64
	// Complete is false when NodeBudget ran out; the frontier is then not
	// exact and Admits/GapTime must not be trusted as bounds.
	Complete bool
}

const eps = 1e-9

// Admits reports whether a measured (makespan, minMem) pair is achievable
// or worse — i.e. weakly dominated by some frontier point. Every correctly
// measured schedule of the instance must be admitted; a pair that beats the
// frontier in both dimensions at once is impossible and indicates a
// measurement bug.
func (r *Result) Admits(makespan float64, minMem int64) bool {
	for _, f := range r.Frontier {
		if f.Makespan <= makespan+eps+1e-9*math.Abs(makespan) && f.MinMem <= minMem {
			return true
		}
	}
	return false
}

// BestMem returns the smallest MIN_MEM of any schedule (the right end of
// the frontier).
func (r *Result) BestMem() int64 {
	if len(r.Frontier) == 0 {
		return 0
	}
	return r.Frontier[len(r.Frontier)-1].MinMem
}

// BestMakespan returns the smallest makespan of any schedule.
func (r *Result) BestMakespan() float64 {
	if len(r.Frontier) == 0 {
		return 0
	}
	return r.Frontier[0].Makespan
}

// GapTime returns how far a measured schedule sits above the best exact
// makespan achievable at its memory level (1.0 = optimal). The second
// return is false when no frontier point fits the memory level (cannot
// happen for correctly measured schedules).
func (r *Result) GapTime(makespan float64, minMem int64) (float64, bool) {
	best := math.Inf(1)
	for _, f := range r.Frontier {
		if f.MinMem <= minMem && f.Makespan < best {
			best = f.Makespan
		}
	}
	if math.IsInf(best, 1) || best == 0 {
		return 0, false
	}
	return makespan / best, true
}

// GapMem returns minMem over the smallest achievable MIN_MEM.
func (r *Result) GapMem(minMem int64) (float64, bool) {
	b := r.BestMem()
	if b == 0 {
		return 0, false
	}
	return float64(minMem) / float64(b), true
}

type volEntry struct {
	obj  graph.ObjID
	size int64
}

type solver struct {
	g      *graph.DAG
	assign []graph.Proc
	p      int
	model  sched.CostModel
	n      int

	bl       []float64 // bottom levels including comm: per-task time lower bound
	perm     []int64
	taskVols [][]volEntry // distinct volatile objects per task
	cnt      []int32      // total touches per (proc, obj), indexed q*m+o
	left     []int32
	m        int

	mask      uint32
	full      uint32
	clock     []float64
	workLeft  []float64
	aliveVol  []int64
	peakVol   []int64
	ready     []float64 // data-ready time per task
	remaining []int32

	frontier  []Point
	nodes     int64
	budget    int64
	complete  bool
	memo      map[uint32][][]float64
	memoSize  int
	memoLimit int
}

// Frontier computes the exact (makespan, MIN_MEM) Pareto frontier of the
// instance under the given processor assignment.
func Frontier(g *graph.DAG, assign []graph.Proc, p int, model sched.CostModel, opt Options) (*Result, error) {
	opt = opt.withDefaults()
	n := g.NumTasks()
	if n > opt.MaxTasks {
		return nil, fmt.Errorf("exact: %d tasks exceeds the %d-task cap", n, opt.MaxTasks)
	}
	if n > 30 {
		return nil, fmt.Errorf("exact: %d tasks cannot be bitmasked", n)
	}
	s := &solver{
		g: g, assign: assign, p: p, model: model, n: n, m: g.NumObjects(),
		bl:        g.BottomLevels(model.EdgeComm(g, assign)),
		clock:     make([]float64, p),
		workLeft:  make([]float64, p),
		aliveVol:  make([]int64, p),
		peakVol:   make([]int64, p),
		ready:     make([]float64, n),
		remaining: make([]int32, n),
		budget:    opt.NodeBudget,
		complete:  true,
		memo:      make(map[uint32][][]float64),
		memoLimit: 300_000,
	}
	s.full = uint32(1)<<uint(n) - 1
	s.perm = make([]int64, p)
	for i := range g.Objects {
		o := &g.Objects[i]
		if o.Owner >= 0 && int(o.Owner) < p {
			s.perm[o.Owner] += o.Size
		}
	}
	s.taskVols = make([][]volEntry, n)
	s.cnt = make([]int32, p*s.m)
	for t := 0; t < n; t++ {
		q := assign[t]
		acc := g.Accesses(graph.TaskID(t))
		seen := make(map[graph.ObjID]bool, len(acc))
		for _, o := range acc {
			if g.Objects[o].Owner == q || seen[o] {
				continue
			}
			seen[o] = true
			s.taskVols[t] = append(s.taskVols[t], volEntry{o, g.Objects[o].Size})
			s.cnt[int(q)*s.m+int(o)]++
		}
		s.remaining[t] = int32(len(g.In(graph.TaskID(t))))
		s.workLeft[q] += model.TaskTime(&g.Tasks[t])
	}
	s.left = append([]int32(nil), s.cnt...)

	s.expand()
	sort.Slice(s.frontier, func(i, j int) bool { return s.frontier[i].Makespan < s.frontier[j].Makespan })
	return &Result{Frontier: s.frontier, Nodes: s.nodes, Complete: s.complete}, nil
}

// curMem is the MIN_MEM realized so far (a lower bound on any completion).
func (s *solver) curMem() int64 {
	var mm int64
	for q := 0; q < s.p; q++ {
		if v := s.perm[q] + s.peakVol[q]; v > mm {
			mm = v
		}
	}
	return mm
}

// bounds returns optimistic completions: lbTime is the largest of the
// current clocks, each processor's clock plus its remaining work, and each
// unscheduled task's data-ready time plus its bottom level; lbMem is the
// realized peak (memory never un-peaks).
func (s *solver) bounds() (float64, int64) {
	var lbT float64
	for q := 0; q < s.p; q++ {
		if s.clock[q] > lbT {
			lbT = s.clock[q]
		}
		if v := s.clock[q] + s.workLeft[q]; v > lbT {
			lbT = v
		}
	}
	for t := 0; t < s.n; t++ {
		if s.mask&(1<<uint(t)) != 0 {
			continue
		}
		if v := s.ready[t] + s.bl[t]; v > lbT {
			lbT = v
		}
	}
	return lbT, s.curMem()
}

func (s *solver) prunedByFrontier(lbT float64, lbM int64) bool {
	for _, f := range s.frontier {
		// Strict comparison on time: any completion of this branch takes at
		// least lbT and at least lbM, so a frontier point at or below both
		// weakly dominates everything the branch can reach.
		if f.Makespan <= lbT && f.MinMem <= lbM {
			return true
		}
	}
	return false
}

// dominatedMemo reports whether the current state is componentwise no
// better than a recorded state with the same mask, and records it
// otherwise. The dominance vector is (clocks, volatile peaks, data-ready
// times of unscheduled tasks): alive volatile contents are a pure function
// of the mask and need no comparison.
func (s *solver) dominatedMemo() bool {
	vec := make([]float64, 0, 2*s.p+s.n)
	for q := 0; q < s.p; q++ {
		vec = append(vec, s.clock[q])
	}
	for q := 0; q < s.p; q++ {
		vec = append(vec, float64(s.peakVol[q]))
	}
	for t := 0; t < s.n; t++ {
		if s.mask&(1<<uint(t)) == 0 {
			vec = append(vec, s.ready[t])
		}
	}
	entries := s.memo[s.mask]
	for _, e := range entries {
		dominated := true
		for i, v := range e {
			if vec[i] < v-eps {
				dominated = false
				break
			}
		}
		if dominated {
			return true
		}
	}
	if s.memoSize < s.memoLimit && len(entries) < 64 {
		s.memo[s.mask] = append(entries, vec)
		s.memoSize++
	}
	return false
}

func (s *solver) offer(mk float64, mm int64) {
	for _, f := range s.frontier {
		if f.Makespan <= mk+eps && f.MinMem <= mm {
			return // dominated (or equal)
		}
	}
	kept := s.frontier[:0]
	for _, f := range s.frontier {
		if mk <= f.Makespan+eps && mm <= f.MinMem {
			continue // now dominated by the new point
		}
		kept = append(kept, f)
	}
	s.frontier = append(kept, Point{mk, mm})
}

type trailEntry struct {
	q         graph.Proc
	prevClock float64
	prevWork  float64
	prevPeak  int64
	allocated []volEntry // newly alive at this step
	freed     []volEntry // died at this step
	rTouched  []graph.TaskID
	rPrev     []float64
}

func (s *solver) place(t graph.TaskID) trailEntry {
	q := s.assign[t]
	tr := trailEntry{q: q, prevClock: s.clock[q], prevWork: s.workLeft[q], prevPeak: s.peakVol[q]}
	start := s.clock[q]
	if s.ready[t] > start {
		start = s.ready[t]
	}
	dur := s.model.TaskTime(&s.g.Tasks[t])
	finish := start + dur
	s.clock[q] = finish
	s.workLeft[q] -= dur
	base := int(q) * s.m
	for _, v := range s.taskVols[t] {
		if s.left[base+int(v.obj)] == s.cnt[base+int(v.obj)] {
			s.aliveVol[q] += v.size
			tr.allocated = append(tr.allocated, v)
		}
	}
	if s.aliveVol[q] > s.peakVol[q] {
		s.peakVol[q] = s.aliveVol[q]
	}
	for _, v := range s.taskVols[t] {
		s.left[base+int(v.obj)]--
		if s.left[base+int(v.obj)] == 0 {
			s.aliveVol[q] -= v.size
			tr.freed = append(tr.freed, v)
		}
	}
	for _, e := range s.g.Out(t) {
		arr := finish
		if e.Kind == graph.DepTrue && s.assign[e.From] != s.assign[e.To] {
			arr += s.model.CommTime(s.g.Objects[e.Obj].Size)
		}
		s.remaining[e.To]--
		if arr > s.ready[e.To] {
			tr.rTouched = append(tr.rTouched, e.To)
			tr.rPrev = append(tr.rPrev, s.ready[e.To])
			s.ready[e.To] = arr
		}
	}
	s.mask |= 1 << uint(t)
	return tr
}

func (s *solver) unplace(t graph.TaskID, tr trailEntry) {
	s.mask &^= 1 << uint(t)
	q := tr.q
	s.clock[q] = tr.prevClock
	s.workLeft[q] = tr.prevWork
	s.peakVol[q] = tr.prevPeak
	base := int(q) * s.m
	for _, v := range tr.freed {
		s.aliveVol[q] += v.size
	}
	for _, v := range s.taskVols[t] {
		s.left[base+int(v.obj)]++
	}
	for _, v := range tr.allocated {
		s.aliveVol[q] -= v.size
	}
	for _, e := range s.g.Out(t) {
		s.remaining[e.To]++
	}
	for i, u := range tr.rTouched {
		s.ready[u] = tr.rPrev[i]
	}
}

func (s *solver) expand() {
	if !s.complete {
		return
	}
	s.nodes++
	if s.nodes > s.budget {
		s.complete = false
		return
	}
	if s.mask == s.full {
		var mk float64
		for q := 0; q < s.p; q++ {
			if s.clock[q] > mk {
				mk = s.clock[q]
			}
		}
		s.offer(mk, s.curMem())
		return
	}
	lbT, lbM := s.bounds()
	if s.prunedByFrontier(lbT, lbM) {
		return
	}
	if s.dominatedMemo() {
		return
	}
	cands := make([]graph.TaskID, 0, s.n)
	for t := 0; t < s.n; t++ {
		if s.mask&(1<<uint(t)) == 0 && s.remaining[t] == 0 {
			cands = append(cands, graph.TaskID(t))
		}
	}
	// Critical-path-first branching finds strong incumbents early.
	sort.Slice(cands, func(i, j int) bool {
		if s.bl[cands[i]] != s.bl[cands[j]] {
			return s.bl[cands[i]] > s.bl[cands[j]]
		}
		return cands[i] < cands[j]
	})
	for _, t := range cands {
		tr := s.place(t)
		s.expand()
		s.unplace(t, tr)
		if !s.complete {
			return
		}
	}
}
