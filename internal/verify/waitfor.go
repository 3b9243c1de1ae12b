package verify

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/sched"
)

// orderEdges checks that every dependence edge between tasks on the same
// processor is ordered forward — a backwards edge means the consumer runs
// before its producer and the protocol tables cannot fix that.
func (c *checker) orderEdges() {
	for t := range c.g.Tasks {
		for _, e := range c.g.Out(graph.TaskID(t)) {
			if c.s.Assign[e.From] != c.s.Assign[e.To] {
				continue
			}
			c.check()
			if c.pos[e.From] >= c.pos[e.To] {
				c.report(Finding{Class: ClassOrderViolation, Proc: c.s.Assign[e.To],
					Pos: c.pos[e.To], Task: e.To, Obj: e.Obj,
					Detail: fmt.Sprintf("%s dependence from task %d (position %d) ordered backwards", e.Kind, e.From, c.pos[e.From])})
			}
		}
	}
}

// waitFrame is one frame of the wait-for DFS: a task and the next slot of
// its wait-for list to explore. Slot 0 is the edge to the task's
// predecessor on its processor, slot k ≥ 1 its (k-1)-th in-edge; a slot
// that is no wait-for edge is skipped.
type waitFrame struct {
	t    graph.TaskID
	next int32
}

// advance moves f past its next wait-for edge and returns the task that
// edge waits for; ok is false when f has no edge left.
func (c *checker) advance(f *waitFrame) (to graph.TaskID, ok bool) {
	in := c.g.In(f.t)
	for int(f.next) <= len(in) {
		k := f.next
		f.next++
		if k == 0 {
			if i := c.pos[f.t]; i > 0 {
				return c.s.Order[c.s.Assign[f.t]][i-1], true
			}
			continue
		}
		if e := in[k-1]; c.s.Assign[e.From] != c.s.Assign[f.t] {
			return e.From, true
		}
	}
	return 0, false
}

// taken describes the edge f took last: why it waits, and the object it
// waits for (graph.None for chain and control edges).
func (c *checker) taken(f waitFrame) (why string, obj graph.ObjID) {
	if f.next == 1 {
		return fmt.Sprintf("runs after it on processor %d", c.s.Assign[f.t]), graph.None
	}
	e := c.g.In(f.t)[f.next-2]
	if e.Kind == graph.DepTrue {
		return fmt.Sprintf("waits for arrival of object %d", e.Obj), e.Obj
	}
	return fmt.Sprintf("waits for %s-dependence control signal", e.Kind), graph.None
}

// waitFor searches the cross-processor wait-for graph over task nodes and
// reports the first cycle as a potential deadlock with the full blocking
// chain. The edges are exactly what can block an executor in the five-state
// protocol: a task waits for its per-processor predecessor (the order is
// sequential), for the data arrivals of its cross-processor true
// dependences, and for the control signals of retained precedence edges.
// Sends never block (the suspended-send queue), and the MAP address-package
// handshake polls in every blocking state, so neither adds static edges.
// The graph is never built: a task's edges are its order predecessor and
// its in-edges in the DAG's adjacency, read where they lie.
func (c *checker) waitFor() {
	n := c.g.NumTasks()
	c.res.Checks += n

	// Iterative three-color DFS; on the first back edge, reconstruct the
	// cycle from the stack and report it as one finding.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]uint8, n)
	var stack []waitFrame
	for root := 0; root < n; root++ {
		if color[root] != white {
			continue
		}
		stack = append(stack[:0], waitFrame{t: graph.TaskID(root)})
		color[root] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			to, ok := c.advance(f)
			if !ok {
				color[f.t] = black
				stack = stack[:len(stack)-1]
				continue
			}
			switch color[to] {
			case white:
				color[to] = gray
				stack = append(stack, waitFrame{t: to})
			case gray:
				c.reportCycle(stack, to)
				return
			}
		}
	}
}

// reportCycle renders the blocking chain of the cycle closed by the edge
// the top of the DFS stack took last, back to task to.
func (c *checker) reportCycle(stack []waitFrame, to graph.TaskID) {
	// Find where the cycle starts on the stack.
	start := 0
	for i, f := range stack {
		if f.t == to {
			start = i
			break
		}
	}
	cyc := stack[start:]
	top := cyc[len(cyc)-1]
	backWhy, backObj := c.taken(top)
	var b strings.Builder
	b.WriteString("potential deadlock, blocking chain: ")
	for i := len(cyc) - 1; i >= 0; i-- {
		f := cyc[i]
		fmt.Fprintf(&b, "task %q (P%d#%d)", c.g.TaskName(f.t), c.s.Assign[f.t], c.pos[f.t])
		why := backWhy
		if i > 0 {
			// The edge f took to reach the next frame down the chain.
			why, _ = c.taken(f)
		}
		fmt.Fprintf(&b, " %s -> ", why)
	}
	fmt.Fprintf(&b, "task %q (P%d#%d)", c.g.TaskName(to), c.s.Assign[to], c.pos[to])
	c.report(Finding{Class: ClassWaitCycle, Proc: c.s.Assign[top.t], Pos: c.pos[top.t],
		Task: top.t, Obj: backObj, Detail: b.String()})
}

// thresholds cross-checks arrival gating against the in-edges: the protocol
// tables derive each processor's expected version count per volatile object
// from the cross-processor true-dependence producers, and gate each reader
// on an arrival threshold. A task that reads a volatile object without any
// true-dependence in-edge for it — while versions of that object do arrive
// at the processor — reads a buffer the protocol never ordered against its
// producer: a data race the sequence-number pre-assignment cannot cover.
//
// The version counts are recomputed from the DAG, never read from the
// protocol tables the check is about, and only for the ungated reads.
func (c *checker) thresholds() {
	// gatedBy[o] == v+1: task v has a cross-processor true in-edge for o.
	gatedBy := make([]int32, c.m)
	var ungated []access
	for v := range c.g.Tasks {
		p := c.s.Assign[v]
		for _, e := range c.g.In(graph.TaskID(v)) {
			if e.Kind == graph.DepTrue && c.s.Assign[e.From] != p {
				gatedBy[e.Obj] = int32(v) + 1
			}
		}
		for _, o := range c.g.Reads(graph.TaskID(v)) {
			if c.g.Objects[o].Owner == p {
				continue
			}
			c.check()
			if gatedBy[o] != int32(v)+1 {
				ungated = append(ungated, access{graph.TaskID(v), o})
			}
		}
	}
	if len(ungated) == 0 {
		return
	}
	versions := c.versions(ungated)
	for i, a := range ungated {
		p := c.s.Assign[a.t]
		if versions[i] > 0 && c.once(ClassThresholdMismatch, p, a.o) {
			c.report(Finding{Class: ClassThresholdMismatch, Proc: p, Pos: c.pos[a.t], Task: a.t, Obj: a.o,
				Detail: fmt.Sprintf("remote read not gated by any arrival threshold while %d version(s) arrive at the processor", versions[i])})
		}
	}
}

// access is one task's read of one object.
type access struct {
	t graph.TaskID
	o graph.ObjID
}

// versions returns, for each read, how many versions of its object arrive
// at its reader's processor p, counted as proto.Derive counts them: the
// distinct u* over p's readers of the object, u* being a reader's
// latest-positioned cross-processor true-dependence producer of it.
func (c *checker) versions(reads []access) []int32 {
	// key[p·m+o] is 1 + the index of (p, o) among the pairs asked about.
	key := make([]int32, c.s.P*c.m)
	count := make([]int32, 0, len(reads))
	for _, a := range reads {
		if k := &key[int(c.s.Assign[a.t])*c.m+int(a.o)]; *k == 0 {
			count = append(count, 0)
			*k = int32(len(count))
		}
	}
	// One star (pair, u*) per reader and object asked about.
	type star struct{ pair, u int32 }
	var stars []star
	for v := range c.g.Tasks {
		p := c.s.Assign[v]
		first := len(stars)
		for _, e := range c.g.In(graph.TaskID(v)) {
			if e.Kind != graph.DepTrue || c.s.Assign[e.From] == p {
				continue
			}
			k := key[int(p)*c.m+int(e.Obj)]
			if k == 0 {
				continue
			}
			i := first
			for i < len(stars) && stars[i].pair != k {
				i++
			}
			if i == len(stars) {
				stars = append(stars, star{k, e.From})
			} else if c.pos[e.From] > c.pos[stars[i].u] {
				stars[i].u = e.From
			}
		}
	}
	slices.SortFunc(stars, func(a, b star) int { return cmp.Or(cmp.Compare(a.pair, b.pair), cmp.Compare(a.u, b.u)) })
	for i, st := range stars {
		if i == 0 || st != stars[i-1] {
			count[st.pair-1]++
		}
	}
	out := make([]int32, len(reads))
	for i, a := range reads {
		out[i] = count[key[int(c.s.Assign[a.t])*c.m+int(a.o)]-1]
	}
	return out
}

// sliced reports whether the schedule carries a DTS slicing for dtsBound
// to check.
func (c *checker) sliced() bool {
	s := c.s
	return s.Slices != nil && len(s.Slices) == c.g.NumTasks() && s.NumSlices > 0
}

// immediateFreePeak is the peak of the volatile space a processor whose
// order has length tasks needs when every object in lives is allocated at
// its first use and freed right after its last.
func (c *checker) immediateFreePeak(lives []lifetime, tasks int) int64 {
	c.byPos = append(c.byPos[:0], make([]int64, tasks+1)...)
	for _, l := range lives {
		c.byPos[l.first] += c.g.Objects[l.obj].Size
		c.byPos[l.last+1] -= c.g.Objects[l.obj].Size
	}
	var cur, peak int64
	for _, d := range c.byPos {
		cur += d
		peak = max(peak, cur)
	}
	return peak
}

// dtsBound verifies, for DTS/DTS+merge schedules, slice-monotone per-
// processor ordering and the Theorem 2 volatile-space bound: with
// immediate-free recycling, no processor's volatile need exceeds
// h = max over slices of the slice's per-processor volatile footprint
// (the additive term of the "S1/p + h" corollary).
func (c *checker) dtsBound() {
	s := c.s
	if !c.sliced() {
		return
	}
	for t := range s.Slices {
		if s.Slices[t] < 0 || int(s.Slices[t]) >= s.NumSlices {
			c.report(Finding{Class: ClassDTSBound, Proc: s.Assign[t], Pos: c.pos[t],
				Task: graph.TaskID(t), Obj: graph.None,
				Detail: fmt.Sprintf("slice index %d out of range [0,%d)", s.Slices[t], s.NumSlices)})
			return
		}
	}
	for p := 0; p < s.P; p++ {
		prev := int32(-1)
		for i, t := range s.Order[p] {
			c.check()
			if s.Slices[t] < prev {
				c.report(Finding{Class: ClassDTSBound, Proc: graph.Proc(p), Pos: int32(i),
					Task: t, Obj: graph.None,
					Detail: fmt.Sprintf("slice-monotone order violated: slice %d after slice %d", s.Slices[t], prev)})
			}
			prev = max(prev, s.Slices[t])
		}
	}
	h := sched.SliceVolatileNeed(c.g, s.Assign, s.P, s.Slices, s.NumSlices)
	hMax := max(0, slices.Max(h))
	// Because volatile lifetimes never span slices in a valid DTS schedule,
	// each processor's immediate-free peak (liveness left it in volPeak)
	// must stay within hMax.
	for p := 0; p < s.P; p++ {
		c.check()
		if c.volPeak[p] > hMax {
			c.report(Finding{Class: ClassDTSBound, Proc: graph.Proc(p), Pos: graph.None,
				Task: graph.None, Obj: graph.None,
				Detail: fmt.Sprintf("immediate-free volatile peak %d exceeds Theorem 2 slice bound h=%d", c.volPeak[p], hMax)})
		}
	}
}
