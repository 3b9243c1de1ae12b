// Package verify is a static analyzer over compiled execution plans: it
// proves, without executing anything, the invariants the paper's
// correctness argument rests on, so that a corrupted, stale or
// mis-scheduled plan is rejected at a plan boundary (cache load, daemon
// admission) instead of surfacing as a runtime watchdog timeout.
//
// Three analyses run over a (schedule, MAP plan) pair:
//
//   - A per-processor dataflow liveness pass replays the MAP sequence
//     against the task order and proves every volatile object is
//     MAP-allocated before its first use, freed only after its last use,
//     never freed twice and never resurrected — the Theorem 1 precondition
//     that every volatile object's MAP precedes its first use, plus
//     use-after-free / double-free / leak detection with task- and
//     object-precise diagnostics.
//
//   - A cross-processor wait-for graph, read off the schedule's
//     receive/send ordering (per-processor execution chains, data-arrival
//     waits on version producers, control-signal waits on retained
//     precedence edges), is searched for cycles. A cycle means the
//     deadlock-freedom precondition of Theorem 1 is violated; the finding
//     carries the full blocking chain.
//     The MAP address-package handshake adds no further cycles statically:
//     every blocking protocol state performs RA, so a deposit can only
//     stall behind a peer that is itself making progress (see
//     internal/proto).
//
//   - The allocator is replayed symbolically to compute the exact peak
//     volatile memory per processor, which is checked against the plan's
//     declared peaks (stale-plan detection) and its capacity (AVAIL_MEM);
//     for DTS/DTS+merge schedules the immediate-free volatile peak is
//     additionally checked against the Theorem 2 slice bound h (the
//     "S1/p + h" corollary), and slice-monotone ordering is verified.
//
// Arrival thresholds and address-package pre-assignments are cross-checked
// against the actual in-edges of the graph: a remote read not gated by any
// true dependence edge (while versions of the object do arrive) is a data
// race the protocol cannot order, and a MAP Notify set that disagrees with
// the producers that will RMA-deposit into the newly allocated buffers
// means address packages would precede no remote write, or remote writes
// would precede their address package.
//
// The verifier never panics on malformed input: a structural pre-pass
// checks every index before the deeper passes dereference it. It keeps its
// working state the way the inspector does — tables indexed by task,
// object or (processor, object) id, sized up front — and formats text only
// for a finding, so a clean plan costs a few dozen allocations whatever
// its size (DESIGN.md §8).
package verify

import (
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/plan"
	"repro/internal/sched"
)

// Class names a verifier finding class.
type Class string

// Finding classes. Each maps to one invariant of the paper's correctness
// story; see DESIGN.md §8 for the claim-by-claim correspondence.
const (
	// ClassStructure: the plan is internally inconsistent (dangling
	// indices, order/assignment disagreement, MAP coverage gaps).
	ClassStructure Class = "structure"
	// ClassUseBeforeMAP: a task uses a volatile object before any MAP
	// allocates it (Theorem 1 precondition violated).
	ClassUseBeforeMAP Class = "use-before-map"
	// ClassUseAfterFree: a MAP frees a volatile object at or before its
	// last use, or a task uses an object after its free.
	ClassUseAfterFree Class = "use-after-free"
	// ClassDoubleFree: a volatile object is freed twice.
	ClassDoubleFree Class = "double-free"
	// ClassRealloc: a volatile object is allocated twice, or resurrected
	// after its free.
	ClassRealloc Class = "realloc"
	// ClassLeak: a volatile object is allocated but never used, or stays
	// allocated past a MAP that should have recycled it.
	ClassLeak Class = "leak"
	// ClassOrderViolation: a dependence edge is ordered backwards on its
	// processor.
	ClassOrderViolation Class = "order-violation"
	// ClassWaitCycle: the cross-processor wait-for graph has a cycle — a
	// potential deadlock; the detail carries the full blocking chain.
	ClassWaitCycle Class = "wait-cycle"
	// ClassThresholdMismatch: a remote read is not gated by any arrival
	// threshold although versions of the object arrive at the processor.
	ClassThresholdMismatch Class = "threshold-mismatch"
	// ClassNotifyMismatch: a MAP's address-package Notify set disagrees
	// with the producers that actually deposit into the allocated buffers.
	ClassNotifyMismatch Class = "notify-mismatch"
	// ClassBudgetOverflow: the replayed peak exceeds the plan's capacity.
	ClassBudgetOverflow Class = "budget-overflow"
	// ClassPeakMismatch: the declared per-processor peak disagrees with
	// the symbolic replay (stale or tampered plan).
	ClassPeakMismatch Class = "peak-mismatch"
	// ClassDTSBound: a DTS schedule violates slice-monotone ordering or
	// the Theorem 2 volatile-space bound h.
	ClassDTSBound Class = "dts-bound"
)

// Finding is one verifier diagnostic, located as precisely as the defect
// allows: Proc/Pos/Task/Obj are -1 (graph.None) when not applicable.
type Finding struct {
	Class    Class        `json:"class"`
	Proc     graph.Proc   `json:"proc"`
	Pos      int32        `json:"pos"`
	Task     graph.TaskID `json:"task"`
	TaskName string       `json:"task_name,omitempty"`
	Obj      graph.ObjID  `json:"obj"`
	ObjName  string       `json:"obj_name,omitempty"`
	Detail   string       `json:"detail"`
}

// String renders the finding on one line.
func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s]", f.Class)
	if f.Proc != graph.None {
		fmt.Fprintf(&b, " P%d", f.Proc)
	}
	if f.Pos != graph.None {
		fmt.Fprintf(&b, "#%d", f.Pos)
	}
	if f.TaskName != "" {
		fmt.Fprintf(&b, " task %q", f.TaskName)
	}
	if f.ObjName != "" {
		fmt.Fprintf(&b, " object %q", f.ObjName)
	}
	b.WriteString(": ")
	b.WriteString(f.Detail)
	return b.String()
}

// maxFindings caps the findings list so a thoroughly corrupted plan cannot
// produce an unbounded report; Truncated records that the cap was hit.
const maxFindings = 100

// Result is the outcome of one verification. It is a pure function of the
// plan: the passes run in a fixed order — structure, owner-compute, order
// edges, wait-for cycles, thresholds, liveness, DTS bound — and each walks
// the plan in its own order (tasks by id, processors ascending, each
// processor's order and MAPs front to back). Where a pass reports a set —
// the objects a MAP leaks, the objects a MAP's address packages get wrong —
// it reports it in ascending (processor, object id) order. So the cap
// always keeps the same findings.
type Result struct {
	// Findings lists every detected invariant violation (capped).
	Findings []Finding
	// Truncated is true when more than maxFindings violations exist.
	Truncated bool
	// Checks counts the individual invariants checked (for reporting).
	Checks int
	// Peaks is the symbolically replayed peak memory per processor
	// (present when the structural pre-pass succeeded).
	Peaks []int64
	// Executable mirrors the plan's declared executability; liveness and
	// budget findings are only meaningful for executable plans.
	Executable bool
}

// OK reports whether the plan passed every check.
func (r *Result) OK() bool { return len(r.Findings) == 0 }

// Err returns nil for a clean plan and a one-line summary error otherwise.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	more := ""
	if len(r.Findings) > 1 {
		more = fmt.Sprintf(" (+%d more)", len(r.Findings)-1)
	}
	return fmt.Errorf("verify: %d findings: %s%s", len(r.Findings), r.Findings[0], more)
}

// Rows flattens the findings into a header + rows table for rendering
// (e.g. with trace.Grid).
func (r *Result) Rows() (cols []string, rows [][]string) {
	cols = []string{"class", "proc", "pos", "task", "object", "detail"}
	rows = make([][]string, len(r.Findings))
	cell := func(v int32, prefix string) string {
		if v == graph.None {
			return "-"
		}
		return fmt.Sprintf("%s%d", prefix, v)
	}
	for i, f := range r.Findings {
		task := f.TaskName
		if task == "" {
			task = cell(f.Task, "")
		}
		obj := f.ObjName
		if obj == "" {
			obj = cell(f.Obj, "")
		}
		rows[i] = []string{string(f.Class), cell(int32(f.Proc), "P"), cell(f.Pos, ""), task, obj, f.Detail}
	}
	return cols, rows
}

// checker carries the state shared by the analysis passes. Like the
// inspector's, every table is a slice indexed by task, object or
// (processor, object) id and sized from counts known before it is filled;
// DESIGN.md §8 lists them.
type checker struct {
	s   *sched.Schedule
	mp  *mem.Plan
	g   *graph.DAG
	res *Result
	// m is the object count.
	m int
	// pos is the position of each task recomputed from the orders (the
	// stored Pos array is itself subject to verification).
	pos []int32
	// reported lists the (class, processor, object) keys filed through
	// once; the findings cap keeps it short.
	reported []onceKey
	// volPeak is, for a DTS schedule, each processor's immediate-free
	// volatile peak; byPos is its scratch, indexed by order position.
	volPeak, byPos []int64
}

// onceKey identifies a finding that is filed at most once.
type onceKey struct {
	class Class
	p     graph.Proc
	o     graph.ObjID
}

// Check statically verifies a compiled plan: schedule structure, protocol
// wait-for acyclicity, MAP liveness, memory budget, threshold coverage and
// (for DTS schedules) the Theorem 2 bound. It never executes anything and
// never panics on malformed input.
func Check(s *sched.Schedule, mp *mem.Plan) *Result {
	c := &checker{s: s, mp: mp, res: &Result{}}
	if s != nil && mp != nil {
		c.res.Executable = mp.Executable
	}
	if !c.structural() {
		return c.res
	}
	c.g = s.G
	c.m = c.g.NumObjects()
	c.ownerCompute()
	c.orderEdges()
	c.waitFor()
	c.thresholds()
	c.liveness()
	c.dtsBound()
	return c.res
}

// CheckArtifact verifies a plan artifact: the artifact-level envelope plus
// everything Check proves. A clean result is recorded on the artifact
// (Artifact.Verified), so each plan boundary that gates on verification —
// disk-cache load, daemon admission — checks a given artifact once.
func CheckArtifact(a *plan.Artifact) *Result {
	res := &Result{}
	if a == nil {
		res.add(Finding{Class: ClassStructure, Proc: graph.None, Pos: graph.None,
			Task: graph.None, Obj: graph.None, Detail: "nil artifact"})
		return res
	}
	if a.Schedule == nil || a.Mem == nil {
		res.add(Finding{Class: ClassStructure, Proc: graph.None, Pos: graph.None,
			Task: graph.None, Obj: graph.None, Detail: "artifact missing schedule or memory plan"})
		return res
	}
	res = Check(a.Schedule, a.Mem)
	res.Checks++
	if a.Mem.Schedule != a.Schedule {
		res.add(Finding{Class: ClassStructure, Proc: graph.None, Pos: graph.None,
			Task: graph.None, Obj: graph.None,
			Detail: "memory plan refers to a different schedule than the artifact's"})
	}
	res.Checks++
	if a.Capacity != a.Mem.Capacity {
		res.add(Finding{Class: ClassStructure, Proc: graph.None, Pos: graph.None,
			Task: graph.None, Obj: graph.None,
			Detail: fmt.Sprintf("artifact capacity %d disagrees with memory plan capacity %d", a.Capacity, a.Mem.Capacity)})
	}
	if res.OK() {
		a.MarkVerified()
	}
	return res
}

// add appends a finding unless the cap is reached.
func (r *Result) add(f Finding) {
	if len(r.Findings) >= maxFindings {
		r.Truncated = true
		return
	}
	r.Findings = append(r.Findings, f)
}

// report files a finding, resolving task/object names when in range.
func (c *checker) report(f Finding) {
	if c.g != nil {
		if f.Task >= 0 && int(f.Task) < len(c.g.Tasks) {
			f.TaskName = c.g.TaskName(f.Task)
		}
		if f.Obj >= 0 && int(f.Obj) < len(c.g.Objects) {
			f.ObjName = c.g.Objects[f.Obj].Name
		}
	}
	c.res.add(f)
}

// once reports whether a finding of class about object o on processor p is
// to be filed: the first is, its repeats are not — liveness defects would
// otherwise repeat at every later use. Callers format a finding only when
// once says it is filed.
func (c *checker) once(class Class, p graph.Proc, o graph.ObjID) bool {
	if c.res.Truncated {
		return false // nothing more is filed
	}
	k := onceKey{class, p, o}
	for _, r := range c.reported {
		if r == k {
			return false
		}
	}
	c.reported = append(c.reported, k)
	return true
}

// check counts one invariant check.
func (c *checker) check() { c.res.Checks++ }

// ownerCompute checks the owner-compute precondition of the active memory
// scheme: tasks write only objects owned by their processor.
func (c *checker) ownerCompute() {
	for t := range c.g.Tasks {
		c.check()
		for _, o := range c.g.Writes(graph.TaskID(t)) {
			if c.g.Objects[o].Owner != c.s.Assign[t] {
				c.report(Finding{Class: ClassStructure, Proc: c.s.Assign[t], Pos: c.pos[t],
					Task: graph.TaskID(t), Obj: o,
					Detail: fmt.Sprintf("owner-compute violated: writes object owned by processor %d", c.g.Objects[o].Owner)})
			}
		}
	}
}
