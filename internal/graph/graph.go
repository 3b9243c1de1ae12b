// Package graph implements the task-parallelism model of Fu & Yang
// (PPoPP'97): directed acyclic task graphs with mixed granularities over a
// set of distinct data objects. It provides
//
//   - construction of data dependence graphs (DDG) from a sequential task
//     stream with read/write sets (true, anti and output dependencies),
//   - the transformation to a true-dependence-only DAG (anti/output edges
//     that are subsumed by true-dependence paths are dropped, the rest are
//     kept as pure precedence edges),
//   - commutative task groups (e.g. the accumulating update tasks of sparse
//     factorizations) which are left mutually unordered,
//   - critical-path metrics (top and bottom levels) parameterized by a
//     communication cost function,
//   - topological sorting, strongly-connected components (for the DTS data
//     connection graph) and the dependence-completeness check used by the
//     paper's data-consistency argument.
package graph

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/util"
)

// TaskID identifies a task within a DAG.
type TaskID = int32

// ObjID identifies a data object within a DAG.
type ObjID = int32

// Proc identifies a (virtual) processor.
type Proc = int32

// None marks an absent task/object/processor.
const None int32 = -1

// DepKind classifies a dependence edge.
type DepKind uint8

const (
	// DepTrue is a flow (read-after-write) dependence; the edge carries the
	// labelled data object from producer to consumer.
	DepTrue DepKind = iota
	// DepAnti is a write-after-read dependence.
	DepAnti
	// DepOutput is a write-after-write dependence.
	DepOutput
	// DepPrec is a pure precedence edge retained after transformation for an
	// anti/output dependence that could not be subsumed.
	DepPrec
)

func (k DepKind) String() string {
	switch k {
	case DepTrue:
		return "true"
	case DepAnti:
		return "anti"
	case DepOutput:
		return "output"
	case DepPrec:
		return "prec"
	}
	return "?"
}

// Edge is a dependence edge. For DepTrue edges Obj is the data object whose
// value flows along the edge; for other kinds Obj records the conflicting
// object (informational).
type Edge struct {
	From, To TaskID
	Obj      ObjID
	Kind     DepKind
}

// Object is a distinct data object. Size is in abstract memory units (the
// applications use the number of float64 entries of a block). Owner is the
// processor that holds the object permanently; it is graph.None until a
// mapping assigns it.
type Object struct {
	ID    ObjID
	Name  string
	Size  int64
	Owner Proc
}

// Task is a unit of computation reading and writing subsets of the data
// objects. Cost is in abstract work units (the applications use flops).
// Commutative tasks writing the same object in a consecutive program-order
// run are left mutually unordered by the DDG builder.
//
// A task is a 16-byte value with no pointer in it: its read and write
// lists and its name are ranges of DAG-wide tables, read through
// DAG.Reads, DAG.Writes and DAG.TaskName. So a graph of any size is a
// handful of allocations, and a cached one costs the collector nothing per
// task.
type Task struct {
	Cost        float64
	ID          TaskID
	Commutative bool
}

// Accesses is a task graph's read and write lists in one table, in task
// order: task t reads IDs[Off[2t]:Off[2t+1]] and writes
// IDs[Off[2t+1]:Off[2t+2]]. The zero value is an empty table; Add appends
// the next task's lists.
type Accesses struct {
	IDs []ObjID
	Off []int32
}

// Grow makes room for the lists of the given number of further tasks,
// with the given number of entries in all of them together.
func (a *Accesses) Grow(tasks, accesses int) {
	a.IDs = slices.Grow(a.IDs, accesses)
	a.Off = slices.Grow(a.Off, 2*tasks+1)
}

// Add appends the next task's read and write lists.
func (a *Accesses) Add(reads, writes []ObjID) {
	if len(a.Off) == 0 {
		a.Off = append(a.Off, 0)
	}
	a.IDs = append(a.IDs, reads...)
	a.Off = append(a.Off, int32(len(a.IDs)))
	a.IDs = append(a.IDs, writes...)
	a.Off = append(a.Off, int32(len(a.IDs)))
}

func (a *Accesses) reads(t TaskID) []ObjID {
	lo, hi := a.Off[2*t], a.Off[2*t+1]
	return a.IDs[lo:hi:hi]
}

func (a *Accesses) writes(t TaskID) []ObjID {
	lo, hi := a.Off[2*t+1], a.Off[2*t+2]
	return a.IDs[lo:hi:hi]
}

// DAG is a transformed task dependence graph: acyclic, with true-dependence
// edges labelled by data objects plus optional pure precedence edges.
type DAG struct {
	Tasks   []Task
	Objects []Object

	// acc holds every task's reads and writes; names holds the task names
	// back to back, task t's ending at nameEnd[t]. A task past the end of
	// nameEnd (every task, in a graph nobody named) is unnamed.
	acc     Accesses
	names   string
	nameEnd []int32

	// The adjacency lists, flat: task t's out-edges are
	// outEdges[outOff[t]:outOff[t+1]] and its in-edges
	// inEdges[inOff[t]:inOff[t+1]].
	outOff, inOff     []int32
	outEdges, inEdges []Edge
}

// NumTasks returns the number of tasks.
func (g *DAG) NumTasks() int { return len(g.Tasks) }

// NumObjects returns the number of data objects.
func (g *DAG) NumObjects() int { return len(g.Objects) }

// NumAccesses returns the number of entries in all tasks' read and write
// lists together: the bound the schedulers size their per-access tables by.
func (g *DAG) NumAccesses() int { return len(g.acc.IDs) }

// Reads returns the objects task t reads. The slice must not be modified.
func (g *DAG) Reads(t TaskID) []ObjID { return g.acc.reads(t) }

// Writes returns the objects task t writes. The slice must not be
// modified.
func (g *DAG) Writes(t TaskID) []ObjID { return g.acc.writes(t) }

// Accesses returns task t's reads followed by its writes: both lists in
// one slice, for the sweeps that treat every access alike. The slice must
// not be modified.
func (g *DAG) Accesses(t TaskID) []ObjID {
	lo, hi := g.acc.Off[2*t], g.acc.Off[2*t+2]
	return g.acc.IDs[lo:hi:hi]
}

// TaskName returns task t's name, or "" if it has none.
func (g *DAG) TaskName(t TaskID) string {
	if int(t) >= len(g.nameEnd) {
		return ""
	}
	lo := int32(0)
	if t > 0 {
		lo = g.nameEnd[t-1]
	}
	return g.names[lo:g.nameEnd[t]]
}

// NumEdges returns the number of dependence edges.
func (g *DAG) NumEdges() int { return len(g.outEdges) }

// Out returns the out-edges of task t. The slice must not be modified.
func (g *DAG) Out(t TaskID) []Edge {
	lo, hi := g.outOff[t], g.outOff[t+1]
	return g.outEdges[lo:hi:hi]
}

// In returns the in-edges of task t. The slice must not be modified.
func (g *DAG) In(t TaskID) []Edge {
	lo, hi := g.inOff[t], g.inOff[t+1]
	return g.inEdges[lo:hi:hi]
}

// Bytes is the heap the graph keeps live: its task, object, access,
// name and edge tables and the objects' names. It costs one step per
// table and per object, none per task. An edge list that is both sides
// of the adjacency (NewDAG keeps a list grouped both ways as it is) is
// counted once.
func (g *DAG) Bytes() int64 {
	n := int64(unsafe.Sizeof(*g)) + util.SliceBytes(g.Tasks) + util.SliceBytes(g.Objects) +
		util.SliceBytes(g.acc.IDs) + util.SliceBytes(g.acc.Off) +
		int64(len(g.names)) + util.SliceBytes(g.nameEnd) +
		util.SliceBytes(g.outOff) + util.SliceBytes(g.inOff) + util.SliceBytes(g.outEdges)
	if unsafe.SliceData(g.inEdges) != unsafe.SliceData(g.outEdges) {
		n += util.SliceBytes(g.inEdges)
	}
	for i := range g.Objects {
		n += int64(len(g.Objects[i].Name))
	}
	return n
}

// NewDAG builds a DAG over the given tasks and objects from their access
// table, their names and the complete edge list, all of which it keeps.
// The access table must hold one pair of lists per task, and every edge
// endpoint must be a task id in range (the builder's are by construction;
// the plan decoder checks before it calls); callers run Validate on
// graphs built from outside input.
//
// Adjacency-list order is observable — schedulers, the plan codec and the
// protocol tables iterate Out and In — and is the order of edges: Out(t)
// lists t's out-edges, and In(t) its in-edges, in the order they appear
// there. Both degrees of every task are counted before an edge is placed,
// so each side is one allocation filled in one sweep; and a side the list
// is already grouped by — the decoder reads edges source by source, the
// builder finds them target by target — is the list itself. The graph
// keeps what it is handed as long as it lives, so a table or list with
// room to spare (an estimate's, or append's) is copied to its length.
func NewDAG(tasks []Task, objects []Object, acc Accesses, names Names, edges []Edge) *DAG {
	n := len(tasks)
	if len(acc.Off) == 0 {
		acc.Off = []int32{0}
	}
	acc.IDs, acc.Off = fit(acc.IDs), fit(acc.Off)
	g := &DAG{Tasks: tasks, Objects: objects, acc: acc, nameEnd: fit(names.ends),
		outOff: make([]int32, n+1), inOff: make([]int32, n+1)}
	if len(names.buf) > 0 {
		g.names = string(names.buf)
	}
	byFrom, byTo := true, true
	for i := range edges {
		e := &edges[i]
		g.outOff[e.From+1]++
		g.inOff[e.To+1]++
		if i > 0 {
			byFrom = byFrom && edges[i-1].From <= e.From
			byTo = byTo && edges[i-1].To <= e.To
		}
	}
	for t := 0; t < n; t++ {
		g.outOff[t+1] += g.outOff[t]
		g.inOff[t+1] += g.inOff[t]
	}
	// grouped scatters the edges into the lists the offsets off describe,
	// keyed by source or by target.
	grouped := func(off []int32, byTarget bool) []Edge {
		list := make([]Edge, len(edges))
		next := slices.Clone(off[:n])
		for _, e := range edges {
			t := e.From
			if byTarget {
				t = e.To
			}
			list[next[t]] = e
			next[t]++
		}
		return list
	}
	if byFrom || byTo {
		edges = fit(edges)
	}
	g.outEdges, g.inEdges = edges, edges
	if !byFrom {
		g.outEdges = grouped(g.outOff, false)
	}
	if !byTo {
		g.inEdges = grouped(g.inOff, true)
	}
	return g
}

// fit returns s, or a copy of it without spare capacity if s has some.
func fit[S ~[]E, E any](s S) S {
	if cap(s) == len(s) {
		return s
	}
	return append(make(S, 0, len(s)), s...)
}

// TopoSort returns a topological order of the tasks, or an error if the
// graph contains a cycle.
func (g *DAG) TopoSort() ([]TaskID, error) {
	n := len(g.Tasks)
	indeg := make([]int32, n)
	for t := 0; t < n; t++ {
		indeg[t] = g.inOff[t+1] - g.inOff[t]
	}
	order := make([]TaskID, 0, n)
	queue := make([]TaskID, 0, n)
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, TaskID(t))
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		order = append(order, t)
		for _, e := range g.Out(t) {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("graph: cycle detected (%d of %d tasks ordered)", len(order), n)
	}
	return order, nil
}

// Validate checks structural invariants: one pair of access lists per
// task, edge endpoints in range, object references in range, acyclicity.
func (g *DAG) Validate() error {
	n := int32(len(g.Tasks))
	m := int32(len(g.Objects))
	if len(g.acc.Off) != 2*len(g.Tasks)+1 || len(g.nameEnd) > len(g.Tasks) {
		return fmt.Errorf("graph: access or name table does not match %d tasks", n)
	}
	for ti := range g.Tasks {
		if id := g.Tasks[ti].ID; id != TaskID(ti) {
			return fmt.Errorf("graph: task %d has ID %d", ti, id)
		}
		for _, o := range g.Reads(TaskID(ti)) {
			if o < 0 || o >= m {
				return fmt.Errorf("graph: task %q reads out-of-range object %d", g.TaskName(TaskID(ti)), o)
			}
		}
		for _, o := range g.Writes(TaskID(ti)) {
			if o < 0 || o >= m {
				return fmt.Errorf("graph: task %q writes out-of-range object %d", g.TaskName(TaskID(ti)), o)
			}
		}
	}
	for ti := range g.Tasks {
		for _, e := range g.Out(TaskID(ti)) {
			if e.From != TaskID(ti) {
				return fmt.Errorf("graph: edge %v stored under task %d", e, ti)
			}
			if e.To < 0 || e.To >= n {
				return fmt.Errorf("graph: edge %v has out-of-range head", e)
			}
			if e.Kind == DepTrue && (e.Obj < 0 || e.Obj >= m) {
				return fmt.Errorf("graph: true edge %v has no object", e)
			}
		}
	}
	if _, err := g.TopoSort(); err != nil {
		return err
	}
	return nil
}

// Accessors returns, for every object, the IDs of the tasks that read it and
// the tasks that write it, in task-ID order.
func (g *DAG) Accessors() (readers, writers [][]TaskID) {
	readers = make([][]TaskID, len(g.Objects))
	writers = make([][]TaskID, len(g.Objects))
	for ti := range g.Tasks {
		t := TaskID(ti)
		for _, o := range g.Reads(t) {
			readers[o] = append(readers[o], t)
		}
		for _, o := range g.Writes(t) {
			writers[o] = append(writers[o], t)
		}
	}
	return readers, writers
}
