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
type Task struct {
	ID          TaskID
	Name        string
	Cost        float64
	Reads       []ObjID
	Writes      []ObjID
	Commutative bool
}

// DAG is a transformed task dependence graph: acyclic, with true-dependence
// edges labelled by data objects plus optional pure precedence edges.
type DAG struct {
	Tasks   []Task
	Objects []Object

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
func (g *DAG) NumAccesses() int {
	n := 0
	for t := range g.Tasks {
		n += len(g.Tasks[t].Reads) + len(g.Tasks[t].Writes)
	}
	return n
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

// NewDAG builds a DAG over the given tasks and objects from its complete
// edge list, which it keeps. Every endpoint must be a task id in range (the
// builder's are by construction; the plan decoder checks before it calls);
// callers run Validate on graphs built from outside input.
//
// Adjacency-list order is observable — schedulers, the plan codec and the
// protocol tables iterate Out and In — and is the order of edges: Out(t)
// lists t's out-edges, and In(t) its in-edges, in the order they appear
// there. Both degrees of every task are counted before an edge is placed,
// so each side is one allocation filled in one sweep; and a side the list
// is already grouped by — the decoder reads edges source by source, the
// builder finds them target by target — is the list itself.
func NewDAG(tasks []Task, objects []Object, edges []Edge) *DAG {
	n := len(tasks)
	g := &DAG{Tasks: tasks, Objects: objects, outOff: make([]int32, n+1), inOff: make([]int32, n+1)}
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
	g.outEdges, g.inEdges = edges, edges
	if !byFrom {
		g.outEdges = grouped(g.outOff, false)
	}
	if !byTo {
		g.inEdges = grouped(g.inOff, true)
	}
	return g
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

// Validate checks structural invariants: edge endpoints in range, object
// references in range, acyclicity.
func (g *DAG) Validate() error {
	n := int32(len(g.Tasks))
	m := int32(len(g.Objects))
	for ti := range g.Tasks {
		t := &g.Tasks[ti]
		if t.ID != TaskID(ti) {
			return fmt.Errorf("graph: task %d has ID %d", ti, t.ID)
		}
		for _, o := range t.Reads {
			if o < 0 || o >= m {
				return fmt.Errorf("graph: task %q reads out-of-range object %d", t.Name, o)
			}
		}
		for _, o := range t.Writes {
			if o < 0 || o >= m {
				return fmt.Errorf("graph: task %q writes out-of-range object %d", t.Name, o)
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
		t := &g.Tasks[ti]
		for _, o := range t.Reads {
			readers[o] = append(readers[o], t.ID)
		}
		for _, o := range t.Writes {
			writers[o] = append(writers[o], t.ID)
		}
	}
	return readers, writers
}
