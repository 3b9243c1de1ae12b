package graph

import (
	"fmt"
	"slices"
)

// Builder constructs a transformed task dependence graph from a sequential
// stream of task declarations. Dependencies are derived from the read/write
// sets exactly as a data dependence graph would record them (true, anti,
// output), and the Build step performs the transformation of Section 2 of
// the paper: anti and output edges subsumed by true-dependence paths are
// removed; the remainder are retained as pure precedence edges so the
// resulting DAG is always safe to execute.
//
// Commutative tasks: a maximal consecutive run of tasks declared with
// Commutative=true that write the same object is treated as a commuting
// group. Tasks inside the group are not ordered against each other; the
// group as a whole is ordered against earlier and later accessors of the
// object. This captures the accumulating update operations of sparse
// factorizations.
type Builder struct {
	tasks   []Task
	objects []Object

	// acc and names are the tables the built graph keeps: every task's
	// read and write lists, and the names of the tasks declared with one.
	acc   Accesses
	names Names

	objNames map[string]ObjID
	// sizeConflict is the first redeclaration of an object with another
	// size; Build reports it.
	sizeConflict error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{objNames: make(map[string]ObjID)}
}

// Grow makes room for the given number of further tasks and of entries in
// their read and write lists together, so that declaring them allocates
// nothing. A caller that knows its program's size (the factorizations read
// it off the symbolic structure) calls it once; the counts are a hint, not
// a limit.
func (b *Builder) Grow(tasks, accesses int) {
	b.tasks = slices.Grow(b.tasks, tasks)
	b.acc.Grow(tasks, accesses)
}

// Object declares a data object with the given name and size (memory
// units) and returns its ID. Declaring the same name twice is an error at
// Build time if the sizes differ; otherwise the original ID is returned.
func (b *Builder) Object(name string, size int64) ObjID {
	if id, ok := b.objNames[name]; ok {
		if first := b.objects[id].Size; first != size && b.sizeConflict == nil {
			b.sizeConflict = fmt.Errorf("graph: object %q declared with size %d and again with size %d", name, first, size)
		}
		return id
	}
	id := ObjID(len(b.objects))
	b.objects = append(b.objects, Object{ID: id, Name: name, Size: size, Owner: None})
	b.objNames[name] = id
	return id
}

// Task appends a task to the sequential program. Reads and writes may
// overlap (read-modify-write).
func (b *Builder) Task(name string, cost float64, reads, writes []ObjID) TaskID {
	return b.addTask(name, cost, reads, writes, false)
}

// CommutativeTask appends a task that commutes with adjacent commutative
// tasks writing the same objects.
func (b *Builder) CommutativeTask(name string, cost float64, reads, writes []ObjID) TaskID {
	return b.addTask(name, cost, reads, writes, true)
}

func (b *Builder) addTask(name string, cost float64, reads, writes []ObjID, comm bool) TaskID {
	id := TaskID(len(b.tasks))
	b.tasks = append(b.tasks, Task{ID: id, Cost: cost, Commutative: comm})
	b.acc.Add(reads, writes)
	if name != "" {
		b.names.set(id, name)
	}
	return id
}

// NumTasks returns the number of tasks declared so far.
func (b *Builder) NumTasks() int { return len(b.tasks) }

// chain is a FIFO of task ids threaded through the scan's node pool: the
// per-object writer and reader lists of Build. head and tail index the
// pool; 0 is the empty chain (the pool's slot 0 is never used). A chain is
// emptied, or moved to another field, by assigning the struct; its nodes
// stay behind in the pool.
type chain struct{ head, tail int32 }

type chainNode struct {
	task TaskID
	next int32
}

// objScan is the scan state of one object.
type objScan struct {
	// lastWriters holds the most recent writing group: a single task, or
	// all members of an open commutative group.
	lastWriters chain
	// readersSince holds tasks that read the object after the last write.
	readersSince chain
	// groupPreds / groupAntiPreds hold the writers and readers that
	// preceded the currently-open commutative group, so that tasks
	// joining the group later are still ordered after them.
	groupPreds, groupAntiPreds chain
	commOpen                   bool
}

// scan is the working state of one Build. Every table is indexed by a
// task or object id and sized from a count Build knows before the sweep
// starts; the sweep itself allocates only when edges outgrows its estimate.
type scan struct {
	obj []objScan
	// pool holds the chains' nodes. A read or write of an object links at
	// most one node, so the access count bounds it.
	pool []chainNode
	// seen deduplicates (from, to) pairs. Every dependence found while
	// scanning task t ends at t, so one stamp per source does: seen[from]
	// is 2(t+1), plus 1 if the recorded dependence is a true one, while
	// from → t is recorded, and names an earlier t otherwise.
	seen []int32
	// edges collects the true dependences, in discovery order; those into
	// task t are edges[trueOff[t]:trueOff[t+1]]. weak collects the anti and
	// output dependences.
	edges, weak []Edge
	trueOff     []int32
	// mark and stack serve subsumed.
	mark  []int32
	stamp int32
	stack []TaskID
}

func (sc *scan) push(c *chain, t TaskID) {
	sc.pool = append(sc.pool, chainNode{task: t})
	i := int32(len(sc.pool) - 1)
	if c.tail != 0 {
		sc.pool[c.tail].next = i
	} else {
		c.head = i
	}
	c.tail = i
}

// add records the dependence from → to on obj unless the pair already has
// one at least as strong: a true dependence dominates, and only the
// strongest kind of a pair is kept. (An anti or output dependence recorded
// before the pair's true one stays in weak; its true edge subsumes it.)
func (sc *scan) add(from, to TaskID, obj ObjID, kind DepKind) {
	if from == to {
		return
	}
	stamp := 2 * (to + 1)
	if prev := sc.seen[from]; prev&^1 == stamp && (prev&1 == 1 || kind != DepTrue) {
		return
	}
	e := Edge{From: from, To: to, Obj: obj, Kind: kind}
	if kind == DepTrue {
		sc.seen[from] = stamp | 1
		sc.edges = append(sc.edges, e)
	} else {
		sc.seen[from] = stamp
		sc.weak = append(sc.weak, e)
	}
}

// addAll records a dependence of the given kind from every task of c.
func (sc *scan) addAll(c chain, to TaskID, obj ObjID, kind DepKind) {
	for i := c.head; i != 0; i = sc.pool[i].next {
		sc.add(sc.pool[i].task, to, obj, kind)
	}
}

// subsumed reports whether a path of true dependences leads from from to
// to. Dependences run forward in program order, so from < to and no task
// before from lies on such a path: the search walks true in-edges back
// from to and prunes below from. Queries are local (producer and consumer
// close in program order), so it stays short.
func (sc *scan) subsumed(from, to TaskID) bool {
	sc.stamp++
	sc.mark[to] = sc.stamp
	sc.stack = append(sc.stack[:0], to)
	for len(sc.stack) > 0 {
		v := sc.stack[len(sc.stack)-1]
		sc.stack = sc.stack[:len(sc.stack)-1]
		for _, e := range sc.edges[sc.trueOff[v]:sc.trueOff[v+1]] {
			if e.From == from {
				return true
			}
			if e.From < from || sc.mark[e.From] == sc.stamp {
				continue
			}
			sc.mark[e.From] = sc.stamp
			sc.stack = append(sc.stack, e.From)
		}
	}
	return false
}

// Build derives the DDG, applies the transformation and returns the
// resulting DAG. The returned graph owns the task and object slices and
// the access and name tables.
//
// Build is deterministic: dependencies are discovered by a single scan in
// program order and edges are inserted in discovery order — the true ones
// first, then the retained precedence edges — so two Builds of the same
// declaration sequence produce DAGs with identical adjacency-list orders.
// (The one map here, name lookup, never drives iteration.) Plan content
// addressing relies on this invariant; see internal/plan.
func (b *Builder) Build() (*DAG, error) {
	if b.sizeConflict != nil {
		return nil, b.sizeConflict
	}
	n := len(b.tasks)
	sc := &scan{
		obj:     make([]objScan, len(b.objects)),
		pool:    make([]chainNode, 1, len(b.acc.IDs)+1),
		seen:    make([]int32, n),
		edges:   make([]Edge, 0, len(b.acc.IDs)),
		trueOff: make([]int32, n+1),
	}
	for ti := range b.tasks {
		t := &b.tasks[ti]
		reads, writes := b.acc.reads(t.ID), b.acc.writes(t.ID)
		sc.trueOff[ti] = int32(len(sc.edges))
		for _, o := range reads {
			rmw := slices.Contains(writes, o)
			if rmw && t.Commutative {
				// Read-modify-write inside a commutative group: ordering is
				// handled by the write scan against the pre-group writers,
				// not against the other (commuting) group members.
				continue
			}
			s := &sc.obj[o]
			sc.addAll(s.lastWriters, t.ID, o, DepTrue)
			if !rmw {
				sc.push(&s.readersSince, t.ID)
				// A plain read consumes the accumulated value: any open
				// commutative group on o is closed so that writers declared
				// later are ordered after this reader, whatever the
				// reader's own commutativity (it may belong to a group on a
				// different object).
				s.commOpen = false
			}
		}
		for _, o := range writes {
			s := &sc.obj[o]
			if t.Commutative && s.commOpen {
				// Member of the open commutative group: unordered against the
				// other members, but still ordered after everything that
				// preceded the group.
				sc.addAll(s.groupPreds, t.ID, o, DepTrue)
				sc.addAll(s.groupAntiPreds, t.ID, o, DepAnti)
				sc.push(&s.lastWriters, t.ID)
				continue
			}
			// Close out the previous writers/readers.
			sc.addAll(s.readersSince, t.ID, o, DepAnti)
			kind := DepOutput
			if slices.Contains(reads, o) {
				kind = DepTrue // read-modify-write: value flows
			}
			sc.addAll(s.lastWriters, t.ID, o, kind)
			if t.Commutative {
				// Opening a new group: remember what preceded it.
				s.groupPreds, s.groupAntiPreds = s.lastWriters, s.readersSince
			}
			s.readersSince, s.lastWriters = chain{}, chain{}
			sc.push(&s.lastWriters, t.ID)
			s.commOpen = t.Commutative
		}
	}
	sc.trueOff[n] = int32(len(sc.edges))

	// Transformation: drop anti/output edges subsumed by a true-dependence
	// path; keep the rest as precedence edges.
	if len(sc.weak) > 0 {
		sc.mark = make([]int32, n)
	}
	for _, d := range sc.weak {
		if !sc.subsumed(d.From, d.To) {
			d.Kind = DepPrec
			sc.edges = append(sc.edges, d)
		}
	}
	g := NewDAG(b.tasks, b.objects, b.acc, b.names, sc.edges)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}
