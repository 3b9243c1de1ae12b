package graph

import (
	"slices"
	"strconv"
)

// Names is a task graph's name table: every task's name in one backing
// buffer, so naming a program's tasks costs a handful of allocations, not
// one or more per task. Names are added in task order; a DAG keeps the
// table (NewDAG, Apply) and hands each name out with DAG.TaskName. Add
// formats names of the form op(i,j,…) — what the block factorizations call
// their tasks — so those declare their tasks with an empty name and Apply
// their table to the built graph.
type Names struct {
	buf  []byte
	ends []int32
}

// Grow makes room for the names of the given number of further tasks, at
// the sixteen bytes a block factorization's name rarely exceeds; longer
// names still fit, by growing.
func (n *Names) Grow(tasks int) {
	n.buf = slices.Grow(n.buf, 16*tasks)
	n.ends = slices.Grow(n.ends, tasks)
}

// Add formats the next task's name.
func (n *Names) Add(op string, idx ...int32) {
	n.buf = append(append(n.buf, op...), '(')
	for i, v := range idx {
		if i > 0 {
			n.buf = append(n.buf, ',')
		}
		n.buf = strconv.AppendInt(n.buf, int64(v), 10)
	}
	n.buf = append(n.buf, ')')
	n.ends = append(n.ends, int32(len(n.buf)))
}

// Append adds the next task's name as it is.
func (n *Names) Append(name string) {
	n.buf = append(n.buf, name...)
	n.ends = append(n.ends, int32(len(n.buf)))
}

// set names task t, leaving the tasks between the last named one and t
// unnamed. A builder whose tasks carry no names so keeps no table.
func (n *Names) set(t TaskID, name string) {
	for len(n.ends) < int(t) {
		n.ends = append(n.ends, int32(len(n.buf)))
	}
	n.Append(name)
}

// Apply makes the table g's names: the i-th name added names task i.
func (n *Names) Apply(g *DAG) {
	g.names, g.nameEnd = string(n.buf), n.ends
}
