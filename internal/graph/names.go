package graph

import (
	"slices"
	"strconv"
)

// Names formats task names of the form op(i,j,…) — what the block
// factorizations call their tasks — into one backing string, so naming a
// program's tasks costs a handful of allocations, not one or more per task.
// Add the names in task order while declaring the tasks (with an empty
// name), then Apply them to the built graph's tasks.
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

// Apply names tasks[i] with the i-th name added.
func (n *Names) Apply(tasks []Task) {
	all := string(n.buf)
	lo := int32(0)
	for i, hi := range n.ends {
		tasks[i].Name = all[lo:hi]
		lo = hi
	}
}
