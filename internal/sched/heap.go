package sched

import "repro/internal/graph"

// taskHeap is a binary min-heap of tasks keyed by a lexicographic
// (k1, k2, id) triple; schedulers negate "higher is better" priorities so
// the heap top is the best candidate. Updatable by task id: pos[t] is task
// t's index in the heap that holds it, -1 in none. A task sits in one heap
// at a time — its processor's ready list — so the p heaps of a scheduling
// run share one pos table indexed by task id.
type taskHeap struct {
	items []heapItem
	pos   []int32
}

type heapItem struct {
	id     graph.TaskID
	k1, k2 float64
}

func (a *heapItem) less(b *heapItem) bool {
	if a.k1 != b.k1 {
		return a.k1 < b.k1
	}
	if a.k2 != b.k2 {
		return a.k2 < b.k2
	}
	return a.id < b.id
}

// newTaskHeaps returns p empty heaps over tasks 0..n-1.
func newTaskHeaps(p, n int) []taskHeap {
	pos := make([]int32, n)
	for t := range pos {
		pos[t] = -1
	}
	heaps := make([]taskHeap, p)
	for q := range heaps {
		heaps[q].pos = pos
	}
	return heaps
}

func (h *taskHeap) Len() int { return len(h.items) }

func (h *taskHeap) Top() graph.TaskID { return h.items[0].id }

func (h *taskHeap) Push(id graph.TaskID, k1, k2 float64) {
	h.items = append(h.items, heapItem{})
	h.up(len(h.items)-1, heapItem{id, k1, k2})
}

func (h *taskHeap) Pop() graph.TaskID {
	id := h.items[0].id
	n := len(h.items) - 1
	last := h.items[n]
	h.items = h.items[:n]
	h.pos[id] = -1
	if n > 0 {
		h.down(0, last)
	}
	return id
}

// Update changes the keys of id if present.
func (h *taskHeap) Update(id graph.TaskID, k1, k2 float64) {
	i := int(h.pos[id])
	if i < 0 {
		return
	}
	it := heapItem{id, k1, k2}
	if i > 0 && it.less(&h.items[(i-1)/2]) {
		h.up(i, it)
	} else {
		h.down(i, it)
	}
}

// place stores it at index i.
func (h *taskHeap) place(i int, it heapItem) {
	h.items[i] = it
	h.pos[it.id] = int32(i)
}

// up settles it at or above the free index i, moving parents down into
// the gap as it rises.
func (h *taskHeap) up(i int, it heapItem) {
	for i > 0 {
		p := (i - 1) / 2
		if !it.less(&h.items[p]) {
			break
		}
		h.place(i, h.items[p])
		i = p
	}
	h.place(i, it)
}

// down settles it at or below the free index i, moving the smaller child
// up into the gap as it sinks.
func (h *taskHeap) down(i int, it heapItem) {
	n := len(h.items)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.items[r].less(&h.items[c]) {
			c = r
		}
		if !h.items[c].less(&it) {
			break
		}
		h.place(i, h.items[c])
		i = c
	}
	h.place(i, it)
}
