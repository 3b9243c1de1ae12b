package graph

import (
	"fmt"
	"slices"
)

// CheckDependenceComplete verifies the dependence-completeness property the
// paper's data-consistency proof relies on: for every pair of tasks that
// access a common object with at least one writer, there must be a
// dependence path between them — unless both are writers belonging to the
// same commutative group (their serialization is chosen by the owner
// processor's schedule, which is legal precisely because they commute).
//
// The check is O(v·e/64) time and O(v²/64) transient memory per topological
// wavefront; it is intended for tests and for validating API-built graphs,
// not for the inner scheduling loop.
func (g *DAG) CheckDependenceComplete() error {
	order, err := g.TopoSort()
	if err != nil {
		return err
	}
	n := len(g.Tasks)
	topoIdx := make([]int32, n)
	for i, t := range order {
		topoIdx[t] = int32(i)
	}

	// reachTo[t] = set of tasks that can reach t (ancestors), built along the
	// topological order as bitsets.
	words := (n + 63) / 64
	reach := make([][]uint64, n)
	for _, t := range order {
		row := make([]uint64, words)
		for _, e := range g.In(t) {
			row[e.From>>6] |= 1 << uint(e.From&63)
			for wi, w := range reach[e.From] {
				row[wi] |= w
			}
		}
		reach[t] = row
	}
	connected := func(a, b TaskID) bool {
		if topoIdx[a] > topoIdx[b] {
			a, b = b, a
		}
		return reach[b][a>>6]&(1<<uint(a&63)) != 0
	}

	readers, writers := g.Accessors()
	for o := range g.Objects {
		ws := writers[o]
		for i := 0; i < len(ws); i++ {
			for j := i + 1; j < len(ws); j++ {
				a, b := ws[i], ws[j]
				if g.Tasks[a].Commutative && g.Tasks[b].Commutative {
					continue
				}
				if !connected(a, b) {
					return fmt.Errorf("graph: not dependence complete: writers %q and %q of object %q are unordered",
						g.TaskName(a), g.TaskName(b), g.Objects[o].Name)
				}
			}
			for _, r := range readers[o] {
				if r == ws[i] {
					continue
				}
				if g.Tasks[r].Commutative && g.Tasks[ws[i]].Commutative && slices.Contains(g.Writes(r), ObjID(o)) {
					continue
				}
				if !connected(ws[i], r) {
					return fmt.Errorf("graph: not dependence complete: writer %q and reader %q of object %q are unordered",
						g.TaskName(ws[i]), g.TaskName(r), g.Objects[o].Name)
				}
			}
		}
	}
	return nil
}
