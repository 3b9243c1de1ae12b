package sched

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// CyclicOwners assigns object i to processor i mod p (the paper's worked
// example uses owner(d_i) = (i-1) mod p, which is the same rule on 0-based
// IDs). It mutates the graph's Owner fields and returns the graph.
func CyclicOwners(g *graph.DAG, p int) *graph.DAG {
	for i := range g.Objects {
		g.Objects[i].Owner = graph.Proc(i % p)
	}
	return g
}

// OwnerComputeAssign assigns each task to the owner of the object it
// writes (the owner-compute rule). Tasks that write nothing run on the
// owner of their first read. All written objects of a task must share an
// owner; otherwise an error is returned.
func OwnerComputeAssign(g *graph.DAG, p int) ([]graph.Proc, error) {
	assign := make([]graph.Proc, g.NumTasks())
	for ti := range g.Tasks {
		t := graph.TaskID(ti)
		proc := graph.Proc(-1)
		for _, o := range g.Writes(t) {
			own := g.Objects[o].Owner
			if own < 0 {
				return nil, fmt.Errorf("sched: object %q has no owner", g.Objects[o].Name)
			}
			if proc >= 0 && own != proc {
				return nil, fmt.Errorf("sched: task %q writes objects with different owners (%d and %d)", g.TaskName(t), proc, own)
			}
			proc = own
		}
		if proc < 0 {
			reads := g.Reads(t)
			if len(reads) == 0 {
				return nil, fmt.Errorf("sched: task %q accesses no objects", g.TaskName(t))
			}
			proc = g.Objects[reads[0]].Owner
		}
		if proc < 0 || int(proc) >= p {
			return nil, fmt.Errorf("sched: task %q assigned to invalid processor %d", g.TaskName(t), proc)
		}
		assign[ti] = proc
	}
	return assign, nil
}

// LoadBalancedOwners clusters tasks by the object they write (owner-compute
// clusters), then maps clusters to processors with the
// largest-processing-time-first rule so per-processor work is balanced.
// Object owners are set from the resulting cluster placement. Objects that
// are never written are distributed cyclically.
func LoadBalancedOwners(g *graph.DAG, p int) *graph.DAG {
	type cluster struct {
		obj  graph.ObjID
		work float64
	}
	clusters := make([]cluster, 0, g.NumObjects())
	work := make([]float64, g.NumObjects())
	written := make([]bool, g.NumObjects())
	for ti := range g.Tasks {
		writes := g.Writes(graph.TaskID(ti))
		if len(writes) == 0 {
			continue
		}
		work[writes[0]] += g.Tasks[ti].Cost
		for _, w := range writes {
			written[w] = true
		}
	}
	for o := range g.Objects {
		if written[o] {
			clusters = append(clusters, cluster{graph.ObjID(o), work[o]})
		}
	}
	sort.Slice(clusters, func(i, j int) bool {
		if clusters[i].work != clusters[j].work {
			return clusters[i].work > clusters[j].work
		}
		return clusters[i].obj < clusters[j].obj
	})
	load := make([]float64, p)
	for _, c := range clusters {
		best := 0
		for q := 1; q < p; q++ {
			if load[q] < load[best] {
				best = q
			}
		}
		g.Objects[c.obj].Owner = graph.Proc(best)
		load[best] += c.work
	}
	next := 0
	for o := range g.Objects {
		if !written[o] {
			g.Objects[o].Owner = graph.Proc(next % p)
			next++
		}
	}
	// Secondary writes must agree with the primary cluster owner; force
	// them (rare: tasks writing multiple objects put all their objects on
	// one processor).
	for ti := range g.Tasks {
		writes := g.Writes(graph.TaskID(ti))
		if len(writes) <= 1 {
			continue
		}
		own := g.Objects[writes[0]].Owner
		for _, w := range writes[1:] {
			g.Objects[w].Owner = own
		}
	}
	return g
}
