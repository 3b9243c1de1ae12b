package sched

import (
	"fmt"

	"repro/internal/graph"
)

// policy customizes the list-scheduling engine of Figure 4. Priorities are
// expressed as heap keys where SMALLER is better (schedulers negate
// "higher is better" quantities); eligibility gates the heap top (DTS uses
// it to enforce slice-by-slice execution, and its slice-major key order
// guarantees that an ineligible top implies no eligible ready task).
type policy interface {
	// keys returns the heap keys of ready task t (smaller = better).
	keys(t graph.TaskID) (k1, k2 float64)
	// eligible reports whether ready task t may be scheduled on p now.
	eligible(t graph.TaskID, p graph.Proc) bool
	// inserted notifies the policy that t joined p's ready set.
	inserted(t graph.TaskID, p graph.Proc)
	// scheduled notifies the policy that t was placed on p.
	scheduled(t graph.TaskID, p graph.Proc)
}

// refreshable is implemented by policies whose ready-task keys change as
// tasks are scheduled (MPO); the engine injects a callback that re-sinks a
// ready task in its heap.
type refreshable interface {
	setRefresh(func(t graph.TaskID, p graph.Proc))
}

// runList executes the scheduling loop shared by RCP, MPO and DTS:
//
//	while there is an unscheduled task:
//	  find the processor Px with the earliest idle time (among those with
//	  an eligible ready task);
//	  schedule Px's highest-priority ready task;
//	  update ready lists (and affected priorities).
//
// Task start times account for cross-processor communication delays of the
// cost model, so the returned Makespan is the scheduler's predicted
// parallel time. Each scheduling step costs O(P + log n + degree).
func runList(g *graph.DAG, assign []graph.Proc, p int, model CostModel, pol policy, h Heuristic) (*Schedule, error) {
	n := g.NumTasks()
	s := &Schedule{
		G:         g,
		P:         p,
		Assign:    assign,
		Order:     make([][]graph.TaskID, p),
		Heuristic: h,
	}
	// Every processor's order is carved at its final length out of one
	// allocation: the assignment says how many tasks each will run.
	count := make([]int, p)
	for _, q := range assign {
		count[q]++
	}
	orders := make([]graph.TaskID, n)
	for q, lo := 0, 0; q < p; q++ {
		if count[q] > 0 {
			s.Order[q] = orders[lo : lo : lo+count[q]]
			lo += count[q]
		}
	}
	heaps := newTaskHeaps(p, n)
	if r, ok := pol.(refreshable); ok {
		r.setRefresh(func(t graph.TaskID, q graph.Proc) {
			k1, k2 := pol.keys(t)
			heaps[q].Update(t, k1, k2)
		})
	}

	remaining := make([]int32, n)
	dataReady := make([]float64, n)
	taskTime := make([]float64, n)
	for t := 0; t < n; t++ {
		remaining[t] = int32(len(g.In(graph.TaskID(t))))
		taskTime[t] = model.TaskTime(&g.Tasks[t])
	}
	insert := func(t graph.TaskID) {
		q := assign[t]
		pol.inserted(t, q)
		k1, k2 := pol.keys(t)
		heaps[q].Push(t, k1, k2)
	}
	for t := 0; t < n; t++ {
		if remaining[t] == 0 {
			insert(graph.TaskID(t))
		}
	}

	clock := make([]float64, p)
	scheduledCount := 0
	for scheduledCount < n {
		best := -1
		for q := 0; q < p; q++ {
			if heaps[q].Len() == 0 || !pol.eligible(heaps[q].Top(), graph.Proc(q)) {
				continue
			}
			if best == -1 || clock[q] < clock[best] {
				best = q
			}
		}
		if best == -1 {
			return nil, fmt.Errorf("sched: no eligible ready task (%d of %d scheduled); policy starves", scheduledCount, n)
		}
		chosen := heaps[best].Pop()

		start := clock[best]
		if dataReady[chosen] > start {
			start = dataReady[chosen]
		}
		f := start + taskTime[chosen]
		clock[best] = f
		s.Order[best] = append(s.Order[best], chosen)
		scheduledCount++
		pol.scheduled(chosen, graph.Proc(best))

		for _, e := range g.Out(chosen) {
			arr := f
			if e.Kind == graph.DepTrue && assign[e.From] != assign[e.To] {
				arr += model.CommTime(g.Objects[e.Obj].Size)
			}
			if arr > dataReady[e.To] {
				dataReady[e.To] = arr
			}
			remaining[e.To]--
			if remaining[e.To] == 0 {
				insert(e.To)
			}
		}
	}
	makespan := 0.0
	for q := 0; q < p; q++ {
		if clock[q] > makespan {
			makespan = clock[q]
		}
	}
	s.Makespan = makespan
	if err := s.finalize(); err != nil {
		return nil, err
	}
	return s, nil
}
