package graph

// CommCostFunc returns the communication delay charged on edge e. Returning
// zero models a local (same-processor) edge; the schedulers pass a function
// that consults the current task-to-processor assignment.
type CommCostFunc func(e Edge) float64

// ZeroComm charges no communication anywhere (pure computation DAG).
func ZeroComm(Edge) float64 { return 0 }

// UnitComm charges one unit on every edge, as the paper's worked example
// does ("each task and each message cost one unit of time").
func UnitComm(Edge) float64 { return 1 }

// BottomLevels returns, for every task, the length of the longest path from
// the task to an exit task, including the task's own cost and the
// communication delays charged by comm. This is the critical-path priority
// used by RCP and as the tie-break in MPO and DTS.
func (g *DAG) BottomLevels(comm CommCostFunc) []float64 {
	order, err := g.TopoSort()
	if err != nil {
		panic("graph: BottomLevels on cyclic graph: " + err.Error())
	}
	bl := make([]float64, len(g.Tasks))
	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		best := 0.0
		for _, e := range g.Out(t) {
			v := comm(e) + bl[e.To]
			if v > best {
				best = v
			}
		}
		bl[t] = g.Tasks[t].Cost + best
	}
	return bl
}

// TopLevels returns, for every task, the length of the longest path from an
// entry task to the task, excluding the task's own cost.
func (g *DAG) TopLevels(comm CommCostFunc) []float64 {
	order, err := g.TopoSort()
	if err != nil {
		panic("graph: TopLevels on cyclic graph: " + err.Error())
	}
	tl := make([]float64, len(g.Tasks))
	for _, t := range order {
		for _, e := range g.Out(t) {
			v := tl[t] + g.Tasks[t].Cost + comm(e)
			if v > tl[e.To] {
				tl[e.To] = v
			}
		}
	}
	return tl
}

// CriticalPathLength returns the length of the longest path through the DAG
// under the given communication cost function.
func (g *DAG) CriticalPathLength(comm CommCostFunc) float64 {
	bl := g.BottomLevels(comm)
	best := 0.0
	for t := range g.Tasks {
		if len(g.In(TaskID(t))) == 0 && bl[t] > best {
			best = bl[t]
		}
	}
	return best
}

// Depth returns the maximum number of tasks on any path (the DAG depth D of
// Blelloch et al.'s space bound, for reporting).
func (g *DAG) Depth() int {
	order, _ := g.TopoSort()
	d := make([]int, len(g.Tasks))
	max := 0
	for _, t := range order {
		if d[t] == 0 {
			d[t] = 1
		}
		if d[t] > max {
			max = d[t]
		}
		for _, e := range g.Out(t) {
			if d[t]+1 > d[e.To] {
				d[e.To] = d[t] + 1
			}
		}
	}
	return max
}

// TotalWork returns the sum of all task costs (the sequential time T1).
func (g *DAG) TotalWork() float64 {
	w := 0.0
	for i := range g.Tasks {
		w += g.Tasks[i].Cost
	}
	return w
}

// SeqSpace returns S1, the sequential space requirement: the total size of
// all data objects.
func (g *DAG) SeqSpace() int64 {
	var s int64
	for i := range g.Objects {
		s += g.Objects[i].Size
	}
	return s
}
