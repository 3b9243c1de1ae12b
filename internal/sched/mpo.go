package sched

import (
	"repro/internal/graph"
	"repro/internal/util"
)

// mpoPolicy implements the memory-priority guided ordering of Figure 4.
// The memory priority of a ready task is the fraction of the objects it
// needs that are already allocated on its processor (permanent objects are
// always allocated; volatile objects become allocated when a previously
// scheduled task on the same processor first used them). Critical-path
// priority breaks ties. As the paper notes, only the priorities of tasks
// affected by the newly scheduled task need refreshing: the engine is told
// to re-sink exactly the ready tasks that use a just-allocated object.
type mpoPolicy struct {
	g      *graph.DAG
	assign []graph.Proc
	bl     []float64
	// Task t uses the distinct objects objs[objOff[t]:objOff[t+1]].
	objOff []int32
	objs   []graph.ObjID
	// allocated holds p·m+o (m: the object count) once volatile object o
	// is allocated on p during the scheduling simulation.
	allocated *util.Bitset
	// waitHead[p·m+o] heads the chain, threaded through wait (slot 0 is
	// the end of every chain), of the ready tasks on p whose priority
	// depends on the currently unallocated volatile object o. A ready task
	// joins one chain per such object, once, so the objs count bounds wait.
	waitHead []int32
	wait     []waitNode
	refresh  func(t graph.TaskID, p graph.Proc)
}

type waitNode struct {
	task graph.TaskID
	next int32
}

func newMPOPolicy(g *graph.DAG, assign []graph.Proc, p int, bl []float64) *mpoPolicy {
	n, m := g.NumTasks(), g.NumObjects()
	pol := &mpoPolicy{
		g: g, assign: assign, bl: bl,
		objOff:    make([]int32, n+1),
		objs:      make([]graph.ObjID, 0, g.NumAccesses()),
		allocated: util.NewBitset(p * m),
		waitHead:  make([]int32, p*m),
	}
	listed := make([]int32, m) // listed[o] == t+1: o is already on task t's list
	for ti := range g.Tasks {
		for _, o := range g.Accesses(graph.TaskID(ti)) {
			if listed[o] != int32(ti)+1 {
				listed[o] = int32(ti) + 1
				pol.objs = append(pol.objs, o)
			}
		}
		pol.objOff[ti+1] = int32(len(pol.objs))
	}
	pol.wait = make([]waitNode, 1, len(pol.objs)+1)
	return pol
}

func (m *mpoPolicy) setRefresh(f func(t graph.TaskID, p graph.Proc)) { m.refresh = f }

func (m *mpoPolicy) objects(t graph.TaskID) []graph.ObjID {
	return m.objs[m.objOff[t]:m.objOff[t+1]]
}

// held reports whether o needs no allocation on p: p owns it, or an earlier
// task on p allocated it. slot is o's index in the per-(processor, object)
// tables.
func (m *mpoPolicy) held(p graph.Proc, o graph.ObjID) (held bool, slot int) {
	slot = int(p)*len(m.g.Objects) + int(o)
	return m.g.Objects[o].Owner == p || m.allocated.Has(slot), slot
}

func (m *mpoPolicy) keys(t graph.TaskID) (float64, float64) {
	p := m.assign[t]
	objs := m.objects(t)
	have := 0
	for _, o := range objs {
		if held, _ := m.held(p, o); held {
			have++
		}
	}
	prio := 1.0
	if len(objs) > 0 {
		prio = float64(have) / float64(len(objs))
	}
	return -prio, -m.bl[t]
}

func (m *mpoPolicy) eligible(graph.TaskID, graph.Proc) bool { return true }

func (m *mpoPolicy) inserted(t graph.TaskID, p graph.Proc) {
	for _, o := range m.objects(t) {
		if held, slot := m.held(p, o); !held {
			m.wait = append(m.wait, waitNode{task: t, next: m.waitHead[slot]})
			m.waitHead[slot] = int32(len(m.wait) - 1)
		}
	}
}

func (m *mpoPolicy) scheduled(t graph.TaskID, p graph.Proc) {
	// Allocate all volatile objects the task uses that are not allocated
	// yet on its processor (line 4 of Figure 4), then refresh the ready
	// tasks whose memory priority just improved. (The order of the
	// refreshes moves entries inside the heap, never what it pops: the keys
	// are totally ordered.)
	for _, o := range m.objects(t) {
		held, slot := m.held(p, o)
		if held {
			continue
		}
		m.allocated.Set(slot)
		for i := m.waitHead[slot]; i != 0; i = m.wait[i].next {
			if w := m.wait[i].task; w != t {
				m.refresh(w, p)
			}
		}
		m.waitHead[slot] = 0
	}
}

// ScheduleMPO produces the memory-priority guided ordering of Section 4.1.
func ScheduleMPO(g *graph.DAG, assign []graph.Proc, p int, model CostModel) (*Schedule, error) {
	bl := g.BottomLevels(model.EdgeComm(g, assign))
	return runList(g, assign, p, model, newMPOPolicy(g, assign, p, bl), MPO)
}
