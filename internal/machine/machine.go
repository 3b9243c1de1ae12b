// Package machine is the discrete-event simulator of a distributed-memory
// message-passing machine with remote memory access, standing in for the
// paper's Cray-T3D (see DESIGN.md §2). It executes the same five-state
// protocol as the concurrent executor — literally the same code: both
// backends drive internal/proto's Core, which owns every REC/EXE/SND/MAP/
// END transition, the address-package handshake and the suspended-send
// queue. This package supplies only the virtual-clock mechanics: an event
// queue ordered by (time, sequence), simulated arrival counters and slot
// FIFOs, and the published T3D cost constants (103 MFLOPS per node, 2.7 µs
// message overhead, 128 MB/s bandwidth), so the paper's timing tables can
// be regenerated deterministically.
package machine

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configure a simulation.
type Options struct {
	// Baseline simulates the original RAPID executor: the whole volatile
	// space is allocated up front, all addresses are exchanged during
	// preprocessing and memory management costs nothing. Use with a
	// full-capacity plan to obtain the "100% memory, no managing overhead"
	// comparison base of Tables 2 and 3.
	Baseline bool
	// SlotDepth is the number of in-flight address packages each
	// (sender, receiver) pair may have (default 1 — the paper's
	// "no address buffering" decision; larger values are an ablation).
	SlotDepth int
	// Trace, if non-nil, records task and MAP spans.
	Trace *trace.Recorder
	// Faults injects deterministic protocol perturbations (delayed address
	// packages and data messages); see proto.Faults. Because decisions are
	// pure functions of message identity, the simulator delays exactly the
	// messages the concurrent executor would delay for the same Seed.
	Faults proto.Faults
}

// Result reports a completed simulation.
type Result struct {
	// ParallelTime is the completion time of the last task (seconds).
	ParallelTime float64
	// AvgMAPs is the average number of MAPs executed per processor.
	AvgMAPs float64
	// Messages is the number of data messages delivered.
	Messages int
	// AddrPackages is the number of address packages delivered.
	AddrPackages int
	// MAPsPerProc is the number of MAPs each processor executed.
	MAPsPerProc []int
	// PeakUnits is the per-processor peak memory in use (abstract units,
	// permanent + volatile), as accounted by the simulated allocator.
	PeakUnits []int64
	// SuspendedSends counts, per processor, the data messages that went
	// through the suspended-send queue.
	SuspendedSends []int
	// Occupancy is the virtual time each processor spent in each protocol
	// state (indexed by proto.State).
	Occupancy []proto.Occupancy
	// Reliability is the per-processor ack/retransmit summary (sender-side
	// counters plus the duplicate deliveries that processor discarded).
	Reliability []proto.Reliability
}

// event kinds
const (
	evWake int8 = iota // re-examine processor state
	evTaskDone
	evMAPDone
	evMsg // data message arrival: increments arrivals[dst][obj]
	evCtl // control signal arrival: increments ctl[task]
)

type event struct {
	t    float64
	seq  int64 // tie-break for determinism
	kind int8
	proc graph.Proc  // evWake/evTaskDone/evMAPDone/evMsg
	obj  graph.ObjID // evMsg
	mseq int32       // evMsg: the message's version sequence number
	task graph.TaskID
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

// slotFIFO is the queue of in-flight address packages for one
// (receiver, sender) pair: arrival time, package contents and the
// package's per-(sender, receiver) sequence number for receiver dedup.
type slotFIFO struct {
	times []float64
	pkgs  [][]graph.ObjID
	seqs  []int32
}

// driver is one simulated processor: the shared protocol core plus its
// virtual-clock backend.
type driver struct {
	core *proto.Core
	be   *simBackend
	busy bool // charging a task or MAP cost; does not poll (protocol rule)
	done bool
}

type sim struct {
	s     *sched.Schedule
	model sched.CostModel
	opt   Options
	eng   *proto.Engine

	q   eventQueue
	seq int64
	now float64
	err error

	drv       []driver
	ctl       []int32 // per task
	slotDepth int

	lastTaskFinish float64
}

func (m *sim) push(t float64, kind int8, p graph.Proc, o graph.ObjID, task graph.TaskID) {
	m.seq++
	heap.Push(&m.q, event{t: t, seq: m.seq, kind: kind, proc: p, obj: o, task: task})
}

// pushMsg enqueues a data-message arrival carrying its sequence number.
func (m *sim) pushMsg(t float64, dst graph.Proc, o graph.ObjID, mseq int32) {
	m.seq++
	heap.Push(&m.q, event{t: t, seq: m.seq, kind: evMsg, proc: dst, obj: o, mseq: mseq})
}

func (m *sim) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Simulate runs the schedule under the plan and cost model, driven by the
// schedule's protocol tables (proto.Derive(s); a compiled artifact carries
// its own).
func Simulate(s *sched.Schedule, plan *mem.Plan, tables *proto.Tables, model sched.CostModel, opt Options) (*Result, error) {
	eng, err := proto.NewEngine(s, plan, tables, opt.Faults)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	depth := opt.SlotDepth
	if depth < 1 {
		depth = 1
	}
	m := &sim{
		s: s, model: model, opt: opt, eng: eng,
		drv:       make([]driver, s.P),
		ctl:       make([]int32, s.G.NumTasks()),
		slotDepth: depth,
	}
	for p := 0; p < s.P; p++ {
		be := newSimBackend(m, graph.Proc(p))
		m.drv[p] = driver{core: eng.NewCore(graph.Proc(p), be), be: be}
		m.push(0, evWake, graph.Proc(p), 0, 0)
	}

	for m.q.Len() > 0 && m.err == nil {
		ev := heap.Pop(&m.q).(event)
		m.now = ev.t
		switch ev.kind {
		case evMsg:
			m.drv[ev.proc].be.arrive(ev.obj, ev.mseq)
			m.step(ev.proc, ev.t)
		case evCtl:
			m.ctl[ev.task]++
			m.step(m.s.Assign[ev.task], ev.t)
		case evTaskDone:
			d := &m.drv[ev.proc]
			d.busy = false
			if ev.t > m.lastTaskFinish {
				m.lastTaskFinish = ev.t
			}
			d.core.TaskDone(ev.t)
			m.step(ev.proc, ev.t)
		case evMAPDone:
			m.drv[ev.proc].busy = false
			m.step(ev.proc, ev.t)
		case evWake:
			m.step(ev.proc, ev.t)
		}
	}
	if m.err != nil {
		return nil, m.err
	}
	for p := range m.drv {
		if !m.drv[p].done {
			core := m.drv[p].core
			return nil, fmt.Errorf("machine: deadlock: processor %d stuck at position %d — %s",
				p, core.Pos(), core.BlockedInfo())
		}
	}
	res := &Result{
		ParallelTime:   m.lastTaskFinish,
		MAPsPerProc:    make([]int, s.P),
		PeakUnits:      make([]int64, s.P),
		SuspendedSends: make([]int, s.P),
		Occupancy:      make([]proto.Occupancy, s.P),
		Reliability:    make([]proto.Reliability, s.P),
	}
	totalMAPs := 0
	for p := range m.drv {
		st := m.drv[p].core.Stats
		totalMAPs += st.MAPs
		res.MAPsPerProc[p] = st.MAPs
		res.SuspendedSends[p] = st.DataSuspended
		res.Messages += st.DataSent
		res.AddrPackages += st.AddrConsumed
		res.PeakUnits[p] = m.drv[p].be.peak
		res.Occupancy[p] = m.drv[p].core.Occupancy()
		res.Reliability[p] = st.Reliability(m.drv[p].be.dupDropped)
	}
	res.AvgMAPs = float64(totalMAPs) / float64(s.P)
	return res, nil
}

// step advances processor p as far as it can at time now by driving its
// protocol core: Poll (RA/CQ), then Advance until the core blocks, finishes
// or hands back costed work (a task or a MAP) to charge on the clock.
func (m *sim) step(p graph.Proc, now float64) {
	d := &m.drv[p]
	// Busy processors do not poll: RA/CQ run at task/MAP boundaries and in
	// blocking states, exactly as the protocol prescribes.
	if d.busy || d.done || m.err != nil {
		return
	}
	m.now = now
	d.core.Poll(now)
	for {
		st, err := d.core.Advance(now)
		if err != nil {
			m.fail(err)
			return
		}
		switch st.Kind {
		case proto.RunMAP:
			cost := 0.0
			if !m.opt.Baseline {
				cost = m.model.MAPOverhead + m.model.MAPPerObject*float64(len(st.MAP.Frees)+len(st.MAP.Allocs))
			}
			if cost > 0 {
				d.busy = true
				m.opt.Trace.Add(trace.Span{Proc: int32(p), Kind: trace.MAP, Name: "MAP", Start: now, End: now + cost})
				m.push(now+cost, evMAPDone, p, 0, 0)
				return
			}
		case proto.RunTask:
			dur := m.model.TaskTime(&m.s.G.Tasks[st.Task])
			d.busy = true
			m.opt.Trace.Add(trace.Span{Proc: int32(p), Kind: trace.Task, Name: m.s.G.Tasks[st.Task].Name, Start: now, End: now + dur})
			m.push(now+dur, evTaskDone, p, 0, 0)
			return
		case proto.Blocked:
			// Poll already ran; the next arrival, slot release or wake event
			// re-enters step.
			return
		case proto.Finished:
			d.done = true
			return
		}
	}
}

// simBackend is the virtual-clock proto.Backend for one processor:
// simulated arrival counters, a capacity ledger instead of real buffers,
// learned-address sets, and slot FIFOs timed on the event queue.
type simBackend struct {
	m *sim
	p graph.Proc
	// arrivals counts delivered data messages per local volatile object.
	arrivals map[graph.ObjID]int32
	// lastSeq is the highest data-message sequence number delivered per
	// local object; lower-or-equal arrivals are duplicates and are
	// discarded. It deliberately survives free/realloc of the object (seqs
	// are monotone per (object, receiver) across the whole run), so a
	// duplicate landing after the buffer was recycled is still recognized —
	// mirroring the executor, where the old rma.Buffer handle keeps its
	// sequence watermark.
	lastSeq map[graph.ObjID]int32
	alloc   map[graph.ObjID]bool
	// addr marks (object, destination) pairs whose remote buffer address
	// this processor has learned through an address package.
	addr map[[2]int32]bool
	// addrSeen is the highest address-package sequence number consumed from
	// each source processor; packages at or below it are duplicates.
	addrSeen []int32
	// slots holds the in-flight address packages to this processor,
	// indexed by sender (FIFO, capacity = slotDepth).
	slots []slotFIFO
	// dupDropped counts the duplicate deliveries (data + address packages)
	// this processor discarded.
	dupDropped int
	used, peak int64
}

func newSimBackend(m *sim, p graph.Proc) *simBackend {
	be := &simBackend{
		m:        m,
		p:        p,
		arrivals: make(map[graph.ObjID]int32),
		lastSeq:  make(map[graph.ObjID]int32),
		alloc:    make(map[graph.ObjID]bool),
		addr:     make(map[[2]int32]bool),
		addrSeen: make([]int32, m.s.P),
		slots:    make([]slotFIFO, m.s.P),
	}
	// Permanent objects live on their owners for the whole run.
	for oi := range m.s.G.Objects {
		if m.s.G.Objects[oi].Owner == p {
			be.used += m.s.G.Objects[oi].Size
		}
	}
	be.peak = be.used
	return be
}

// arrive records a delivered data message (evMsg). The dedup check runs
// before the allocation check: a duplicated copy may land after the
// receiver consumed the original and freed the buffer, and must be
// discarded rather than flagged as a consistency violation (the same
// ordering rma.Buffer.Put uses).
func (be *simBackend) arrive(o graph.ObjID, seq int32) {
	if seq <= be.lastSeq[o] {
		be.dupDropped++
		return
	}
	if !be.m.opt.Baseline && !be.alloc[o] {
		be.m.fail(fmt.Errorf("machine: proc %d received message for unallocated object %q",
			be.p, be.m.s.G.Objects[o].Name))
		return
	}
	be.lastSeq[o] = seq
	be.arrivals[o]++
}

// ApplyMAP performs one memory allocation point on the capacity ledger.
func (be *simBackend) ApplyMAP(mp *mem.MAP) error {
	g := be.m.s.G
	for _, o := range mp.Frees {
		if !be.m.opt.Baseline && !be.alloc[o] {
			return fmt.Errorf("machine: proc %d MAP frees unallocated object %q", be.p, g.Objects[o].Name)
		}
		delete(be.alloc, o)
		delete(be.arrivals, o)
		be.used -= g.Objects[o].Size
	}
	for _, o := range mp.Allocs {
		be.alloc[o] = true
		if !be.m.opt.Baseline {
			// Fresh buffer: the arrival counter restarts, mirroring the real
			// allocator handing out a zero-arrival rma.Buffer.
			be.arrivals[o] = 0
		}
		be.used += g.Objects[o].Size
	}
	if be.used > be.peak {
		be.peak = be.used
	}
	return nil
}

// TryNotify deposits an address package into dst's slot FIFO; false while
// the FIFO is at slot depth (the receiver has not run RA yet). In baseline
// mode all addresses were exchanged during preprocessing, so the deposit is
// free and instantaneous.
func (be *simBackend) TryNotify(dst graph.Proc, objs []graph.ObjID, seq int32) bool {
	if be.m.opt.Baseline {
		return true
	}
	q := &be.m.drv[dst].be.slots[be.p]
	if len(q.times) >= be.m.slotDepth {
		return false
	}
	at := be.m.now + be.m.model.AddrLatency
	q.times = append(q.times, at)
	q.pkgs = append(q.pkgs, objs)
	q.seqs = append(q.seqs, seq)
	// Wake the destination when the package lands so its RA can run.
	be.m.push(at, evWake, dst, 0, 0)
	return true
}

// ReadAddresses is RA: consume every address package that has arrived by
// now, learn its addresses, and wake senders whose slot was freed.
// Duplicated deliveries (sequence number at or below the highest consumed
// from that source) free their slot but are otherwise discarded uncounted.
func (be *simBackend) ReadAddresses() int {
	if be.m.opt.Baseline {
		return 0
	}
	n := 0
	for src := 0; src < be.m.s.P; src++ {
		q := &be.slots[src]
		freed := false
		for len(q.times) > 0 && q.times[0] <= be.m.now {
			if q.seqs[0] <= be.addrSeen[src] {
				be.dupDropped++
			} else {
				be.addrSeen[src] = q.seqs[0]
				for _, o := range q.pkgs[0] {
					be.addr[[2]int32{int32(o), int32(src)}] = true
				}
				n++
			}
			q.times = q.times[1:]
			q.pkgs = q.pkgs[1:]
			q.seqs = q.seqs[1:]
			freed = true
		}
		if freed {
			// The sender may be blocked in MAP state on the full slot.
			be.m.push(be.m.now, evWake, graph.Proc(src), 0, 0)
		}
	}
	return n
}

// The addr map is keyed the other way around from the slot bookkeeping:
// this processor is the *producer*, snd.Dst the consumer that allocated
// the buffer and sent the package.
func (be *simBackend) AddrKnown(snd proto.Send) bool {
	if be.m.opt.Baseline {
		return true
	}
	return be.addr[[2]int32{int32(snd.Obj), int32(snd.Dst)}]
}

// SendData dispatches one data message on the virtual network, tagged with
// its version sequence number so the receiver can discard duplicates.
func (be *simBackend) SendData(snd proto.Send) {
	be.m.pushMsg(be.m.now+be.m.model.CommTime(be.m.s.G.Objects[snd.Obj].Size), snd.Dst, snd.Obj, snd.Seq)
}

// SendCtl delivers one control signal after the message latency.
func (be *simBackend) SendCtl(t graph.TaskID) {
	be.m.push(be.m.now+be.m.model.Latency, evCtl, 0, 0, t)
}

func (be *simBackend) CtlCount(t graph.TaskID) int32 { return be.m.ctl[t] }

func (be *simBackend) Arrived(o graph.ObjID) (int32, bool) {
	if !be.m.opt.Baseline && !be.alloc[o] {
		return 0, false
	}
	return be.arrivals[o], true
}

// WakeAfter schedules a future wake event: the simulator's binding of the
// Backend timer contract. Nothing else is guaranteed to re-examine this
// processor after fault injection delayed one of its messages or the
// reliability layer armed a retransmission timer. delay 0 (a plain delay
// fault) wakes one address latency later; a positive delay wakes exactly
// when the timer expires.
func (be *simBackend) WakeAfter(delay float64) {
	if delay <= 0 {
		delay = be.m.model.AddrLatency
	}
	be.m.push(be.m.now+delay, evWake, be.p, 0, 0)
}
