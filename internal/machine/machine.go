// Package machine is the discrete-event simulator of a distributed-memory
// message-passing machine with remote memory access, standing in for the
// paper's Cray-T3D (see DESIGN.md §2). It executes the same five-state
// protocol as the concurrent executor — literally the same code: both
// backends drive internal/proto's Core, which owns every REC/EXE/SND/MAP/
// END transition, the address-package handshake and the suspended-send
// queue, and holds the memory ledger, arrival counters and learned
// addresses they read. This package supplies only the virtual-clock
// mechanics: an event queue ordered by (time, sequence), slot FIFOs that
// time the address packages, flag-only deposits through the same rma
// handles the executor uses, and the published T3D cost constants (103
// MFLOPS per node, 2.7 µs message overhead, 128 MB/s bandwidth), so the
// paper's timing tables can be regenerated deterministically.
package machine

import (
	"container/heap"
	"fmt"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Options configure a simulation.
type Options struct {
	// Baseline simulates the original RAPID executor: the whole volatile
	// space is allocated up front, all addresses are exchanged during
	// preprocessing and memory management costs nothing. It needs a
	// full-capacity plan (anything tighter cannot hold the volatile space
	// and fails) and gives the "100% memory, no managing overhead"
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

// Result reports a completed simulation: the protocol's run report (in
// virtual seconds) plus the simulated clock's readings.
type Result struct {
	proto.Summary
	// ParallelTime is the completion time of the last task (seconds under
	// the plan's cost model).
	ParallelTime float64
	// AvgMAPs is the average number of MAPs executed per processor.
	AvgMAPs float64
}

// event kinds
const (
	evWake int8 = iota // re-examine processor state
	evTaskDone
	evMAPDone
	evMsg // data message arrival: a flag-only deposit into buf
	evCtl // control signal arrival: one more in CtlRecv[task]
)

type event struct {
	t    float64
	seq  int64 // tie-break for determinism
	kind int8
	proc graph.Proc // evWake/evTaskDone/evMAPDone
	task graph.TaskID
	snd  proto.Send  // evMsg: the message, landing on snd.Dst
	buf  *rma.Buffer // evMsg: the handle snd.Dst exported for snd.Obj
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

// inFlight is one address package on its way through a slot, and the time
// it lands.
type inFlight struct {
	at  float64
	pkg *rma.AddrPackage
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
	slotDepth int

	lastTaskFinish float64
}

func (m *sim) push(ev event) {
	m.seq++
	ev.seq = m.seq
	heap.Push(&m.q, ev)
}

// wake schedules a re-examination of processor p at time t.
func (m *sim) wake(t float64, p graph.Proc) { m.push(event{t: t, kind: evWake, proc: p}) }

// land deposits an arrived data message, flag-only, into the handle its
// consumer exported; the first failed deposit becomes the run's error.
func (m *sim) land(ev event) {
	defer m.eng.DepositFault(ev.snd, &m.err)
	if !ev.buf.PutFlagOnly(ev.snd.Seq) {
		m.eng.Discarded(ev.snd.Dst)
	}
}

// Simulate runs the compiled plan — its schedule under its MAP plan,
// driven by its protocol tables — and times it under its cost model.
func Simulate(a *plan.Artifact, opt Options) (*Result, error) {
	s := a.Schedule
	eng, err := proto.NewEngine(s, a.Mem, a.Tables(), opt.Faults)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	depth := opt.SlotDepth
	if depth < 1 {
		depth = 1
	}
	eng.Baseline = opt.Baseline
	m := &sim{
		s: s, model: a.Model, opt: opt, eng: eng,
		drv:       make([]driver, s.P),
		slotDepth: depth,
	}
	cores := make([]*proto.Core, s.P)
	for p := range cores {
		be := &simBackend{m: m, p: graph.Proc(p), slots: make([][]inFlight, s.P)}
		if cores[p], err = eng.NewCore(graph.Proc(p), be); err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.drv[p] = driver{core: cores[p], be: be}
		m.wake(0, graph.Proc(p))
	}

	for m.q.Len() > 0 && m.err == nil {
		ev := heap.Pop(&m.q).(event)
		m.now = ev.t
		switch ev.kind {
		case evMsg:
			m.land(ev)
			m.step(ev.snd.Dst, ev.t)
		case evCtl:
			eng.CtlRecv[ev.task].Add(1)
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
	sum := eng.Summarize(cores)
	totalMAPs := 0
	for _, n := range sum.MAPsPerProc {
		totalMAPs += n
	}
	return &Result{
		Summary:      sum,
		ParallelTime: m.lastTaskFinish,
		AvgMAPs:      float64(totalMAPs) / float64(s.P),
	}, nil
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
			m.err = err
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
				m.push(event{t: now + cost, kind: evMAPDone, proc: p})
				return
			}
		case proto.RunTask:
			dur := m.model.TaskTime(&m.s.G.Tasks[st.Task])
			d.busy = true
			m.opt.Trace.Add(trace.Span{Proc: int32(p), Kind: trace.Task, Name: m.s.G.Tasks[st.Task].Name, Start: now, End: now + dur})
			m.push(event{t: now + dur, kind: evTaskDone, proc: p})
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

// simBackend is the virtual-clock proto.Backend for one processor: messages
// become events on the queue, address packages sit in slot FIFOs until
// their arrival time, and buffers are flag-only.
type simBackend struct {
	m *sim
	p graph.Proc
	// slots holds the in-flight address packages to this processor,
	// indexed by sender (FIFO, capacity = slotDepth).
	slots [][]inFlight
}

// SendAddr deposits an address package into dst's slot FIFO; false while
// the FIFO is at slot depth (the receiver has not run RA yet).
func (be *simBackend) SendAddr(dst graph.Proc, pkg *rma.AddrPackage) bool {
	q := &be.m.drv[dst].be.slots[be.p]
	if len(*q) >= be.m.slotDepth {
		return false
	}
	at := be.m.now + be.m.model.AddrLatency
	*q = append(*q, inFlight{at, pkg})
	// Wake the destination when the package lands so its RA can run.
	be.m.wake(at, dst)
	return true
}

// RecvAddr hands over every address package that has arrived by now and
// wakes the senders whose slot was freed: they may be blocked in MAP state
// on the full slot.
func (be *simBackend) RecvAddr(buf []*rma.AddrPackage) []*rma.AddrPackage {
	for src, q := range be.slots {
		n := 0
		for ; n < len(q) && q[n].at <= be.m.now; n++ {
			buf = append(buf, q[n].pkg)
		}
		if n > 0 {
			be.slots[src] = q[n:]
			be.m.wake(be.m.now, graph.Proc(src))
		}
	}
	return buf
}

// SendData dispatches one data message on the virtual network; it lands on
// the handle after the object's transfer time.
func (be *simBackend) SendData(snd proto.Send, b *rma.Buffer) {
	at := be.m.now + be.m.model.CommTime(be.m.s.G.Objects[snd.Obj].Size)
	be.m.push(event{t: at, kind: evMsg, snd: snd, buf: b})
}

// SendCtl delivers one control signal after the message latency.
func (be *simBackend) SendCtl(t graph.TaskID) {
	be.m.push(event{t: be.m.now + be.m.model.Latency, kind: evCtl, task: t})
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
	be.m.wake(be.m.now+delay, be.p)
}

// The simulator moves no payloads: every buffer is flag-only.
func (be *simBackend) BufLen(graph.ObjID) int64 { return 0 }
func (be *simBackend) InitBuffer(*rma.Buffer)   {}
