package proto

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rma"
	"repro/internal/sched"
	"repro/internal/util"
)

// loopMachine is a minimal in-package harness: instant message delivery,
// single-slot address packages, and a round-robin driver with a unit-step
// clock. It exists to test the Core's transition logic in isolation from
// the real backends (which have their own equivalence suite).
type loopMachine struct {
	eng   *Engine
	be    []*loopBackend
	cores []*Core
	tick  float64
	// bufLen is every object's payload length (0: a structure-only run).
	bufLen int64
	// onData, if set, sees every data message handed to the transport;
	// afterTask, if set, sees each core after each of its TaskDones;
	// afterPoll, if set, sees each core after each of its Polls.
	onData    func(snd Send)
	afterTask func(c *Core, task graph.TaskID)
	afterPoll func(c *Core)
	// sent is what the latest TaskDone reported.
	sent bool
}

// loopBackend is a transport and nothing else: slots[src] holds the
// at-most-one in-flight package from src.
type loopBackend struct {
	m     *loopMachine
	p     graph.Proc
	slots []*rma.AddrPackage
}

func newLoopMachine(t *testing.T, s *sched.Schedule, pl *mem.Plan, f Faults) *loopMachine {
	t.Helper()
	return newPayloadMachine(t, s, pl, f, 0)
}

// newPayloadMachine is newLoopMachine with a payload of bufLen float64s
// for every object, which every deposit carries.
func newPayloadMachine(t *testing.T, s *sched.Schedule, pl *mem.Plan, f Faults, bufLen int64) *loopMachine {
	t.Helper()
	eng, err := NewEngine(s, pl, Derive(s).Bind(pl), f)
	if err != nil {
		t.Fatal(err)
	}
	m := &loopMachine{eng: eng, bufLen: bufLen}
	for p := 0; p < s.P; p++ {
		be := &loopBackend{m: m, p: graph.Proc(p), slots: make([]*rma.AddrPackage, s.P)}
		core, err := eng.NewCore(graph.Proc(p), be)
		if err != nil {
			t.Fatal(err)
		}
		m.be = append(m.be, be)
		m.cores = append(m.cores, core)
	}
	return m
}

// run drives all cores round-robin until every one finishes; it fails the
// test if no core makes progress for a full sweep repeatedly (deadlock).
func (m *loopMachine) run(t *testing.T) {
	t.Helper()
	if err := m.runE(); err != nil {
		t.Fatal(err)
	}
}

// runE is run returning errors instead of failing the test, for tests that
// expect the protocol to abort (e.g. retry-budget exhaustion).
func (m *loopMachine) runE() error {
	done := make([]bool, len(m.cores))
	for round := 0; ; round++ {
		if round > 100000 {
			return fmt.Errorf("loop harness: no termination after 100000 rounds")
		}
		allDone := true
		for i, c := range m.cores {
			if done[i] {
				continue
			}
			allDone = false
			m.tick++
			st, err := c.Advance(m.tick)
			if err != nil {
				return err
			}
			switch st.Kind {
			case RunMAP:
				// Loop back into Advance next sweep (MAP cost is free here).
			case RunTask:
				m.tick++
				m.sent = c.TaskDone(m.tick)
				if m.afterTask != nil {
					m.afterTask(c, st.Task)
				}
				m.poll(c)
			case Blocked:
				m.poll(c)
			case Finished:
				done[i] = true
			}
		}
		if allDone {
			return nil
		}
	}
}

func (m *loopMachine) poll(c *Core) {
	c.Poll(m.tick)
	if m.afterPoll != nil {
		m.afterPoll(c)
	}
}

func (be *loopBackend) SendAddr(dst graph.Proc, pkg *rma.AddrPackage) bool {
	peer := be.m.be[dst]
	if peer.slots[be.p] != nil {
		return false
	}
	peer.slots[be.p] = pkg
	return true
}

func (be *loopBackend) RecvAddr(buf []*rma.AddrPackage) []*rma.AddrPackage {
	for src, pkg := range be.slots {
		if pkg != nil {
			buf = append(buf, pkg)
			be.slots[src] = nil
		}
	}
	return buf
}

func (be *loopBackend) SendData(snd Send, b *rma.Buffer) {
	if be.m.onData != nil {
		be.m.onData(snd)
	}
	var data []float64
	if src, ok := be.m.cores[be.p].Lookup(snd.Obj); ok {
		data = src.Data
	}
	if !b.Put(data, snd.Seq) {
		be.m.eng.Discarded(snd.Dst)
	}
}

func (be *loopBackend) SendCtl(t graph.TaskID) { be.m.eng.CtlRecv[t].Add(1) }

func (be *loopBackend) WakeAfter(delay float64) {} // round-robin re-examines everyone

func (be *loopBackend) BufLen(graph.ObjID) int64 { return be.m.bufLen }
func (be *loopBackend) InitBuffer(*rma.Buffer)   {}

func planFor(t *testing.T, s *sched.Schedule) *mem.Plan {
	t.Helper()
	pl, err := mem.NewPlan(s, s.MinMem())
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Executable {
		pl, err = mem.NewPlan(s, s.TOT())
		if err != nil || !pl.Executable {
			t.Fatal("TOT plan must be executable")
		}
	}
	return pl
}

// TestCoreRunsRandomGraphs drives the state machine over random schedules
// and checks the protocol-determined totals: every task runs, every MAP of
// the plan executes, every table send is delivered, every control signal
// arrives, and occupancy time is accounted.
func TestCoreRunsRandomGraphs(t *testing.T) {
	rng := util.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(3)
		g := graph.GenOwnerCompute(rng, 25+rng.Intn(30), 6+rng.Intn(8), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleWith([]sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3],
			g, assign, p, sched.Unit(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		pl := planFor(t, s)
		m := newLoopMachine(t, s, pl, Faults{})
		m.run(t)

		tables := m.eng.Tables
		totalSends, totalCtl := len(tables.sends), len(tables.ctlSends)
		gotSends, gotCtl, gotTasks := 0, 0, 0
		for q, c := range m.cores {
			if c.Stats.MAPs != len(pl.Procs[q].MAPs) {
				t.Errorf("trial %d: proc %d ran %d MAPs, plan has %d", trial, q, c.Stats.MAPs, len(pl.Procs[q].MAPs))
			}
			if c.Stats.TasksRun != len(s.Order[q]) {
				t.Errorf("trial %d: proc %d ran %d tasks, order has %d", trial, q, c.Stats.TasksRun, len(s.Order[q]))
			}
			if c.SuspendedLen() != 0 {
				t.Errorf("trial %d: proc %d finished with %d suspended sends", trial, q, c.SuspendedLen())
			}
			if len(s.Order[q]) > 0 && c.occ.Total() <= 0 {
				t.Errorf("trial %d: proc %d accounted no occupancy", trial, q)
			}
			gotSends += c.Stats.DataSent
			gotCtl += c.Stats.CtlSent
			gotTasks += c.Stats.TasksRun
		}
		if gotSends != totalSends {
			t.Errorf("trial %d: %d sends dispatched, tables have %d", trial, gotSends, totalSends)
		}
		if gotCtl != totalCtl {
			t.Errorf("trial %d: %d control signals, tables have %d", trial, gotCtl, totalCtl)
		}
		if gotTasks != g.NumTasks() {
			t.Errorf("trial %d: %d tasks ran, graph has %d", trial, gotTasks, g.NumTasks())
		}
	}
}

// TestCoreForcedSuspension: with DataFrac 1 every data message must pass
// through the suspended-send queue exactly once, so the per-processor
// suspension counts equal the communication tables' per-processor sends.
func TestCoreForcedSuspension(t *testing.T) {
	s := figure2Schedule(t)
	pl := planFor(t, s)
	m := newLoopMachine(t, s, pl, Faults{Seed: 3, DataFrac: 1})
	m.run(t)
	tables := m.eng.Tables
	for q, c := range m.cores {
		want := 0
		for _, task := range s.Order[q] {
			want += len(tables.SendsOf(task))
		}
		if c.Stats.DataSuspended != want {
			t.Errorf("proc %d: %d suspensions, want %d (table sends)", q, c.Stats.DataSuspended, want)
		}
		if c.Stats.DataSent != want {
			t.Errorf("proc %d: %d sends dispatched, want %d", q, c.Stats.DataSent, want)
		}
		if want > 0 && c.Stats.FaultsInjected < want {
			t.Errorf("proc %d: %d faults injected, want >= %d", q, c.Stats.FaultsInjected, want)
		}
		if c.Stats.CQExamined != c.Stats.DataSuspended {
			t.Errorf("proc %d: CQ examined %d queue entries for %d suspended sends, want each looked at once",
				q, c.Stats.CQExamined, c.Stats.DataSuspended)
		}
	}
}

// constrainedRandom returns a random schedule whose plan runs at the
// tightest capacity it admits, with objects rewritten and re-read often
// enough that channels carry several versions.
func constrainedRandom(t *testing.T, seed uint64) (*sched.Schedule, *mem.Plan) {
	t.Helper()
	rng := util.NewRNG(seed)
	g := graph.GenOwnerCompute(rng, 400, 12, 4)
	assign, err := sched.OwnerComputeAssign(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleWith(sched.MPO, g, assign, 4, sched.Unit(), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	return s, planFor(t, s)
}

// TestTaskWithoutSendsHasNoSND: TaskDone enters SND only for a task with
// data or control sends, and reports whether it did. A task that sends
// nothing leaves the core in EXE and adds no SND time, so the state after
// it starts where its kernel ended; every task that sends is charged SND
// from its TaskDone to the next Advance.
func TestTaskWithoutSendsHasNoSND(t *testing.T) {
	s, pl := constrainedRandom(t, 11)
	m := newLoopMachine(t, s, pl, Faults{})
	tb := m.eng.Tables
	type seen struct {
		snd     float64 // SND occupancy at the last TaskDone
		sending bool    // whether the last task sent
	}
	last := make(map[*Core]seen)
	quiet, loud := 0, 0
	m.afterTask = func(c *Core, task graph.TaskID) {
		sends := len(tb.SendsOf(task))+len(tb.CtlSendsOf(task)) > 0
		if m.sent != sends {
			t.Fatalf("task %d with %d data and %d control sends: TaskDone reported %v",
				task, len(tb.SendsOf(task)), len(tb.CtlSendsOf(task)), m.sent)
		}
		want := StateEXE
		if sends {
			want, loud = StateSND, loud+1
		} else {
			quiet++
		}
		if c.CurrentState() != want {
			t.Fatalf("task %d (sends %v) left the core in %s", task, sends, c.CurrentState())
		}
		// The SND time charged since the core's previous TaskDone is that
		// task's: some if it sent, none if it did not.
		if prev, ok := last[c]; ok && (c.occ[StateSND] > prev.snd) != prev.sending {
			t.Fatalf("task %d: SND grew from %g to %g after a task that sent %v",
				task, prev.snd, c.occ[StateSND], prev.sending)
		}
		last[c] = seen{c.occ[StateSND], sends}
	}
	m.run(t)
	if quiet == 0 || loud == 0 {
		t.Fatalf("%d tasks sent nothing and %d sent; the run must have both", quiet, loud)
	}
}

// TestCQLinear: without faults a suspended send waits for one thing, its
// address, and CQ looks at it exactly once — when RA learns that address —
// however many Polls run in between.
func TestCQLinear(t *testing.T) {
	s, pl := constrainedRandom(t, 11)
	m := newLoopMachine(t, s, pl, Faults{})
	m.run(t)
	suspended := 0
	for q, c := range m.cores {
		if c.Stats.CQExamined != c.Stats.DataSuspended {
			t.Errorf("proc %d: CQ examined %d queue entries for %d suspended sends", q, c.Stats.CQExamined, c.Stats.DataSuspended)
		}
		suspended += c.Stats.DataSuspended
	}
	if suspended == 0 {
		t.Fatal("no send was suspended: the run does not exercise the queue")
	}
}

// TestPollAllocatesNothing: a Poll that has nothing to dispatch — here over
// a hundred sends queued on a channel whose address is unknown — allocates
// nothing, whatever the queue depth.
func TestPollAllocatesNothing(t *testing.T) {
	s := figure2Schedule(t)
	m := newLoopMachine(t, s, planFor(t, s), Faults{})
	snd := m.eng.Tables.sends[0]
	var c *Core
	for _, pc := range m.cores {
		if _, ok := pc.Lookup(snd.Obj); ok && pc.p != snd.Dst {
			c = pc // the producer: the message's object is permanent there
		}
	}
	for i := 0; i < 128; i++ {
		c.pushOut(outSend{snd: snd})
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Poll(1) }); allocs != 0 {
		t.Fatalf("Poll over %d queued sends allocates %v objects, want 0", c.SuspendedLen(), allocs)
	}
	if c.SuspendedLen() != 128 || c.Stats.CQExamined != 0 {
		t.Fatalf("%d queued, %d examined; want 128 untouched", c.SuspendedLen(), c.Stats.CQExamined)
	}
}

// TestQueueReasons covers each way a send comes to sit in the outbound
// queue. In every case the versions of a channel reach the transport in
// sequence order, and after every Poll the queue's counters equal a recount
// of its FIFOs and the armed list holds exactly the channels CQ has work for.
func TestQueueReasons(t *testing.T) {
	// wholeRun drives the machine to completion under its fault plan and
	// reports whether the reason under test occurred.
	wholeRun := func(occurred func(m *loopMachine, waitingForAddr, lostInQueue int) bool) func(*testing.T, *loopMachine, *queueAudit) {
		return func(t *testing.T, m *loopMachine, a *queueAudit) {
			m.run(t)
			if !occurred(m, a.waitingForAddr, a.lostInQueue) {
				t.Fatal("the run never queued a send this way")
			}
			for ch, want := range m.eng.Tables.expect {
				if a.lastSeq[ch] != want.MinArrivals {
					t.Errorf("channel %d: %d of %d versions delivered", ch, a.lastSeq[ch], want.MinArrivals)
				}
			}
		}
	}
	cases := []struct {
		name   string
		faults Faults
		run    func(*testing.T, *loopMachine, *queueAudit)
	}{
		{"address unknown", Faults{},
			wholeRun(func(_ *loopMachine, waitingForAddr, _ int) bool { return waitingForAddr > 0 })},
		{"transmission lost", Faults{Seed: 6, DropFrac: 0.3},
			wholeRun(func(_ *loopMachine, _, lostInQueue int) bool { return lostInQueue > 0 })},
		{"fault-delayed", Faults{Seed: 7, DataFrac: 1},
			wholeRun(func(m *loopMachine, _, _ int) bool {
				return slices.ContainsFunc(m.cores, func(c *Core) bool { return c.Stats.FaultsInjected > 0 })
			})},
		// The dependence-complete graph keeps a channel's next version from
		// being produced before the last one was read, so a run never queues
		// two; the FIFO is the engine's own guard and is driven by hand: a
		// version lost once and waiting out its timer, the next one issued.
		{"predecessor of the same channel queued", Faults{}, func(t *testing.T, m *loopMachine, a *queueAudit) {
			tables := m.eng.Tables
			var v1, v2 Send
			var second graph.TaskID
			for task := graph.TaskID(0); int(task) < m.eng.S.G.NumTasks(); task++ {
				for _, snd := range tables.SendsOf(task) {
					if snd.Seq == 2 && v2.Seq == 0 {
						v1, v2, second = snd, snd, task
						v1.Seq = 1
					}
				}
			}
			if v2.Seq == 0 {
				t.Fatal("no channel carries two versions")
			}
			c, ch := m.cores[m.eng.S.Assign[second]], v2.Chan
			c.addr[ch] = &rma.Buffer{Obj: v2.Obj}
			c.pushOut(outSend{snd: v1, attempt: 1, due: 50})
			c.curTask = second
			c.TaskDone(1)
			if head := c.fifo[ch].head; c.outq[head].snd != v1 || c.outq[c.outq[head].next].snd != v2 {
				t.Fatalf("version 2 was not queued behind version 1: %+v", c.outq[1:])
			}
			m.tick = 1
			m.poll(c)
			if a.lastSeq[ch] != 0 {
				t.Fatalf("version %d went out while version 1 waits for its timer", a.lastSeq[ch])
			}
			m.tick = 50
			m.poll(c)
			if a.lastSeq[ch] != 2 || c.fifo[ch].head != 0 {
				t.Fatalf("timer due: delivered up to version %d, channel head %d; want 2, 0", a.lastSeq[ch], c.fifo[ch].head)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, pl := constrainedRandom(t, 11)
			m := newLoopMachine(t, s, pl, tc.faults)
			tc.run(t, m, auditQueue(t, m))
		})
	}
}

// queueAudit is what auditQueue's hooks observed of a machine's outbound
// queues.
type queueAudit struct {
	// lastSeq is the last version of each channel handed to the transport.
	lastSeq []int32
	// waitingForAddr and lostInQueue count, over all Polls, the channels
	// found waiting for an address and the queued sends found lost.
	waitingForAddr, lostInQueue int
}

// auditQueue hooks m so that every data message is checked to leave in
// sequence order on its channel, and every core's queue is recounted by
// brute force after each of its Polls.
func auditQueue(t *testing.T, m *loopMachine) *queueAudit {
	a := &queueAudit{lastSeq: make([]int32, m.eng.Tables.NumChans())}
	m.onData = func(snd Send) {
		// A duplicate copy repeats the sequence number just delivered.
		if last := a.lastSeq[snd.Chan]; snd.Seq != last+1 && snd.Seq != last {
			t.Fatalf("channel %d: version %d handed to the transport after version %d", snd.Chan, snd.Seq, last)
		}
		a.lastSeq[snd.Chan] = snd.Seq
	}
	m.afterPoll = func(c *Core) {
		queued, lost, armed := 0, 0, 0
		for ch := range c.fifo {
			depth, seq := 0, int32(0)
			for i := c.fifo[ch].head; i != 0; i = c.outq[i].next {
				e := &c.outq[i]
				if int(e.snd.Chan) != ch || e.snd.Seq <= seq || (depth > 0 && e.attempt > 0) {
					t.Fatalf("proc %d channel %d: entry %+v out of place behind version %d", c.p, ch, *e, seq)
				}
				seq = e.snd.Seq
				depth++
				if e.attempt > 0 {
					lost++
				}
			}
			queued += depth
			if depth > 0 && c.addr[ch] == nil {
				a.waitingForAddr++
			} else if depth > 0 {
				armed++
			}
		}
		a.lostInQueue += lost
		for i := range c.pend {
			if c.pend[i].attempt > 0 {
				lost++
			}
		}
		if c.SuspendedLen() != queued || c.RetransPending() != lost || len(c.armed) != armed {
			t.Fatalf("proc %d: SuspendedLen %d, RetransPending %d, %d armed; recount says %d, %d, %d",
				c.p, c.SuspendedLen(), c.RetransPending(), len(c.armed), queued, lost, armed)
		}
		for _, ch := range c.armed {
			if c.fifo[ch].head == 0 || c.addr[ch] == nil {
				t.Fatalf("proc %d: channel %d armed with nothing to dispatch", c.p, ch)
			}
		}
	}
	return a
}

// TestFaultsDeterministic: delay decisions are pure functions of the seed
// and message identity — same seed, same verdicts; a fraction of 1 delays
// everything and 0 nothing.
func TestFaultsDeterministic(t *testing.T) {
	f1 := Faults{Seed: 42, AddrFrac: 0.5, DataFrac: 0.5}
	f2 := Faults{Seed: 42, AddrFrac: 0.5, DataFrac: 0.5}
	for i := 0; i < 100; i++ {
		snd := Send{Obj: graph.ObjID(i % 7), Dst: graph.Proc(i % 3), Seq: int32(i)}
		if f1.delayData(snd) != f2.delayData(snd) {
			t.Fatalf("send %d: same seed, different verdicts", i)
		}
		if f1.delayAddr(graph.Proc(i%3), graph.Proc(i%5), i) != f2.delayAddr(graph.Proc(i%3), graph.Proc(i%5), i) {
			t.Fatalf("addr %d: same seed, different verdicts", i)
		}
	}
	all := Faults{Seed: 1, AddrFrac: 1, DataFrac: 1}
	none := Faults{Seed: 1}
	if none.Enabled() {
		t.Error("zero fractions must disable injection")
	}
	for i := 0; i < 20; i++ {
		snd := Send{Obj: graph.ObjID(i), Dst: 1, Seq: int32(i)}
		if !all.delayData(snd) || none.delayData(snd) {
			t.Fatalf("send %d: frac-1 must delay, frac-0 must not", i)
		}
	}
}

// TestCoreLossAndDup drives random schedules under heavy message loss and
// duplication: every message must still be delivered exactly once (totals
// equal the communication tables), every lost transmission must be
// retransmitted, every injected duplicate must be discarded by a receiver,
// and the acked count must equal the messages actually delivered.
func TestCoreLossAndDup(t *testing.T) {
	rng := util.NewRNG(123)
	totalDropped := 0
	for trial := 0; trial < 6; trial++ {
		p := 2 + rng.Intn(3)
		g := graph.GenOwnerCompute(rng, 25+rng.Intn(30), 6+rng.Intn(8), p)
		assign, err := sched.OwnerComputeAssign(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.ScheduleWith([]sched.Heuristic{sched.RCP, sched.MPO, sched.DTS}[trial%3],
			g, assign, p, sched.Unit(), 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		pl := planFor(t, s)
		m := newLoopMachine(t, s, pl, Faults{Seed: uint64(trial + 1), DropFrac: 0.3, DupFrac: 0.2})
		m.run(t)

		totalSends := len(m.eng.Tables.sends)
		gotSends, dropped, retrans, dupsSent, dupDropped, acked, addrConsumed, leftover := 0, 0, 0, 0, 0, 0, 0, 0
		for q, c := range m.cores {
			if c.SuspendedLen() != 0 {
				t.Errorf("trial %d: proc %d finished with %d suspended sends", trial, q, c.SuspendedLen())
			}
			gotSends += c.Stats.DataSent
			dropped += c.Stats.Dropped
			retrans += c.Stats.Retransmits
			dupsSent += c.Stats.DupsSent
			acked += c.Stats.Acked
			addrConsumed += c.Stats.AddrConsumed
			dupDropped += int(m.eng.dupDropped[q].Load())
			// A duplicated address package deposited after its receiver
			// finished stays in the slot unconsumed; it is the only kind of
			// message legitimately in flight at termination.
			for src, pkg := range m.be[q].slots {
				if pkg != nil {
					if pkg.Seq > c.addrSeen[src] {
						t.Errorf("trial %d: proc %d finished with a non-duplicate package from %d unconsumed", trial, q, src)
					}
					leftover++
				}
			}
		}
		if gotSends != totalSends {
			t.Errorf("trial %d: %d messages delivered, tables have %d", trial, gotSends, totalSends)
		}
		if retrans != dropped {
			t.Errorf("trial %d: %d retransmits for %d drops (must be equal when every message is eventually delivered)",
				trial, retrans, dropped)
		}
		if dupsSent != dupDropped+leftover {
			t.Errorf("trial %d: %d duplicates injected, %d discarded + %d in flight at termination",
				trial, dupsSent, dupDropped, leftover)
		}
		if acked != totalSends+addrConsumed {
			t.Errorf("trial %d: %d acked, want %d data + %d address packages", trial, acked, totalSends, addrConsumed)
		}
		totalDropped += dropped
	}
	if totalDropped == 0 {
		t.Error("DropFrac 0.3 lost no transmissions across all trials")
	}
}

// TestCoreLossDeterministic: two runs with the same seed produce identical
// reliability counters.
func TestCoreLossDeterministic(t *testing.T) {
	s := figure2Schedule(t)
	pl := planFor(t, s)
	f := Faults{Seed: 7, DropFrac: 0.4, DupFrac: 0.3}
	m1 := newLoopMachine(t, s, pl, f)
	m1.run(t)
	m2 := newLoopMachine(t, s, pl, f)
	m2.run(t)
	for q := range m1.cores {
		if m1.cores[q].Stats != m2.cores[q].Stats {
			t.Errorf("proc %d: same seed, different stats:\n%+v\n%+v", q, m1.cores[q].Stats, m2.cores[q].Stats)
		}
	}
}

// TestCoreRetryBudgetExhaustion: with DropFrac 1 every transmission is
// lost, so the first message must exhaust its retry budget and abort the
// run with a descriptive error instead of hanging.
func TestCoreRetryBudgetExhaustion(t *testing.T) {
	s := figure2Schedule(t)
	pl := planFor(t, s)
	m := newLoopMachine(t, s, pl, Faults{Seed: 9, DropFrac: 1})
	err := m.runE()
	if err == nil || !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("want retry-budget error, got %v", err)
	}
}

// TestRTOBackoff: the retransmission timeout starts at RTO and grows by
// Backoff with every further loss of the same message.
func TestRTOBackoff(t *testing.T) {
	for attempt, want := range map[int32]float64{1: RTO, 2: RTO * Backoff, 3: RTO * Backoff * Backoff, 4: RTO * Backoff * Backoff * Backoff} {
		if got := rto(attempt); got != want {
			t.Errorf("rto(%d) = %v, want %v", attempt, got, want)
		}
	}
	if !(Faults{DropFrac: 0.1}).Enabled() || !(Faults{DupFrac: 0.1}).Enabled() {
		t.Error("drop/dup fractions must enable injection")
	}
}

// TestDropDupDeterministic: loss and duplication verdicts are pure
// functions of (seed, message identity, attempt); a retransmission rolls a
// fresh verdict, and fraction 1/0 drop everything/nothing.
func TestDropDupDeterministic(t *testing.T) {
	f1 := Faults{Seed: 42, DropFrac: 0.5, DupFrac: 0.5}
	f2 := Faults{Seed: 42, DropFrac: 0.5, DupFrac: 0.5}
	for i := 0; i < 100; i++ {
		snd := Send{Obj: graph.ObjID(i % 7), Dst: graph.Proc(i % 3), Seq: int32(i)}
		for attempt := int32(1); attempt <= 3; attempt++ {
			if f1.dropData(snd, attempt) != f2.dropData(snd, attempt) {
				t.Fatalf("send %d attempt %d: same seed, different drop verdicts", i, attempt)
			}
			if f1.dropAddr(graph.Proc(i%3), graph.Proc(i%5), int32(i), attempt) !=
				f2.dropAddr(graph.Proc(i%3), graph.Proc(i%5), int32(i), attempt) {
				t.Fatalf("addr %d attempt %d: same seed, different drop verdicts", i, attempt)
			}
		}
		if f1.dupData(snd) != f2.dupData(snd) || f1.dupAddr(graph.Proc(i%3), graph.Proc(i%5), int32(i)) != f2.dupAddr(graph.Proc(i%3), graph.Proc(i%5), int32(i)) {
			t.Fatalf("message %d: same seed, different dup verdicts", i)
		}
	}
	all := Faults{Seed: 1, DropFrac: 1, DupFrac: 1}
	var none Faults
	for i := 0; i < 20; i++ {
		snd := Send{Obj: graph.ObjID(i), Dst: 1, Seq: int32(i)}
		if !all.dropData(snd, 1) || none.dropData(snd, 1) {
			t.Fatalf("send %d: frac-1 must drop, frac-0 must not", i)
		}
		if !all.dupData(snd) || none.dupData(snd) {
			t.Fatalf("send %d: frac-1 must duplicate, frac-0 must not", i)
		}
	}
}

// TestNewEngineRejectsUnexecutablePlan: the engine refuses plans that do
// not fit their capacity.
func TestNewEngineRejectsUnexecutablePlan(t *testing.T) {
	s := figure2Schedule(t)
	_, err := NewEngine(s, &mem.Plan{Capacity: 3}, Derive(s), Faults{})
	if err == nil || !strings.Contains(err.Error(), "not executable") {
		t.Fatalf("want not-executable error, got %v", err)
	}
}

// TestNewEngineRejectsForeignTables: tables bound to one MAP plan, or to
// none, do not run another; the engine refuses them rather than binding a
// copy for the run.
func TestNewEngineRejectsForeignTables(t *testing.T) {
	s := figure2Schedule(t)
	tight, err := mem.NewPlan(s, s.MinMem())
	if err != nil {
		t.Fatal(err)
	}
	full, err := mem.NewPlan(s, s.TOT())
	if err != nil {
		t.Fatal(err)
	}
	tb := Derive(s)
	for i, tables := range []*Tables{tb, tb.Bind(tight)} {
		if _, err := NewEngine(s, full, tables, Faults{}); err == nil || !strings.Contains(err.Error(), "another MAP plan") {
			t.Errorf("tables %d (unbound, foreign): want a foreign-tables error, got %v", i, err)
		}
	}
	if _, err := NewEngine(s, full, tb.Bind(full), Faults{}); err != nil {
		t.Fatalf("tables bound to the plan: %v", err)
	}
}

// TestStateNames: the State stringer and StateNames agree and cover all
// five protocol states.
func TestStateNames(t *testing.T) {
	names := StateNames()
	if len(names) != int(NumStates) {
		t.Fatalf("%d names for %d states", len(names), NumStates)
	}
	want := []string{"REC", "EXE", "SND", "MAP", "END"}
	for i, w := range want {
		if names[i] != w || State(i).String() != w {
			t.Errorf("state %d: %q / %q, want %q", i, names[i], State(i).String(), w)
		}
	}
	if !strings.Contains(State(99).String(), "99") {
		t.Error("out-of-range state should print its number")
	}
}
