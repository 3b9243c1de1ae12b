// engine.go is the dynamic half of the protocol: a backend-agnostic Core
// that owns every REC/EXE/SND/MAP/END transition of the paper's five-state
// execution protocol (Section 3.3). The static tables (proto.Derive) say
// WHAT must be communicated; the Core decides WHEN, in the order the
// deadlock-freedom proof (Theorem 1) requires:
//
//	REC  wait for the arrival counters of the current task's volatile
//	     objects and its cross-processor control signals,
//	EXE  run the task (the driver runs or charges the kernel),
//	SND  issue the task's data messages; messages whose remote address is
//	     unknown go onto the suspended-send queue,
//	MAP  free dead volatile objects, allocate ahead, deposit address
//	     packages (retrying while a peer's single slot is occupied),
//	END  drain the suspended-send queue.
//
// Exactly one implementation of these transitions exists; the concurrent
// executor (internal/exec, wall clock, goroutines, real RMA buffers) and
// the discrete-event simulator (internal/machine, virtual clock, T3D cost
// model) are thin drivers that supply a Backend each. Because every
// transition flows through this choke point, fault injection (Faults) and
// per-state occupancy accounting (Occupancy) apply to both executors
// uniformly.
package proto

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/util"
)

// State enumerates the five protocol states. It indexes Occupancy.
type State int8

const (
	StateREC State = iota
	StateEXE
	StateSND
	StateMAP
	StateEND
	// NumStates is the number of protocol states (the Occupancy length).
	NumStates
)

var stateNames = [NumStates]string{"REC", "EXE", "SND", "MAP", "END"}

func (s State) String() string {
	if s < 0 || s >= NumStates {
		return fmt.Sprintf("State(%d)", int(s))
	}
	return stateNames[s]
}

// StateNames returns the five protocol state names in Occupancy order.
func StateNames() []string { return append([]string(nil), stateNames[:]...) }

// Occupancy is the time one processor spent in each protocol state,
// indexed by State. The unit is whatever clock the driver passes to the
// Core: wall-clock seconds for the concurrent executor, virtual seconds
// for the simulator.
type Occupancy [NumStates]float64

// Total returns the time accounted across all states.
func (o Occupancy) Total() float64 {
	t := 0.0
	for _, v := range o {
		t += v
	}
	return t
}

// Faults configures deterministic fault injection at the protocol's two
// message choke points. A delayed address package fails its first deposit
// attempt (the MAP retries exactly as if the peer's slot were occupied); a
// delayed data message is forced through the suspended-send queue even
// when its remote address is already known (the next CQ dispatches it).
// A *dropped* message is lost in transit — the receiver never sees it —
// and the sender's reliability layer retransmits it after a timeout with
// exponential backoff; a *duplicated* message is delivered twice and the
// receiver's sequence-number dedup discards the second copy.
// Decisions are pure functions of (Seed, message identity, attempt
// number), so the wall-clock and virtual-clock backends fail the same
// transmissions, and a perturbed run must still terminate with results
// identical to a fault-free one — the protocol's liveness claim, and now
// Theorem 1's every-message-is-delivered assumption, made checkable.
type Faults struct {
	// Seed selects the (deterministic) set of perturbed messages.
	Seed uint64
	// AddrFrac is the fraction of address packages delayed one round.
	AddrFrac float64
	// DataFrac is the fraction of data messages forced to suspend once.
	DataFrac float64
	// DropFrac is the fraction of transmissions (address packages and data
	// messages) lost in transit. Each retransmission attempt rolls again,
	// so a message is lost for good only when MaxRetries is exhausted.
	DropFrac float64
	// DupFrac is the fraction of delivered data messages and address
	// packages that arrive twice; receivers discard the extra copy.
	DupFrac float64
	// RTO is the base retransmission timeout in clock seconds (wall-clock
	// for the executor, virtual for the simulator). 0 means DefaultRTO.
	RTO float64
	// Backoff multiplies the timeout after every lost transmission.
	// 0 means DefaultBackoff.
	Backoff float64
	// MaxRetries caps the retransmissions of one message; exceeding it
	// aborts the run with an error. 0 means DefaultMaxRetries.
	MaxRetries int
}

// Reliability-layer defaults (used when the corresponding Faults field is
// zero). The RTO is deliberately far above the simulated network latency
// and far below the executor watchdog window, so both clocks resolve a
// retransmission without tripping liveness checks.
const (
	DefaultRTO        = 50e-6
	DefaultBackoff    = 2.0
	DefaultMaxRetries = 12
)

// Enabled reports whether any fault injection is configured.
func (f Faults) Enabled() bool {
	return f.AddrFrac > 0 || f.DataFrac > 0 || f.DropFrac > 0 || f.DupFrac > 0
}

func (f Faults) maxRetries() int {
	if f.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return f.MaxRetries
}

// rto returns the retransmission timeout after the attempt-th lost
// transmission (1-based): RTO · Backoff^(attempt−1).
func (f Faults) rto(attempt int32) float64 {
	d := f.RTO
	if d <= 0 {
		d = DefaultRTO
	}
	b := f.Backoff
	if b <= 0 {
		b = DefaultBackoff
	}
	for i := int32(1); i < attempt; i++ {
		d *= b
	}
	return d
}

// hit converts a hash to a [0,1) coin toss against frac.
func hit(h uint64, frac float64) bool {
	return frac > 0 && float64(h>>11)/float64(1<<53) < frac
}

// delayData decides whether the data message snd is delayed. The key
// (Obj, Dst, Seq) identifies a message uniquely machine-wide.
func (f Faults) delayData(snd Send) bool {
	return hit(util.Hash64(f.Seed, 0xDA7A, uint64(snd.Obj), uint64(snd.Dst), uint64(snd.Seq)), f.DataFrac)
}

// delayAddr decides whether the address package of src's mapIdx-th MAP to
// dst is delayed.
func (f Faults) delayAddr(src, dst graph.Proc, mapIdx int) bool {
	return hit(util.Hash64(f.Seed, 0xADD2, uint64(src), uint64(dst), uint64(mapIdx)), f.AddrFrac)
}

// dropData decides whether the attempt-th transmission (1-based) of data
// message snd is lost in transit. The attempt number is part of the key so
// a retransmission can succeed where the original was lost — and because
// the attempt sequence of a message is itself deterministic, both backends
// lose exactly the same transmissions.
func (f Faults) dropData(snd Send, attempt int32) bool {
	return hit(util.Hash64(f.Seed, 0xD209, uint64(snd.Obj), uint64(snd.Dst), uint64(snd.Seq), uint64(attempt)), f.DropFrac)
}

// dupData decides whether the (eventually delivered) data message snd
// arrives in duplicate.
func (f Faults) dupData(snd Send) bool {
	return hit(util.Hash64(f.Seed, 0xD0B1, uint64(snd.Obj), uint64(snd.Dst), uint64(snd.Seq)), f.DupFrac)
}

// dropAddr decides whether the attempt-th transmission of src's seq-th
// address package to dst is lost in transit.
func (f Faults) dropAddr(src, dst graph.Proc, seq, attempt int32) bool {
	return hit(util.Hash64(f.Seed, 0xAD09, uint64(src), uint64(dst), uint64(seq), uint64(attempt)), f.DropFrac)
}

// dupAddr decides whether src's seq-th address package to dst arrives in
// duplicate.
func (f Faults) dupAddr(src, dst graph.Proc, seq int32) bool {
	return hit(util.Hash64(f.Seed, 0xADB1, uint64(src), uint64(dst), uint64(seq)), f.DupFrac)
}

// Backend supplies a Core with the mechanics that differ between the
// wall-clock executor and the virtual-clock simulator. Every method is
// called only by the Core's own driver (one logical processor), never
// concurrently for the same Core.
type Backend interface {
	// ApplyMAP performs a MAP's frees and allocations on local memory.
	ApplyMAP(m *mem.MAP) error
	// TryNotify attempts to deposit the address package for the given
	// freshly allocated objects into dst's slot; it reports false while
	// dst has not consumed the previous package (single-slot handshake).
	// seq is the package's per-(src,dst) sequence number; receivers use it
	// to discard duplicated deliveries.
	TryNotify(dst graph.Proc, objs []graph.ObjID, seq int32) bool
	// ReadAddresses is the RA operation: consume every address package
	// currently pending for this processor. Returns the packages consumed.
	ReadAddresses() int
	// AddrKnown reports whether the remote buffer address for snd has been
	// learned through an address package (or preprocessing).
	AddrKnown(snd Send) bool
	// SendData dispatches one data message; AddrKnown(snd) must hold.
	SendData(snd Send)
	// SendCtl delivers one control signal toward task t.
	SendCtl(t graph.TaskID)
	// CtlCount returns the control signals received for task t so far.
	CtlCount(t graph.TaskID) int32
	// Arrived returns the arrival counter of local object o and whether o
	// is currently allocated.
	Arrived(o graph.ObjID) (int32, bool)
	// WakeAfter registers a wake timer: the backend must guarantee this
	// processor's driver runs Poll and Advance again no later than delay
	// clock seconds from now (delay 0: as soon as possible). The Core arms
	// it whenever its next step depends on time rather than on a peer's
	// deposit — fault-delayed messages and retransmission timers (RTO with
	// backoff) — so a driver may park the processor between events without
	// losing liveness. The contract is binding for both backends: the
	// wall-clock executor schedules the wake on its timer wheel, the
	// virtual-clock simulator pushes a wake event.
	WakeAfter(delay float64)
}

// Engine is the immutable shared state of one protocol run: the schedule,
// the MAP plan, the derived communication tables and the fault plan. Both
// executors build one Engine and drive one Core per processor off it.
type Engine struct {
	S      *sched.Schedule
	Plan   *mem.Plan
	Tables *Tables
	Faults Faults
}

// NewEngine binds a schedule, its MAP plan and the protocol tables derived
// from the schedule (Derive; a compiled artifact carries its own, see
// plan.Artifact.Tables) into the shared state of one run. The plan must be
// executable (use mem.NewPlan and check Executable first).
func NewEngine(s *sched.Schedule, plan *mem.Plan, tables *Tables, f Faults) (*Engine, error) {
	if !plan.Executable {
		return nil, fmt.Errorf("proto: plan is not executable under capacity %d", plan.Capacity)
	}
	return &Engine{S: s, Plan: plan, Tables: tables, Faults: f}, nil
}

// WaitKind classifies what a Blocked processor is waiting on. Drivers use
// it to decide what event can unblock the processor (and watchdogs report
// it, so a stall dump says not just *that* a processor is parked but *why*).
type WaitKind int8

const (
	// WaitNone: the processor is not blocked.
	WaitNone WaitKind = iota
	// WaitArrival: REC — a volatile input's arrival counter is below its
	// threshold; a peer's data deposit unblocks.
	WaitArrival
	// WaitCtl: REC — cross-processor control signals outstanding; a peer's
	// task completion unblocks.
	WaitCtl
	// WaitAddrSlot: MAP — a destination has not consumed the previous
	// address package; the destination's next RA unblocks.
	WaitAddrSlot
	// WaitAddr: SND/END — a queued data message's remote buffer address has
	// not been learned yet; the consumer's address package unblocks.
	WaitAddr
	// WaitTimer: a retransmission (or fault-delay) timer must expire before
	// the next transmission attempt; only time unblocks.
	WaitTimer
)

var waitNames = [...]string{"none", "arrival", "ctl", "addr-slot", "addr", "timer"}

func (k WaitKind) String() string {
	if k < 0 || int(k) >= len(waitNames) {
		return fmt.Sprintf("WaitKind(%d)", int(k))
	}
	return waitNames[k]
}

// Wait describes what a Blocked processor is waiting on: the reason plus
// the identity of the thing being waited for. It is diagnostic AND
// operational: an event-driven driver may park the processor until the
// matching event (or Due, when a timer is armed) instead of polling.
type Wait struct {
	Kind WaitKind
	// Obj is the waited-on object (WaitArrival, WaitAddr).
	Obj graph.ObjID
	// Task is the gated task (WaitArrival, WaitCtl).
	Task graph.TaskID
	// Dst is the peer processor involved (WaitAddrSlot, WaitAddr).
	Dst graph.Proc
	// Have/Want are counter progress for WaitArrival and WaitCtl.
	Have, Want int32
	// Due is the earliest armed retransmission deadline among this
	// processor's queued messages, in clock seconds (0: no timer armed).
	// The driver's WakeAfter timer already covers it; Due makes the
	// deadline visible to watchdogs and tests.
	Due float64
}

// StatusKind classifies what a Core needs from its driver next.
type StatusKind int8

const (
	// Blocked: the processor cannot advance. Status.Wait says what it is
	// waiting on. The driver must Poll (RA/CQ) and call Advance again once
	// something may have changed — for an event-driven driver, after the
	// next wake signal or WakeAfter timer.
	Blocked StatusKind = iota
	// RunTask: the driver runs (executor) or charges (simulator) the
	// kernel of Status.Task, then calls TaskDone.
	RunTask
	// RunMAP: the MAP's memory work has been applied and its address
	// packages queued; the driver charges the MAP cost, if any, then calls
	// Advance again (which deposits the queued packages).
	RunMAP
	// Finished: all tasks ran and the suspended-send queue is empty.
	Finished
)

// Status is the result of one Advance call.
type Status struct {
	Kind StatusKind
	// State is the blocking protocol state when Kind == Blocked.
	State State
	// Wait is what the processor is waiting on when Kind == Blocked.
	Wait Wait
	// Task is the task to run when Kind == RunTask.
	Task graph.TaskID
	// MAP is the executed allocation point when Kind == RunMAP.
	MAP *mem.MAP
}

// Stats counts the protocol events of one processor.
type Stats struct {
	// MAPs is the number of memory allocation points executed.
	MAPs int
	// TasksRun is the number of tasks completed.
	TasksRun int
	// DataSent is the number of data messages dispatched (direct + queue).
	DataSent int
	// DataSuspended is the number of sends that went through the
	// suspended-send queue (address unknown at SND, or fault-delayed).
	DataSuspended int
	// CtlSent is the number of control signals issued.
	CtlSent int
	// AddrConsumed is the number of address packages read (RA), net of
	// discarded duplicates.
	AddrConsumed int
	// FaultsInjected is the number of messages fault injection delayed.
	FaultsInjected int
	// Dropped is the number of transmissions (data messages and address
	// packages) this processor lost to injected message loss.
	Dropped int
	// Retransmits is the number of retransmissions this processor
	// performed after losing a transmission (attempts beyond the first).
	Retransmits int
	// DupsSent is the number of duplicate copies injected into this
	// processor's deliveries; every one is discarded by the receiver's
	// sequence-number dedup.
	DupsSent int
	// Acked is the number of transmissions confirmed delivered exactly
	// once (data messages plus address packages).
	Acked int
	// BlockedAdvances counts the Advance calls that returned Blocked — the
	// driver-visible spin count. An event-driven driver advances a blocked
	// processor only when something changed, so this stays within a small
	// factor of the machine's message count; a busy-polling driver shows
	// orders of magnitude more. It is timing-dependent and deliberately NOT
	// part of the backend-equivalence comparison.
	BlockedAdvances int
}

// Reliability summarizes the ack/retransmit layer for one processor.
// Retransmits, Dropped, DupsSent and Acked are sender-side (from Stats);
// DupDropped is receiver-side, counted by the backend that discarded the
// duplicate deliveries. Machine-wide, DupsSent must equal DupDropped.
type Reliability struct {
	// Retransmits is the number of retransmissions performed.
	Retransmits int
	// Dropped is the number of transmissions lost to injected faults.
	Dropped int
	// DupsSent is the number of duplicate copies injected into deliveries.
	DupsSent int
	// DupDropped is the number of duplicate deliveries this processor's
	// receivers discarded via sequence-number dedup.
	DupDropped int
	// Acked is the number of transmissions confirmed delivered.
	Acked int
}

// Reliability extracts the sender-side reliability counters, attaching the
// receiver-side duplicate-discard count the backend observed.
func (s Stats) Reliability(dupDropped int) Reliability {
	return Reliability{
		Retransmits: s.Retransmits,
		Dropped:     s.Dropped,
		DupsSent:    s.DupsSent,
		DupDropped:  dupDropped,
		Acked:       s.Acked,
	}
}

// SumReliability folds per-processor reliability counters into a
// machine-wide total.
func SumReliability(rs []Reliability) Reliability {
	var t Reliability
	for _, r := range rs {
		t.Retransmits += r.Retransmits
		t.Dropped += r.Dropped
		t.DupsSent += r.DupsSent
		t.DupDropped += r.DupDropped
		t.Acked += r.Acked
	}
	return t
}

// pendPkg is one not-yet-deposited address package of the current MAP.
type pendPkg struct {
	dst  graph.Proc
	objs []graph.ObjID
	// seq is the per-(src,dst) package sequence number (1-based).
	seq     int32
	delayed bool
	// dup marks an injected duplicate copy of an already-delivered
	// package; it skips loss/duplication rolls and is discarded by the
	// receiver's dedup when it lands.
	dup bool
	// attempt counts transmissions lost so far; due is the time the next
	// retransmission may go out.
	attempt int32
	due     float64
}

// outSend is one data message in the outbound (suspended-send) queue:
// waiting for its remote address, for a retransmission timer, or for an
// earlier message with the same (object, destination) to be delivered
// first (per-key FIFO keeps versions arriving in sequence order).
type outSend struct {
	snd     Send
	attempt int32
	due     float64
}

func sendKey(snd Send) [2]int32 { return [2]int32{int32(snd.Obj), int32(snd.Dst)} }

// Core is the per-processor protocol state machine. Drivers loop on
// Advance, acting on the returned Status, and call Poll in every blocking
// state — the RA/CQ discipline the deadlock-freedom proof requires.
type Core struct {
	eng   *Engine
	be    Backend
	p     graph.Proc
	order []graph.TaskID
	maps  []mem.MAP

	pos     int32
	mapIdx  int
	pend    []pendPkg
	curTask graph.TaskID

	// outq is the outbound data-message queue (the paper's suspended-send
	// queue, extended with retransmission state); outKeys counts queued
	// entries per (object, destination) so fresh sends cannot overtake a
	// queued predecessor of the same key.
	outq    []outSend
	outKeys map[[2]int32]int
	// addrSeq numbers the address packages sent to each destination.
	addrSeq []int32
	// err latches a fatal protocol error (retry budget exhausted) that the
	// next Advance surfaces.
	err error

	// Stats accumulates protocol event counts; read it after Finished.
	Stats Stats

	occ      Occupancy
	cur      State
	tracking bool
	stamp    float64
}

// NewCore returns the protocol state machine for processor p backed by be.
func (e *Engine) NewCore(p graph.Proc, be Backend) *Core {
	return &Core{
		eng:     e,
		be:      be,
		p:       p,
		order:   e.S.Order[p],
		maps:    e.Plan.Procs[p].MAPs,
		addrSeq: make([]int32, e.S.P),
	}
}

// Proc returns the processor this core drives.
func (c *Core) Proc() graph.Proc { return c.p }

// Pos returns the current position in the processor's task order.
func (c *Core) Pos() int32 { return c.pos }

// SuspendedLen returns the current outbound (suspended-send) queue length.
func (c *Core) SuspendedLen() int { return len(c.outq) }

// RetransPending returns the number of queued messages — data sends plus
// address packages — currently awaiting a retransmission timer after an
// injected loss. Watchdogs report it to make loss-induced stalls
// diagnosable.
func (c *Core) RetransPending() int {
	n := 0
	for i := range c.outq {
		if c.outq[i].attempt > 0 {
			n++
		}
	}
	for i := range c.pend {
		if c.pend[i].attempt > 0 {
			n++
		}
	}
	return n
}

// CurrentState returns the protocol state the core last entered.
func (c *Core) CurrentState() State { return c.cur }

// Occupancy returns the per-state time accumulated so far.
func (c *Core) Occupancy() Occupancy { return c.occ }

// enter switches occupancy accounting to state s at time now.
func (c *Core) enter(s State, now float64) {
	if c.tracking {
		c.occ[c.cur] += now - c.stamp
	}
	c.cur, c.stamp, c.tracking = s, now, true
}

// closeOcc stops occupancy accounting (the processor is done).
func (c *Core) closeOcc(now float64) {
	if c.tracking {
		c.occ[c.cur] += now - c.stamp
		c.tracking = false
	}
}

// Advance moves the processor to its next protocol decision point and
// tells the driver what to do. It never blocks.
func (c *Core) Advance(now float64) (Status, error) {
	if c.err != nil {
		return Status{}, c.err
	}
	// Finish the MAP handshake: deposit queued address packages, retrying
	// while a destination's single slot is occupied (or, after an injected
	// loss, while the retransmission timer runs).
	if len(c.pend) > 0 {
		if !c.flushNotify(now) {
			if c.err != nil {
				return Status{}, c.err
			}
			c.enter(StateMAP, now)
			c.Stats.BlockedAdvances++
			return Status{Kind: Blocked, State: StateMAP, Wait: c.pendWait(now)}, nil
		}
	}
	// MAP state: at most one allocation point per order position.
	if c.mapIdx < len(c.maps) && c.maps[c.mapIdx].Pos == c.pos {
		m := &c.maps[c.mapIdx]
		c.mapIdx++
		c.Stats.MAPs++
		c.enter(StateMAP, now)
		if err := c.be.ApplyMAP(m); err != nil {
			return Status{}, err
		}
		c.queueNotify(m)
		return Status{Kind: RunMAP, MAP: m}, nil
	}
	// END state: out of tasks, drain the outbound queue.
	if int(c.pos) >= len(c.order) {
		if len(c.outq) > 0 {
			c.enter(StateEND, now)
			c.Stats.BlockedAdvances++
			return Status{Kind: Blocked, State: StateEND, Wait: c.outWait(now)}, nil
		}
		c.closeOcc(now)
		return Status{Kind: Finished}, nil
	}
	// REC state for the next task.
	t := c.order[c.pos]
	c.curTask = t
	ok, err := c.ready(t)
	if err != nil {
		return Status{}, err
	}
	if !ok {
		c.enter(StateREC, now)
		c.Stats.BlockedAdvances++
		return Status{Kind: Blocked, State: StateREC, Task: t, Wait: c.recWait(t)}, nil
	}
	// EXE state: hand the task to the driver.
	c.enter(StateEXE, now)
	return Status{Kind: RunTask, Task: t}, nil
}

// pendWait derives the Wait of a MAP-blocked processor from its pending
// address packages: an occupied destination slot if any package could go
// out now, otherwise the earliest retransmission deadline.
func (c *Core) pendWait(now float64) Wait {
	w := Wait{Kind: WaitTimer}
	for i := range c.pend {
		pk := &c.pend[i]
		if pk.due > now {
			if w.Due == 0 || pk.due < w.Due {
				w.Due = pk.due
			}
			continue
		}
		if w.Kind != WaitAddrSlot {
			w.Kind, w.Dst = WaitAddrSlot, pk.dst
		}
	}
	return w
}

// outWait derives the Wait of an END-blocked processor from the outbound
// queue's head: an unlearned remote address, or a running retransmission
// timer. Due is the earliest deadline across the whole queue.
func (c *Core) outWait(now float64) Wait {
	w := Wait{Kind: WaitAddr, Obj: c.outq[0].snd.Obj, Dst: c.outq[0].snd.Dst}
	if c.be.AddrKnown(c.outq[0].snd) {
		w.Kind = WaitTimer
	}
	for i := range c.outq {
		if due := c.outq[i].due; due > now && (w.Due == 0 || due < w.Due) {
			w.Due = due
		}
	}
	return w
}

// recWait derives the Wait of a REC-blocked processor: the first unmet
// control-signal or arrival requirement of the gating task. Counters are
// re-read from the backend, so a deposit racing with the blocked verdict
// may leave no unmet requirement; the generic fallback is harmless — the
// driver's next Advance will see the task ready.
func (c *Core) recWait(t graph.TaskID) Wait {
	if have, want := c.be.CtlCount(t), c.eng.Tables.CtlNeed[t]; have < want {
		return Wait{Kind: WaitCtl, Task: t, Have: have, Want: want}
	}
	for _, need := range c.eng.Tables.NeedsOf(t) {
		got, ok := c.be.Arrived(need.Obj)
		if !ok || got < need.MinArrivals {
			return Wait{Kind: WaitArrival, Task: t, Obj: need.Obj, Have: got, Want: need.MinArrivals}
		}
	}
	return Wait{Kind: WaitArrival, Task: t}
}

// queueNotify stages the MAP's address packages in deterministic
// destination order and applies the fault plan to each.
func (c *Core) queueNotify(m *mem.MAP) {
	if len(m.Notify) == 0 {
		return
	}
	dsts := make([]graph.Proc, 0, len(m.Notify))
	for dst := range m.Notify { //det:ok collected and sorted below
		dsts = append(dsts, dst)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, dst := range dsts {
		c.addrSeq[dst]++
		c.pend = append(c.pend, pendPkg{
			dst:     dst,
			objs:    m.Notify[dst],
			seq:     c.addrSeq[dst],
			delayed: c.eng.Faults.delayAddr(c.p, dst, c.mapIdx-1),
		})
	}
}

// flushNotify attempts every pending address package once and reports
// whether all went out. A fault-delayed package skips one attempt; a
// dropped transmission stays queued until its retransmission timer (RTO
// with exponential backoff) expires; a successfully deposited package may
// be followed by an injected duplicate copy, which travels through the
// same single-slot handshake and is discarded by the receiver's dedup.
func (c *Core) flushNotify(now float64) bool {
	kept := c.pend[:0]
	for i := range c.pend {
		pk := c.pend[i]
		if pk.delayed {
			pk.delayed = false
			c.Stats.FaultsInjected++
			c.be.WakeAfter(0)
			kept = append(kept, pk)
			continue
		}
		if pk.due > now {
			c.be.WakeAfter(pk.due - now)
			kept = append(kept, pk)
			continue
		}
		if !pk.dup && c.eng.Faults.dropAddr(c.p, pk.dst, pk.seq, pk.attempt+1) {
			// This transmission is lost in transit: the slot is untouched
			// and the receiver sees nothing. Arm the retransmission timer.
			pk.attempt++
			if pk.attempt > 1 {
				c.Stats.Retransmits++
			}
			c.Stats.Dropped++
			if int(pk.attempt) > c.eng.Faults.maxRetries() {
				c.err = fmt.Errorf("proto: proc %d: address package %d to processor %d lost %d times, retry budget %d exhausted",
					c.p, pk.seq, pk.dst, pk.attempt, c.eng.Faults.maxRetries())
				kept = append(kept, pk)
				continue
			}
			pk.due = now + c.eng.Faults.rto(pk.attempt)
			c.be.WakeAfter(pk.due - now)
			kept = append(kept, pk)
			continue
		}
		if !c.be.TryNotify(pk.dst, pk.objs, pk.seq) {
			// Slot occupied: the ordinary MAP handshake retry, not a loss.
			kept = append(kept, pk)
			continue
		}
		if pk.dup {
			c.Stats.DupsSent++
			continue
		}
		if pk.attempt > 0 {
			c.Stats.Retransmits++
		}
		c.Stats.Acked++
		if c.eng.Faults.dupAddr(c.p, pk.dst, pk.seq) {
			// Queue an identical second copy; it deposits once the slot
			// frees and the receiver discards it by sequence number.
			kept = append(kept, pendPkg{dst: pk.dst, objs: pk.objs, seq: pk.seq, dup: true})
		}
	}
	c.pend = kept
	return len(c.pend) == 0
}

// pushOut appends a data message to the outbound queue.
func (c *Core) pushOut(m outSend) {
	if c.outKeys == nil {
		c.outKeys = make(map[[2]int32]int)
	}
	c.outKeys[sendKey(m.snd)]++
	c.outq = append(c.outq, m)
}

// transmit performs one transmission attempt of m's data message and
// reports whether it was delivered. A lost attempt arms m's retransmission
// timer (exponential backoff, capped retry budget); a delivered message may
// be followed by an injected duplicate copy that the receiver discards.
func (c *Core) transmit(m *outSend, now float64) bool {
	m.attempt++
	if m.attempt > 1 {
		c.Stats.Retransmits++
	}
	if c.eng.Faults.dropData(m.snd, m.attempt) {
		c.Stats.Dropped++
		if int(m.attempt) > c.eng.Faults.maxRetries() {
			c.err = fmt.Errorf("proto: proc %d: data message (object %d seq %d to processor %d) lost %d times, retry budget %d exhausted",
				c.p, m.snd.Obj, m.snd.Seq, m.snd.Dst, m.attempt, c.eng.Faults.maxRetries())
			return false
		}
		m.due = now + c.eng.Faults.rto(m.attempt)
		c.be.WakeAfter(m.due - now)
		return false
	}
	c.be.SendData(m.snd)
	c.Stats.DataSent++
	c.Stats.Acked++
	if c.eng.Faults.dupData(m.snd) {
		// Deliver a second copy; the receiver's per-buffer sequence check
		// discards it without touching the arrival counter.
		c.be.SendData(m.snd)
		c.Stats.DupsSent++
	}
	return true
}

// ready implements the REC condition for task t: all cross-processor
// control signals received and every volatile input's arrival counter at
// its threshold.
func (c *Core) ready(t graph.TaskID) (bool, error) {
	if c.be.CtlCount(t) < c.eng.Tables.CtlNeed[t] {
		return false, nil
	}
	for _, need := range c.eng.Tables.NeedsOf(t) {
		got, ok := c.be.Arrived(need.Obj)
		if !ok {
			return false, fmt.Errorf("proto: proc %d task %q needs unallocated object %q (MAP plan hole)",
				c.p, c.eng.S.G.Tasks[t].Name, c.eng.S.G.Objects[need.Obj].Name)
		}
		if got < need.MinArrivals {
			return false, nil
		}
	}
	return true, nil
}

// TaskDone records completion of the task last returned by Advance and
// performs the SND state: data messages whose remote address is unknown —
// or that fault injection delays, or whose (object, destination) key has a
// queued predecessor awaiting retransmission — go onto the outbound queue;
// the rest transmit immediately (and join the queue if that transmission
// is lost).
func (c *Core) TaskDone(now float64) {
	c.enter(StateSND, now)
	t := c.curTask
	c.Stats.TasksRun++
	for _, snd := range c.eng.Tables.SendsOf(t) {
		if c.eng.Faults.delayData(snd) {
			c.Stats.FaultsInjected++
			c.Stats.DataSuspended++
			c.pushOut(outSend{snd: snd})
			c.be.WakeAfter(0)
			continue
		}
		if (len(c.outq) > 0 && c.outKeys[sendKey(snd)] > 0) || !c.be.AddrKnown(snd) {
			c.Stats.DataSuspended++
			c.pushOut(outSend{snd: snd})
			continue
		}
		m := outSend{snd: snd}
		if !c.transmit(&m, now) {
			c.pushOut(m)
		}
	}
	for _, v := range c.eng.Tables.CtlSendsOf(t) {
		c.be.SendCtl(v)
		c.Stats.CtlSent++
	}
	c.pos++
}

// Poll runs RA (read address packages) then CQ (dispatch queued sends
// whose addresses are known and whose retransmission timers have expired,
// FIFO per (object, destination)) — the two operations the protocol
// requires in every blocking state. It reports whether any message moved,
// which drivers use as a progress signal.
func (c *Core) Poll(now float64) bool {
	progress := false
	if n := c.be.ReadAddresses(); n > 0 {
		c.Stats.AddrConsumed += n
		progress = true
	}
	if len(c.outq) > 0 {
		blocked := make(map[[2]int32]bool)
		kept := c.outq[:0]
		for i := range c.outq {
			m := c.outq[i]
			k := sendKey(m.snd)
			if blocked[k] || !c.be.AddrKnown(m.snd) {
				blocked[k] = true
				kept = append(kept, m)
				continue
			}
			if m.due > now {
				// Retransmission timer still running; later messages of the
				// same key must wait behind it to keep versions in order.
				blocked[k] = true
				kept = append(kept, m)
				c.be.WakeAfter(m.due - now)
				continue
			}
			if !c.transmit(&m, now) {
				blocked[k] = true
				kept = append(kept, m)
				continue
			}
			if c.outKeys[k]--; c.outKeys[k] == 0 {
				delete(c.outKeys, k)
			}
			progress = true
		}
		c.outq = kept
	}
	return progress
}

// BlockedInfo describes what the processor is currently waiting on, for
// watchdog timeouts (executor) and deadlock reports (simulator).
func (c *Core) BlockedInfo() string {
	g := c.eng.S.G
	switch {
	case len(c.pend) > 0:
		dsts := make([]graph.Proc, len(c.pend))
		retrans := 0
		for i, pk := range c.pend {
			dsts[i] = pk.dst
			if pk.attempt > 0 {
				retrans++
			}
		}
		return fmt.Sprintf("MAP state: waiting to deposit address packages to processors %v (previous package not yet consumed; %d awaiting retransmission)", dsts, retrans)
	case int(c.pos) >= len(c.order):
		if len(c.outq) > 0 {
			m := c.outq[0]
			why := "address not yet received"
			if m.attempt > 0 {
				why = fmt.Sprintf("lost %d times, awaiting retransmission", m.attempt)
			}
			return fmt.Sprintf("END state: draining %d suspended sends, head is object %q to processor %d (%s)",
				len(c.outq), g.Objects[m.snd.Obj].Name, m.snd.Dst, why)
		}
		return "finished"
	default:
		t := c.order[c.pos]
		if have, want := c.be.CtlCount(t), c.eng.Tables.CtlNeed[t]; have < want {
			return fmt.Sprintf("REC state: task %q at position %d waiting for control signals (%d/%d)",
				g.Tasks[t].Name, c.pos, have, want)
		}
		for _, need := range c.eng.Tables.NeedsOf(t) {
			got, ok := c.be.Arrived(need.Obj)
			if !ok {
				return fmt.Sprintf("REC state: task %q needs unallocated object %q", g.Tasks[t].Name, g.Objects[need.Obj].Name)
			}
			if got < need.MinArrivals {
				return fmt.Sprintf("REC state: task %q at position %d waiting for object %q (arrivals %d/%d)",
					g.Tasks[t].Name, c.pos, g.Objects[need.Obj].Name, got, need.MinArrivals)
			}
		}
		return fmt.Sprintf("ready at task %q, position %d", g.Tasks[t].Name, c.pos)
	}
}
