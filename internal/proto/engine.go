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
// Exactly one implementation of these transitions exists, and exactly one
// copy of the state they read: each Core holds its processor's receive half
// — the rma.Memory ledger, the rma.Buffer arrival counters with their
// sequence-number dedup, the learned-address book — and the run's Engine
// holds the control-signal and duplicate-discard counters. The concurrent
// executor (internal/exec, wall clock, goroutines, numeric payloads) and
// the discrete-event simulator (internal/machine, virtual clock, T3D cost
// model) are thin drivers that supply a Backend each: a transport and a
// clock. Because every transition flows through this choke point, fault
// injection (Faults) and per-state occupancy accounting (Occupancy) apply
// to both executors uniformly.
package proto

import (
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rma"
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

// hit tosses the coin identified by key — a hash of (Seed, key) mapped to
// [0,1) — against frac. A zero fraction, the common case of a run without
// faults, hashes nothing.
func (f Faults) hit(frac float64, key ...uint64) bool {
	return frac > 0 && float64(util.Hash64(f.Seed, key...)>>11)/float64(1<<53) < frac
}

// delayData decides whether the data message snd is delayed. The key
// (Obj, Dst, Seq) identifies a message uniquely machine-wide.
func (f Faults) delayData(snd Send) bool {
	return f.hit(f.DataFrac, 0xDA7A, uint64(snd.Obj), uint64(snd.Dst), uint64(snd.Seq))
}

// delayAddr decides whether the address package of src's mapIdx-th MAP to
// dst is delayed.
func (f Faults) delayAddr(src, dst graph.Proc, mapIdx int) bool {
	return f.hit(f.AddrFrac, 0xADD2, uint64(src), uint64(dst), uint64(mapIdx))
}

// dropData decides whether the attempt-th transmission (1-based) of data
// message snd is lost in transit. The attempt number is part of the key so
// a retransmission can succeed where the original was lost — and because
// the attempt sequence of a message is itself deterministic, both backends
// lose exactly the same transmissions.
func (f Faults) dropData(snd Send, attempt int32) bool {
	return f.hit(f.DropFrac, 0xD209, uint64(snd.Obj), uint64(snd.Dst), uint64(snd.Seq), uint64(attempt))
}

// dupData decides whether the (eventually delivered) data message snd
// arrives in duplicate.
func (f Faults) dupData(snd Send) bool {
	return f.hit(f.DupFrac, 0xD0B1, uint64(snd.Obj), uint64(snd.Dst), uint64(snd.Seq))
}

// dropAddr decides whether the attempt-th transmission of src's seq-th
// address package to dst is lost in transit.
func (f Faults) dropAddr(src, dst graph.Proc, seq, attempt int32) bool {
	return f.hit(f.DropFrac, 0xAD09, uint64(src), uint64(dst), uint64(seq), uint64(attempt))
}

// dupAddr decides whether src's seq-th address package to dst arrives in
// duplicate.
func (f Faults) dupAddr(src, dst graph.Proc, seq int32) bool {
	return f.hit(f.DupFrac, 0xADB1, uint64(src), uint64(dst), uint64(seq))
}

// Backend supplies a Core with what differs between the wall-clock executor
// and the virtual-clock simulator: a transport that moves address packages,
// data messages and control signals toward a peer, a timer, and the
// executor's physical buffers. It holds no protocol state. Every method is
// called only by the Core's own driver (one logical processor), never
// concurrently for the same Core.
type Backend interface {
	// SendAddr moves one address package toward dst; it reports false while
	// dst has not consumed the previous package (single-slot handshake).
	SendAddr(dst graph.Proc, pkg *rma.AddrPackage) bool
	// RecvAddr appends every address package that has arrived for this
	// processor to buf and frees the slots they occupied (waking their
	// senders, which may be retrying a deposit into them).
	RecvAddr(buf []*rma.AddrPackage) []*rma.AddrPackage
	// SendData delivers snd's data message to b, the handle snd.Dst exported
	// for snd.Obj. When the transport's clock says the message landed it
	// deposits with b.Put or b.PutFlagOnly and reports a rejected
	// (duplicate) deposit through Engine.Discarded.
	SendData(snd Send, b *rma.Buffer)
	// SendCtl delivers one control signal toward task t: the transport adds
	// one to Engine.CtlRecv[t] when its clock says the signal landed.
	SendCtl(t graph.TaskID)
	// WakeAfter registers a wake timer: the backend must guarantee this
	// processor's driver runs Poll and Advance again no later than delay
	// clock seconds from now (delay 0: as soon as possible). The Core arms
	// it whenever its next step depends on time rather than on a peer's
	// deposit — fault-delayed messages and retransmission timers (RTO with
	// backoff) — so a driver may park the processor between events without
	// losing liveness. The contract is binding for both backends: the
	// wall-clock executor arms a runtime timer, the virtual-clock simulator
	// pushes a wake event.
	WakeAfter(delay float64)
	// BufLen is the physical length, in float64s, of the buffer backing
	// object o; 0 gives a flag-only buffer (the simulator, and the executor
	// running structure-only).
	BufLen(o graph.ObjID) int64
	// InitBuffer fills a freshly allocated input buffer (b.Data != nil): a
	// permanent object, or a volatile copy no task ever sends.
	InitBuffer(b *rma.Buffer)
}

// Engine is the shared state of one protocol run: the schedule, the MAP
// plan, the derived communication tables and the fault plan, which no one
// writes, plus the two machine-wide counter arrays the transports write.
// Both executors build one Engine per run and drive one Core per processor
// off it.
type Engine struct {
	S      *sched.Schedule
	Plan   *mem.Plan
	Tables *Tables
	Faults Faults
	// Baseline runs the original RAPID executor: the whole volatile space is
	// allocated and every address exchanged during preprocessing, so memory
	// management does no work at run time. It needs a plan whose capacity
	// holds a processor's whole volatile space (the first MAP of a
	// full-capacity plan allocates exactly that). Single-threaded drivers
	// only: the cores share one address book.
	Baseline bool
	// CtlRecv[t] counts the control signals that have landed for task t. A
	// transport adds to it when its clock says a signal arrived; REC reads it.
	CtlRecv []atomic.Int32
	// dupDropped counts, per receiving processor, the duplicate deliveries
	// (data messages and address packages) discarded by sequence number. The
	// executor detects a data duplicate in the sender's goroutine, hence the
	// atomics.
	dupDropped []atomic.Int64
	// known is the machine-wide address book of a Baseline run, by channel.
	known []*rma.Buffer
}

// NewEngine binds a schedule, its MAP plan and the schedule's protocol
// tables bound to that plan (a compiled artifact's, see
// plan.Artifact.Tables) into the shared state of one run. Tables bound to
// another plan, or to none, are an error. The plan must be executable.
func NewEngine(s *sched.Schedule, plan *mem.Plan, tables *Tables, f Faults) (*Engine, error) {
	if !plan.Executable {
		return nil, fmt.Errorf("proto: plan is not executable under capacity %d", plan.Capacity)
	}
	if tables.plan != plan {
		return nil, fmt.Errorf("proto: protocol tables are bound to another MAP plan")
	}
	return &Engine{
		S: s, Plan: plan, Tables: tables, Faults: f,
		CtlRecv:    make([]atomic.Int32, s.G.NumTasks()),
		dupDropped: make([]atomic.Int64, s.P),
	}, nil
}

// Discarded charges one duplicate delivery, rejected by sequence number, to
// the receiving processor p.
func (e *Engine) Discarded(p graph.Proc) { e.dupDropped[p].Add(1) }

// DepositFault is deferred around a transport's rma deposit of snd's data
// message. rma panics when a non-duplicate deposit targets freed space — a
// MAP recycled an address still in use, which the paper's consistency
// theorem forbids of a correct plan — and that becomes the run's error,
// worded here for both backends. The run's first error wins.
func (e *Engine) DepositFault(snd Send, err *error) {
	if r := recover(); r != nil && *err == nil {
		*err = fmt.Errorf("proto: data message (object %q version %d to processor %d) could not be deposited: %v",
			e.S.G.Objects[snd.Obj].Name, snd.Seq, snd.Dst, r)
	}
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
	Wait WaitKind
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
	// CQExamined is the number of queued sends CQ looked at: one per
	// transmission attempt plus one per look at a channel head whose timer
	// still runs. Without faults it equals DataSuspended — every suspended
	// send is examined once, when its address is learned. It is a cost
	// counter, not a protocol event: NOT part of Summary or of the
	// backend-equivalence comparison.
	CQExamined int
}

// Reliability summarizes the ack/retransmit layer for one processor.
// Retransmits, Dropped, DupsSent and Acked are sender-side (from Stats);
// DupDropped is receiver-side: the duplicate deliveries charged to this
// processor through Engine.Discarded. Machine-wide, DupsSent must equal
// DupDropped.
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

// Summary is the run report, whichever backend drove the run: one entry
// per processor, plus the machine-wide message counts. It is declared once;
// exec.Result and machine.Result embed it and the public rapid.Report and
// rapid.SimReport are those types, so a new counter is added here and
// nowhere else. Times are wall-clock seconds from the executor and virtual
// seconds from the simulator.
type Summary struct {
	// MAPsPerProc is the number of MAPs each processor executed.
	MAPsPerProc []int
	// PeakUnits is each processor's peak memory in use (abstract units,
	// permanent + volatile), as booked on its ledger.
	PeakUnits []int64
	// SuspendedSends counts the data messages that went through each
	// processor's suspended-send queue.
	SuspendedSends []int
	// Occupancy is the time each processor spent in each protocol state.
	Occupancy []Occupancy
	// Reliability is each processor's ack/retransmit summary.
	Reliability []Reliability
	// Messages is the number of data messages delivered, and AddrPackages
	// the number of address packages consumed, both net of duplicates.
	Messages, AddrPackages int
}

// Summarize folds the run's finished cores, indexed by processor.
func (e *Engine) Summarize(cores []*Core) Summary {
	n := len(cores)
	sum := Summary{
		MAPsPerProc:    make([]int, n),
		PeakUnits:      make([]int64, n),
		SuspendedSends: make([]int, n),
		Occupancy:      make([]Occupancy, n),
		Reliability:    make([]Reliability, n),
	}
	for p, c := range cores {
		st := &c.Stats
		sum.MAPsPerProc[p] = st.MAPs
		sum.PeakUnits[p] = c.mem.Peak()
		sum.SuspendedSends[p] = st.DataSuspended
		sum.Occupancy[p] = c.occ
		sum.Reliability[p] = Reliability{
			Retransmits: st.Retransmits,
			Dropped:     st.Dropped,
			DupsSent:    st.DupsSent,
			DupDropped:  int(e.dupDropped[p].Load()),
			Acked:       st.Acked,
		}
		sum.Messages += st.DataSent
		sum.AddrPackages += st.AddrConsumed
	}
	return sum
}

// pendPkg is one not-yet-deposited address package of the current MAP.
type pendPkg struct {
	dst graph.Proc
	// pkg carries the exported handles and the per-(src,dst) package
	// sequence number (1-based).
	pkg     *rma.AddrPackage
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
// earlier message of the same channel to be delivered first (the
// per-channel FIFO keeps versions arriving in sequence order).
type outSend struct {
	snd     Send
	attempt int32
	// next is the log index of the channel's next queued message, 0 at the
	// tail.
	next int32
	due  float64
}

// chanFIFO is one channel's queue: the log indices of its oldest and newest
// queued messages, 0 when empty.
type chanFIFO struct{ head, tail int32 }

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

	// The outbound data-message queue (the paper's suspended-send queue,
	// extended with retransmission state). outq logs the queued messages in
	// issue order — a message's index is its issue number; outq[0] is unused
	// so that 0 can mean "none" — and is truncated whenever the queue runs
	// empty. fifo threads one FIFO per channel through the log, so a fresh
	// send cannot overtake a queued predecessor of its channel. armed lists
	// the channels CQ has something to do for: address known and FIFO not
	// empty, i.e. just unblocked by RA or waiting on a retransmission or
	// fault-delay timer; without Faults CQ always leaves it empty. queued
	// counts the undelivered messages.
	outq   []outSend
	fifo   []chanFIFO
	armed  []int32
	queued int
	// addrSeq numbers the address packages sent to each destination.
	addrSeq []int32

	// The receive half. mem is the processor's capacity ledger and the home
	// of its buffers, whose arrival counters REC reads; allocCh is what is
	// left of the channels of its MAP allocations (Tables.AllocChans), one
	// MAP's worth consumed per MAP. addr holds the remote handles learned
	// through address packages, by channel; addrSeen is the highest package
	// sequence number consumed from each source (packages at or below it are
	// duplicates); scratch is the reusable consume buffer of the RA poll,
	// which runs in every blocking state and must not allocate in steady
	// state.
	mem      *rma.Memory
	allocCh  []int32
	addr     []*rma.Buffer
	addrSeen []int32
	scratch  []*rma.AddrPackage

	// err latches a fatal protocol error (retry budget exhausted, failed
	// deposit) that the next Advance surfaces.
	err error

	// Stats accumulates protocol event counts; read it after Finished.
	Stats Stats

	occ      Occupancy
	cur      State
	tracking bool
	stamp    float64
}

// NewCore returns the protocol state machine for processor p backed by be,
// with p's permanent objects allocated and initialised.
func (e *Engine) NewCore(p graph.Proc, be Backend) (*Core, error) {
	g := e.S.G
	c := &Core{
		eng:      e,
		be:       be,
		p:        p,
		order:    e.S.Order[p],
		maps:     e.Plan.Procs[p].MAPs,
		fifo:     make([]chanFIFO, e.Tables.NumChans()),
		addrSeq:  make([]int32, e.S.P),
		mem:      rma.NewMemoryFor(e.Plan.Capacity, g.NumObjects()),
		allocCh:  e.Tables.AllocChans(p),
		addrSeen: make([]int32, e.S.P),
	}
	// The permanent allocation is one event.
	n, floats := 0, int64(0)
	for oi := range g.Objects {
		if g.Objects[oi].Owner == p {
			n++
			floats += rma.SlabLen(be.BufLen(graph.ObjID(oi)))
		}
	}
	c.mem.Reserve(n, floats)
	for oi := range g.Objects {
		if g.Objects[oi].Owner != p {
			continue
		}
		if _, err := c.alloc(graph.ObjID(oi), -1); err != nil {
			return nil, fmt.Errorf("proto: proc %d permanent allocation: %w", p, err)
		}
	}
	if e.Baseline {
		// Preprocessing does every MAP's allocations and tells every producer
		// at once; what is left of the MAPs frees, allocates and notifies
		// nothing.
		if e.known == nil {
			e.known = make([]*rma.Buffer, e.Tables.NumChans())
		}
		c.addr = e.known
		planned := c.maps
		c.maps = make([]mem.MAP, len(planned))
		for i := range planned {
			m := &planned[i]
			c.maps[i] = mem.MAP{Pos: m.Pos, CoverEnd: m.CoverEnd}
			if err := c.allocMAP(m); err != nil {
				return nil, fmt.Errorf("proto: proc %d: Baseline allocates the whole volatile space up front: %w", p, err)
			}
			for _, o := range m.Allocs {
				if b, _ := c.mem.Lookup(o); b.Chan >= 0 {
					e.known[b.Chan] = b
				}
			}
		}
	} else {
		c.addr = make([]*rma.Buffer, e.Tables.NumChans())
	}
	return c, nil
}

// alloc books object o, exported under channel ch, on the ledger. An input
// — a permanent object, or a volatile copy of an object no task ever sends
// (ch < 0), which the runtime's initial data distribution provides — is
// filled now.
func (c *Core) alloc(o graph.ObjID, ch int32) (*rma.Buffer, error) {
	obj := &c.eng.S.G.Objects[o]
	b, err := c.mem.AllocChan(o, ch, obj.Size, c.be.BufLen(o))
	if err == nil && b.Data != nil && (obj.Owner == c.p || ch < 0) {
		c.be.InitBuffer(b)
	}
	return b, err
}

// allocMAP performs m's allocations as one event, each exported under the
// channel the bound tables resolved for it.
func (c *Core) allocMAP(m *mem.MAP) error {
	if len(m.Allocs) > len(c.allocCh) {
		return fmt.Errorf("MAP allocates %d objects but the tables resolved channels for %d more (bound to another plan?)", len(m.Allocs), len(c.allocCh))
	}
	chans := c.allocCh[:len(m.Allocs)]
	c.allocCh = c.allocCh[len(m.Allocs):]
	floats := int64(0)
	for _, o := range m.Allocs {
		floats += rma.SlabLen(c.be.BufLen(o))
	}
	c.mem.Reserve(len(m.Allocs), floats)
	for i, o := range m.Allocs {
		if _, err := c.alloc(o, chans[i]); err != nil {
			return err
		}
	}
	return nil
}

// applyMAP performs one memory allocation point on the ledger.
func (c *Core) applyMAP(m *mem.MAP) error {
	for _, o := range m.Frees {
		if err := c.mem.Free(o, c.eng.S.G.Objects[o].Size); err != nil {
			return fmt.Errorf("proto: proc %d MAP free: %w", c.p, err)
		}
	}
	if err := c.allocMAP(m); err != nil {
		return fmt.Errorf("proto: proc %d MAP alloc (plan said it fits): %w", c.p, err)
	}
	return nil
}

// Lookup returns the live local buffer of object o, if any.
func (c *Core) Lookup(o graph.ObjID) (*rma.Buffer, bool) { return c.mem.Lookup(o) }

// Pos returns the current position in the processor's task order.
func (c *Core) Pos() int32 { return c.pos }

// SuspendedLen returns the current outbound (suspended-send) queue length.
func (c *Core) SuspendedLen() int { return c.queued }

// RetransPending returns the number of queued messages — data sends plus
// address packages — currently awaiting a retransmission timer after an
// injected loss. Watchdogs report it to make loss-induced stalls
// diagnosable.
func (c *Core) RetransPending() int {
	n := 0
	// Only a channel's head is ever transmitted, so only the heads of armed
	// channels can have been lost.
	for _, ch := range c.armed {
		if c.outq[c.fifo[ch].head].attempt > 0 {
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
		if err := c.applyMAP(m); err != nil {
			return Status{}, err
		}
		if err := c.queueNotify(m); err != nil {
			return Status{}, err
		}
		return Status{Kind: RunMAP, MAP: m}, nil
	}
	// END state: out of tasks, drain the outbound queue.
	if int(c.pos) >= len(c.order) {
		if c.queued > 0 {
			c.enter(StateEND, now)
			c.Stats.BlockedAdvances++
			return Status{Kind: Blocked, State: StateEND, Wait: c.outWait()}, nil
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
		return Status{Kind: Blocked, State: StateREC, Wait: c.recWait(t)}, nil
	}
	// EXE state: hand the task to the driver.
	c.enter(StateEXE, now)
	return Status{Kind: RunTask, Task: t}, nil
}

// pendWait classifies the wait of a MAP-blocked processor from its
// pending address packages: an occupied destination slot if any package
// could go out now, otherwise a retransmission timer.
func (c *Core) pendWait(now float64) WaitKind {
	for i := range c.pend {
		if c.pend[i].due <= now {
			return WaitAddrSlot
		}
	}
	return WaitTimer
}

// outWait classifies the wait of an END-blocked processor from the
// outbound queue's head: an unlearned remote address, or a running
// retransmission timer.
func (c *Core) outWait() WaitKind {
	if c.addr[c.queueHead().snd.Chan] != nil {
		return WaitTimer
	}
	return WaitAddr
}

// queueHead returns the oldest queued message: the earliest-issued channel
// head. The queue must not be empty. It serves the END-blocked verdict and
// stall reports, not the task path.
func (c *Core) queueHead() *outSend {
	first := int32(len(c.outq))
	for _, f := range c.fifo {
		if f.head != 0 && f.head < first {
			first = f.head
		}
	}
	return &c.outq[first]
}

// recWait classifies the wait of a REC-blocked processor: outstanding
// control signals, else an arrival. A deposit racing with the blocked
// verdict may leave nothing unmet; the driver's next Advance then sees the
// task ready.
func (c *Core) recWait(t graph.TaskID) WaitKind {
	if c.eng.CtlRecv[t].Load() < c.eng.Tables.CtlNeed[t] {
		return WaitCtl
	}
	return WaitArrival
}

// arrived returns the arrival counter of local object o and whether o is
// currently allocated.
func (c *Core) arrived(o graph.ObjID) (int32, bool) {
	b, ok := c.mem.Lookup(o)
	if !ok {
		return 0, false
	}
	return b.Arrivals(), true
}

// queueNotify stages the MAP's address packages — the handles of the
// buffers it just allocated — in the plan's destination order and applies
// the fault plan to each. A MAP's packages share one allocation, and their
// handle lists another.
func (c *Core) queueNotify(m *mem.MAP) error {
	nt := &m.Notify
	if nt.Len() == 0 {
		return nil
	}
	pkgs := make([]rma.AddrPackage, nt.Len())
	bufs := make([]*rma.Buffer, len(nt.Objs))
	for i, dst := range nt.Dst {
		c.addrSeq[dst]++
		pkg := &pkgs[i]
		pkg.From, pkg.Seq = c.p, c.addrSeq[dst]
		pkg.Buffers = bufs[nt.Off[i]:nt.Off[i+1]:nt.Off[i+1]]
		for j, o := range nt.Objects(i) {
			b, ok := c.mem.Lookup(o)
			if !ok {
				return fmt.Errorf("proto: proc %d MAP notifies processor %d of unallocated object %q",
					c.p, dst, c.eng.S.G.Objects[o].Name)
			}
			pkg.Buffers[j] = b
		}
		c.pend = append(c.pend, pendPkg{
			dst:     dst,
			pkg:     pkg,
			delayed: c.eng.Faults.delayAddr(c.p, dst, c.mapIdx-1),
		})
	}
	return nil
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
		if !pk.dup && c.eng.Faults.dropAddr(c.p, pk.dst, pk.pkg.Seq, pk.attempt+1) {
			// This transmission is lost in transit: the slot is untouched
			// and the receiver sees nothing. Arm the retransmission timer.
			pk.attempt++
			if pk.attempt > 1 {
				c.Stats.Retransmits++
			}
			c.Stats.Dropped++
			if int(pk.attempt) > c.eng.Faults.maxRetries() {
				c.err = fmt.Errorf("proto: proc %d: address package %d to processor %d lost %d times, retry budget %d exhausted",
					c.p, pk.pkg.Seq, pk.dst, pk.attempt, c.eng.Faults.maxRetries())
				kept = append(kept, pk)
				continue
			}
			pk.due = now + c.eng.Faults.rto(pk.attempt)
			c.be.WakeAfter(pk.due - now)
			kept = append(kept, pk)
			continue
		}
		if !c.be.SendAddr(pk.dst, pk.pkg) {
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
		if c.eng.Faults.dupAddr(c.p, pk.dst, pk.pkg.Seq) {
			// Queue an identical second copy; it deposits once the slot
			// frees and the receiver discards it by sequence number.
			kept = append(kept, pendPkg{dst: pk.dst, pkg: pk.pkg, dup: true})
		}
	}
	c.pend = kept
	return len(c.pend) == 0
}

// pushOut appends a data message to the outbound queue, at the tail of its
// channel's FIFO. A channel whose address is known has nothing to wait for
// but CQ (a fault delay) or its timer (a lost transmission): it is armed.
func (c *Core) pushOut(m outSend) {
	if c.queued == 0 {
		c.outq = append(c.outq[:0], outSend{})
	}
	i, ch := int32(len(c.outq)), m.snd.Chan
	c.outq = append(c.outq, m)
	f := &c.fifo[ch]
	if f.head == 0 {
		f.head = i
		if c.addr[ch] != nil {
			c.armed = append(c.armed, ch)
		}
	} else {
		c.outq[f.tail].next = i
	}
	f.tail = i
	c.queued++
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
			c.err = fmt.Errorf("proto: proc %d: data message (object %q version %d to processor %d) lost %d times, retry budget %d exhausted",
				c.p, c.eng.S.G.Objects[m.snd.Obj].Name, m.snd.Seq, m.snd.Dst, m.attempt, c.eng.Faults.maxRetries())
			return false
		}
		m.due = now + c.eng.Faults.rto(m.attempt)
		c.be.WakeAfter(m.due - now)
		return false
	}
	if c.deposit(m.snd); c.err != nil {
		return false
	}
	c.Stats.DataSent++
	c.Stats.Acked++
	if c.eng.Faults.dupData(m.snd) {
		// Deliver a second copy; the receiver's per-buffer sequence check
		// discards it without touching the arrival counter.
		c.deposit(m.snd)
		c.Stats.DupsSent++
	}
	return true
}

// deposit hands snd to the transport with the handle its consumer exported;
// a deposit rma refuses latches the run's error.
func (c *Core) deposit(snd Send) {
	defer c.eng.DepositFault(snd, &c.err)
	c.be.SendData(snd, c.addr[snd.Chan])
}

// ready implements the REC condition for task t: all cross-processor
// control signals received and every volatile input's arrival counter at
// its threshold.
func (c *Core) ready(t graph.TaskID) (bool, error) {
	if c.eng.CtlRecv[t].Load() < c.eng.Tables.CtlNeed[t] {
		return false, nil
	}
	for _, need := range c.eng.Tables.NeedsOf(t) {
		got, ok := c.arrived(need.Obj)
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
// or that fault injection delays, or whose channel has a queued
// predecessor — go onto the outbound queue; the rest transmit immediately
// (and join the queue if that transmission is lost).
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
		if c.fifo[snd.Chan].head != 0 || c.addr[snd.Chan] == nil {
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

// Poll runs RA (read the address packages that have arrived into the
// address book; a duplicated delivery — sequence number at or below the
// highest consumed from that source — is discarded uncounted) then CQ
// (dispatch queued sends whose addresses are known and whose retransmission
// timers have expired, FIFO per channel) — the two operations the protocol
// requires in every blocking state. It reports whether any message moved,
// which drivers use as a progress signal.
func (c *Core) Poll(now float64) bool {
	progress := false
	c.scratch = c.be.RecvAddr(c.scratch[:0])
	for _, pkg := range c.scratch {
		if pkg.Seq <= c.addrSeen[pkg.From] {
			c.eng.Discarded(c.p)
			continue
		}
		c.addrSeen[pkg.From] = pkg.Seq
		for _, b := range pkg.Buffers {
			ch := b.Chan
			if ch < 0 {
				continue // nothing is ever sent there
			}
			if c.addr[ch] == nil && c.fifo[ch].head != 0 {
				c.armed = append(c.armed, ch)
			}
			c.addr[ch] = b
		}
		c.Stats.AddrConsumed++
		progress = true
	}
	if len(c.armed) > 0 && c.cq(now) {
		progress = true
	}
	return progress
}

// cq is the CQ operation over the armed channels: it transmits from their
// heads in issue order — a merge of the channel FIFOs through a binary heap
// of channels keyed by head, so the transport sees exactly the sequence a
// walk of the whole queue would produce — until each channel is empty or
// its head must wait (timer running, transmission lost). Channels that
// still hold messages stay armed. It reports whether any message went out.
func (c *Core) cq(now float64) bool {
	progress := false
	h := c.armed
	for i := len(h)/2 - 1; i >= 0; i-- {
		c.siftDown(h, i)
	}
	for n := len(h); n > 0; {
		f := &c.fifo[h[0]]
		m := &c.outq[f.head]
		c.Stats.CQExamined++
		if m.due > now {
			// Retransmission timer still running; later messages of the
			// channel wait behind it to keep versions in order.
			c.be.WakeAfter(m.due - now)
		} else if c.transmit(m, now) {
			f.head = m.next
			c.queued--
			progress = true
			if f.head != 0 {
				c.siftDown(h[:n], 0)
				continue
			}
		}
		// The channel leaves this round's merge: empty, or head waiting.
		n--
		h[0], h[n] = h[n], h[0]
		c.siftDown(h[:n], 0)
	}
	kept := h[:0]
	for _, ch := range h {
		if c.fifo[ch].head != 0 {
			kept = append(kept, ch)
		}
	}
	c.armed = kept
	return progress
}

// siftDown restores the heap property of h — channels ordered by the issue
// number of their head message — below position i.
func (c *Core) siftDown(h []int32, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && c.fifo[h[r]].head < c.fifo[h[l]].head {
			l = r
		}
		if c.fifo[h[i]].head <= c.fifo[h[l]].head {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
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
		if c.queued > 0 {
			m := c.queueHead()
			why := "address not yet received"
			if m.attempt > 0 {
				why = fmt.Sprintf("lost %d times, awaiting retransmission", m.attempt)
			}
			return fmt.Sprintf("END state: draining %d suspended sends, head is object %q to processor %d (%s)",
				c.queued, g.Objects[m.snd.Obj].Name, m.snd.Dst, why)
		}
		return "finished"
	default:
		t := c.order[c.pos]
		if have, want := c.eng.CtlRecv[t].Load(), c.eng.Tables.CtlNeed[t]; have < want {
			return fmt.Sprintf("REC state: task %q at position %d waiting for control signals (%d/%d)",
				g.Tasks[t].Name, c.pos, have, want)
		}
		for _, need := range c.eng.Tables.NeedsOf(t) {
			got, ok := c.arrived(need.Obj)
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
