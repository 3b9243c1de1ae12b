// Package exec is the wall-clock backend of the five-state execution
// protocol: it runs a scheduled task graph under the active memory
// management scheme with real data and the real RMA substrate
// (deposit-then-flag buffers, single-slot address packages), its p
// (virtual) processors driven by k = min(p, GOMAXPROCS) worker goroutines.
//
// The protocol transitions themselves — REC/EXE/SND/MAP/END, the MAP
// address-package handshake, the suspended-send queue, arrival-threshold
// receives and the RA/CQ polling discipline — and the state they read (the
// memory ledger, arrival counters, learned addresses) live in
// internal/proto's Engine/Core and are shared verbatim with the
// discrete-event simulator (internal/machine). This package supplies only
// the wall-clock mechanics: the workers, the numeric payloads, the deposit
// into a peer followed by its wake, and a liveness watchdog. The executor
// is used both as a correctness harness (results must equal a sequential
// execution; runs under -race) and as the numeric engine of the examples.
//
// The processors are logical. A proto.Core never waits, so a processor
// needs a thread only while it has something to do: runnable cores sit in
// one shared run queue, and a worker takes one and drives its
// Advance/TaskDone/Poll loop until it is Blocked and a fresh Poll moves
// nothing, then takes the next. Every remote deposit — data Put, control
// signal, address-package deposit, slot consumption — wakes the
// destination core at the deposit site: an idle core is queued, a running
// one is told to look again before its worker lets it go. Retransmission
// and fault timers registered through the Backend's WakeAfter contract are
// runtime timers that wake the same way. A blocked core therefore costs no
// CPU and holds no goroutine, and an oversubscribed run (more emulated
// processors than cores) keeps k goroutines, not p, on the Go scheduler.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/rma"
)

// KernelFunc executes a task against its object buffers. get returns the
// local buffer of any object the task reads or writes.
type KernelFunc func(t graph.TaskID, get func(graph.ObjID) []float64) error

// InitFunc fills a permanent object's buffer with its initial value.
type InitFunc func(o graph.ObjID, buf []float64)

// Config controls a run.
type Config struct {
	// Kernel runs each task. nil runs the protocol structure-only (no
	// numeric payloads are allocated or copied).
	Kernel KernelFunc
	// Init initializes permanent objects on their owners (numeric mode).
	Init InitFunc
	// BufLen overrides the physical buffer length of an object (defaults to
	// the object's abstract Size). Only consulted in numeric mode.
	BufLen func(o graph.ObjID) int64
	// BlockTimeout aborts the run when a processor makes no protocol
	// progress — no task or MAP completed, no message sent, received or
	// dispatched from the suspended queue — for this long. It is the
	// liveness watchdog: a genuine deadlock (which Theorem 1 rules out for
	// correct plans) or a lost message trips it instead of hanging the
	// process. 0 means the 30-second default and a negative value is an
	// error; raise it when a single kernel invocation may legitimately run
	// longer than that. The watchdog looks every BlockTimeout/4, so a
	// stall is reported within about 1.25 × BlockTimeout.
	BlockTimeout time.Duration
	// OnStall, if set, is called exactly once, just before the first
	// watchdog timeout error is reported. Tests use it as an event hook to
	// release deliberately wedged kernels the moment the watchdog has
	// observed the stall, instead of sleeping for a fixed multiple of
	// BlockTimeout and hoping the schedules interleave.
	OnStall func()
	// Faults injects deterministic protocol perturbations (delayed address
	// packages and data messages); see proto.Faults. The zero value
	// disables injection.
	Faults proto.Faults
}

// Result reports a completed run: the protocol's run report plus what only
// a wall-clock run with real data has.
type Result struct {
	proto.Summary
	// Objects maps every object to its final buffer on its owner (numeric
	// mode; nil otherwise).
	Objects map[graph.ObjID][]float64
	// BlockedAdvances is the per-processor count of Advance calls that
	// returned Blocked — the executor's spin metric. A blocked core is
	// re-examined only after a wake (a deposit, a timer or the watchdog),
	// so the count stays within a small multiple of the machine's event
	// count; an executor that re-queues or busy-polls blocked cores shows
	// counts proportional to wall time instead. The value is
	// timing-dependent and is NOT part of the backend-equivalence
	// comparison.
	BlockedAdvances []int
}

// procProbe is one processor's watchdog-visible gauge set. It is written
// only by whoever drives that processor's core and read by whichever
// driver trips the BlockTimeout watchdog, so a stall report can dump the
// whole machine's protocol state, not just the blocked processor's.
type procProbe struct {
	state   atomic.Int32 // proto.State last entered
	pos     atomic.Int32 // position in the task order
	susp    atomic.Int32 // suspended-send queue depth
	retrans atomic.Int32 // queued messages awaiting a retransmission timer
	wait    atomic.Int32 // proto.WaitKind of the last Blocked verdict
	// The probes are updated on every Advance; pad to a cache line so
	// neighbouring processors' stores do not false-share.
	_ [64 - 20]byte
}

// storeChanged stores v only on change: the common case (re-entering one
// protocol state) then costs plain loads of an uncontended cache line
// instead of locked stores.
func storeChanged(g *atomic.Int32, v int32) {
	if g.Load() != v {
		g.Store(v)
	}
}

// Scheduling states of a core. wake moves idle → queued (and pushes the
// core) and running → notified; the worker that pops a queued core moves
// it to running, and only that worker moves it on, to idle or done.
const (
	coreIdle     int32 = iota // blocked and in no queue: the next wake queues it
	coreQueued                // in the run queue
	coreRunning               // a worker is driving it
	coreNotified              // running, and woken since its driver last polled
	coreDone                  // finished
)

// coreSlot is one core's scheduling state, padded to a cache line so
// wakes of neighbouring cores do not false-share.
type coreSlot struct {
	state atomic.Int32
	_     [64 - 4]byte
}

type engine struct {
	eng *proto.Engine
	cfg Config

	slots  *rma.AddrSlots
	probes []procProbe
	cores  []coreSlot
	procs  []*procState
	// runq holds the queued cores. Only idle → queued pushes, so a core is
	// in it at most once and a push into its capacity p never blocks.
	runq chan graph.Proc
	// live counts the cores not yet finished; the last to finish stops
	// the run.
	live atomic.Int32

	numeric bool
	start   time.Time

	abort atomic.Bool
	// stop is closed when the run aborts or completes: idle workers
	// unblock on it.
	stop      chan struct{}
	stopOnce  sync.Once
	stallOnce sync.Once
	errMu     sync.Mutex
	runErr    error // first failure wins; guarded-by: errMu

	// watchdog is the run's one liveness timer (see watch). Run sets
	// watchOff under watchMu and then waits on watching before it reads
	// the cores, so a firing that is driving a core finishes first and a
	// later one does nothing.
	watchMu  sync.Mutex
	watchdog *time.Timer // guarded-by: watchMu
	watchOff bool        // guarded-by: watchMu
	watching sync.WaitGroup
	period   time.Duration // the watchdog's re-arm period
}

// wake makes core p look at its protocol state again: an idle core is
// queued for a worker, a running one is notified so its worker re-advances
// it before letting it go. A queued, notified or finished core needs
// nothing. Deposit sites call it after their stores, so whoever next
// advances p sees the deposit.
func (e *engine) wake(p graph.Proc) {
	st := &e.cores[p].state
	for {
		switch st.Load() {
		case coreIdle:
			if st.CompareAndSwap(coreIdle, coreQueued) {
				e.runq <- p
				return
			}
		case coreRunning:
			if st.CompareAndSwap(coreRunning, coreNotified) {
				return
			}
		default:
			return
		}
	}
}

// halt unblocks every idle worker. Idempotent.
func (e *engine) halt() { e.stopOnce.Do(func() { close(e.stop) }) }

func (e *engine) fail(err error) {
	e.errMu.Lock()
	if e.runErr == nil {
		e.runErr = err
	}
	e.errMu.Unlock()
	e.abort.Store(true)
	e.halt()
}

// stalled fires the OnStall hook (once) when a watchdog timeout is about
// to be reported.
func (e *engine) stalled() {
	if e.cfg.OnStall != nil {
		e.stallOnce.Do(e.cfg.OnStall)
	}
}

// dumpAll renders every processor's probe for watchdog escalation,
// including why a blocked processor is blocked — or, for a queued one,
// that it waits for a worker rather than for the protocol.
func (e *engine) dumpAll() string {
	var sb strings.Builder
	for p := range e.probes {
		pr := &e.probes[p]
		sched := e.cores[p].state.Load()
		if sched == coreDone {
			fmt.Fprintf(&sb, "\n  proc %d: finished", p)
			continue
		}
		fmt.Fprintf(&sb, "\n  proc %d: state %s, position %d, %d suspended sends (%d awaiting retransmission)",
			p, proto.State(pr.state.Load()), pr.pos.Load(), pr.susp.Load(), pr.retrans.Load())
		if sched == coreQueued {
			sb.WriteString(", runnable, waiting for a worker")
		} else if k := proto.WaitKind(pr.wait.Load()); k != proto.WaitNone {
			verb := "waiting on"
			if sched == coreIdle {
				verb = "parked on"
			}
			fmt.Fprintf(&sb, ", %s %s", verb, k)
		}
	}
	return sb.String()
}

// clock is the wall clock passed to the protocol core (seconds since the
// run started), which accounts per-state occupancy with it.
func (e *engine) clock() float64 { return float64(time.Since(e.start)) / float64(time.Second) }

// Run executes the compiled plan: its schedule under its MAP plan, driven
// by its protocol tables. The plan must be executable; capacity is taken
// from it. The p processors run on k = min(p, runtime.GOMAXPROCS(0))
// workers.
func Run(a *plan.Artifact, cfg Config) (*Result, error) {
	if cfg.BlockTimeout < 0 {
		return nil, errors.New("exec: negative BlockTimeout")
	}
	s := a.Schedule
	pe, err := proto.NewEngine(s, a.Mem, a.Tables(), cfg.Faults)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	if cfg.BlockTimeout == 0 {
		cfg.BlockTimeout = 30 * time.Second
	}
	e := &engine{
		eng:     pe,
		cfg:     cfg,
		slots:   rma.NewAddrSlots(s.P),
		probes:  make([]procProbe, s.P),
		cores:   make([]coreSlot, s.P),
		procs:   make([]*procState, s.P),
		runq:    make(chan graph.Proc, s.P),
		stop:    make(chan struct{}),
		period:  max(cfg.BlockTimeout/4, time.Microsecond),
		numeric: cfg.Kernel != nil,
		start:   time.Now(),
	}
	// Every core starts queued; each builds its proto.Core on its first
	// turn, so the permanent allocations run on the workers.
	for p := range e.procs {
		e.procs[p] = &procState{e: e, p: graph.Proc(p)}
		e.cores[p].state.Store(coreQueued)
		e.runq <- graph.Proc(p)
	}
	e.live.Store(int32(s.P))
	defer e.halt()

	e.watchMu.Lock()
	e.watchdog = time.AfterFunc(e.period, e.watch)
	e.watchMu.Unlock()
	var wg sync.WaitGroup
	for w := min(s.P, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work()
		}()
	}
	wg.Wait()
	e.watchMu.Lock()
	e.watchOff = true
	e.watchdog.Stop()
	e.watchMu.Unlock()
	e.watching.Wait()

	// The joins above order every fail() before this read, but take the
	// lock anyway: the invariant is "runErr moves under errMu", not
	// "runErr moves under errMu except where a barrier happens to exist".
	e.errMu.Lock()
	runErr := e.runErr
	e.errMu.Unlock()
	if runErr != nil {
		return nil, runErr
	}
	cores := make([]*proto.Core, s.P)
	res := &Result{BlockedAdvances: make([]int, s.P)}
	for p, ps := range e.procs {
		cores[p] = ps.core
		res.BlockedAdvances[p] = ps.core.Stats.BlockedAdvances
	}
	res.Summary = pe.Summarize(cores)
	if e.numeric {
		res.Objects = make(map[graph.ObjID][]float64, s.G.NumObjects())
		for oi := range s.G.Objects {
			if b, ok := cores[s.G.Objects[oi].Owner].Lookup(graph.ObjID(oi)); ok {
				res.Objects[graph.ObjID(oi)] = b.Data
			}
		}
	}
	return res, nil
}

// work is one worker: it drives queued cores, one turn each, until the
// run stops. With the queue empty it parks on the channel; it has no
// timer of its own.
func (e *engine) work() {
	for {
		select {
		case p := <-e.runq:
			if e.abort.Load() {
				return
			}
			e.drive(p)
		case <-e.stop:
			return
		}
	}
}

// watch is the liveness watchdog: one runtime timer per run, firing every
// BlockTimeout/4. A firing acts as a temporary worker. It wakes every core
// and drives the run queue empty, so each blocked core's own blockCheck
// measures its stall, then re-arms. Because the timer is not a worker, a
// stall is reported even when every worker is held by a kernel that never
// returns — at GOMAXPROCS=1 that is one wedged kernel.
func (e *engine) watch() {
	e.watchMu.Lock()
	if e.watchOff {
		e.watchMu.Unlock()
		return
	}
	e.watching.Add(1)
	e.watchMu.Unlock()
	defer e.watching.Done()
	for p := range e.cores {
		e.wake(graph.Proc(p))
	}
drain:
	for !e.abort.Load() {
		select {
		case p := <-e.runq:
			e.drive(p)
		default:
			break drain
		}
	}
	e.watchMu.Lock()
	if !e.watchOff {
		e.watchdog.Reset(e.period)
	}
	e.watchMu.Unlock()
}

// drive gives core p one turn: it runs the core until it finishes, fails,
// or blocks with nothing to poll, and then lets it go idle — unless a wake
// arrived meanwhile, in which case the deposit may postdate the last Poll
// and the core runs again. No wakeup is lost: a wake before the
// running → idle CAS makes the CAS fail, and one after it finds the core
// idle and queues it.
func (e *engine) drive(p graph.Proc) {
	st := &e.cores[p].state
	st.Store(coreRunning)
	defer func() {
		if r := recover(); r != nil {
			e.fail(fmt.Errorf("exec: processor %d panicked: %v", p, r))
		}
	}()
	ps := e.procs[p]
	for {
		finished, err := ps.run()
		if err != nil {
			e.fail(err)
			return
		}
		if finished {
			st.Store(coreDone)
			if e.live.Add(-1) == 0 {
				e.halt()
			}
			return
		}
		if st.CompareAndSwap(coreRunning, coreIdle) {
			return
		}
		st.Store(coreRunning) // notified
	}
}

// run drives one processor — a proto.Core over the wall-clock backend —
// until it finishes or a Blocked verdict's Poll moves nothing. The loop
// has no spin path and no yield: a core keeps its worker from one block
// to the next, and a blocked core waits for a wake, not for a re-poll.
func (ps *procState) run() (finished bool, err error) {
	e := ps.e
	if ps.core == nil {
		if ps.core, err = e.eng.NewCore(ps.p, ps); err != nil {
			return false, fmt.Errorf("exec: %w", err)
		}
		ps.get = ps.buf // bound once: a method value built per Kernel call escapes
	}
	core, probe := ps.core, &e.probes[ps.p]
	for {
		// One clock reading per protocol step: it times the step and stamps
		// the watchdog for whatever progress the step makes.
		ps.now = e.clock()
		st, err := core.Advance(ps.now)
		if err != nil {
			return false, err
		}
		storeChanged(&probe.state, int32(core.CurrentState()))
		storeChanged(&probe.pos, core.Pos())
		storeChanged(&probe.susp, int32(core.SuspendedLen()))
		storeChanged(&probe.retrans, int32(core.RetransPending()))
		switch st.Kind {
		case proto.RunMAP:
			// Wall-clock MAPs charge no artificial cost: the real work
			// (frees, allocations) already happened in the core. Loop
			// straight into the next Advance, which deposits the packages.
			storeChanged(&probe.wait, int32(proto.WaitNone))
			ps.touch()
		case proto.RunTask:
			storeChanged(&probe.wait, int32(proto.WaitNone))
			if e.numeric {
				if kerr := e.cfg.Kernel(st.Task, ps.get); kerr != nil {
					return false, fmt.Errorf("exec: proc %d task %q: %w", ps.p, e.eng.S.G.Tasks[st.Task].Name, kerr)
				}
				// The task boundary's reading: without it SND occupancy
				// would absorb the kernel's time.
				ps.now = e.clock()
			}
			core.TaskDone(ps.now)
			// Poll between tasks so peers' address packages are consumed
			// promptly even on processors that never block.
			core.Poll(ps.now)
			ps.touch()
		case proto.Blocked:
			storeChanged(&probe.wait, int32(st.Wait))
			if err := ps.blockCheck(st.State); err != nil {
				return false, err
			}
			if core.Poll(ps.now) {
				ps.touch()
				continue
			}
			return false, nil
		case proto.Finished:
			return true, nil
		}
	}
}

// procState is the wall-clock Backend of one processor — the transport
// into its peers and the physical side of its buffers — plus its watchdog
// stamp.
type procState struct {
	e    *engine
	p    graph.Proc
	core *proto.Core // built on the processor's first turn
	get  func(graph.ObjID) []float64
	// now is the driver loop's latest clock reading and lastProgress, the
	// watchdog stamp, the reading at which the processor last moved: a stamp
	// costs no clock read of its own.
	now, lastProgress float64
}

// BufLen gives numeric runs a payload per object; structure-only runs get
// flag-only buffers.
func (ps *procState) BufLen(o graph.ObjID) int64 {
	if !ps.e.numeric {
		return 0
	}
	if ps.e.cfg.BufLen != nil {
		return ps.e.cfg.BufLen(o)
	}
	return ps.e.eng.S.G.Objects[o].Size
}

func (ps *procState) InitBuffer(b *rma.Buffer) {
	if ps.e.cfg.Init != nil {
		ps.e.cfg.Init(b.Obj, b.Data)
	}
}

func (ps *procState) touch() { ps.lastProgress = ps.now }

// stalledFor is the time since the processor last moved, as of the loop's
// latest clock reading.
func (ps *procState) stalledFor() time.Duration {
	return time.Duration((ps.now - ps.lastProgress) * float64(time.Second))
}

// blockCheck aborts on engine failure or watchdog expiry. The timeout
// error names the blocked processor, its protocol state and the task or
// object it is waiting on, then dumps every processor's protocol state,
// suspended-send queue depth, retransmit queue depth and wait reason, so a
// stall caused by a lost message elsewhere in the machine is diagnosable
// from the report.
func (ps *procState) blockCheck(st proto.State) error {
	if ps.e.abort.Load() {
		return fmt.Errorf("exec: proc %d aborted in %s state", ps.p, st)
	}
	if ps.stalledFor() > ps.e.cfg.BlockTimeout {
		// Render the report before the hook runs: the hook may unwedge the
		// machine, and the dump must show the stall, not its aftermath.
		err := fmt.Errorf("exec: proc %d made no progress for %v — %s (possible deadlock; see Config.BlockTimeout)\nmachine state at timeout:%s",
			ps.p, ps.e.cfg.BlockTimeout, ps.core.BlockedInfo(), ps.e.dumpAll())
		ps.e.stalled()
		return err
	}
	return nil
}

// buf resolves an object to its local buffer for the kernel.
func (ps *procState) buf(o graph.ObjID) []float64 {
	if b, ok := ps.core.Lookup(o); ok {
		return b.Data
	}
	panic(fmt.Sprintf("exec: proc %d kernel touched unallocated object %q", ps.p, ps.e.eng.S.G.Objects[o].Name))
}

// SendAddr deposits the address package for dst through the single-slot
// mesh; false means dst has not consumed the previous package yet. A
// successful deposit wakes dst: it may be parked waiting for these very
// addresses (its suspended sends) or for the arrivals they unlock.
func (ps *procState) SendAddr(dst graph.Proc, pkg *rma.AddrPackage) bool {
	if !ps.e.slots.TrySend(dst, ps.p, pkg) {
		return false
	}
	ps.touch()
	ps.e.wake(dst)
	return true
}

// RecvAddr drains this processor's slots. Consuming a slot frees it, so
// each package's sender is woken: it may be MAP-blocked retrying a deposit
// into that slot.
func (ps *procState) RecvAddr(buf []*rma.AddrPackage) []*rma.AddrPackage {
	n := len(buf)
	buf = ps.e.slots.ConsumeAppend(ps.p, buf)
	for _, pkg := range buf[n:] {
		ps.e.wake(pkg.From)
	}
	return buf
}

// SendData deposits one data message into the remote buffer (RMA Put) and
// wakes the receiver, which may be parked on the object's arrival
// threshold. A deposit the receiver's sequence check rejects was a
// duplicate delivery.
func (ps *procState) SendData(snd proto.Send, b *rma.Buffer) {
	var delivered bool
	if ps.e.numeric {
		src, ok := ps.core.Lookup(snd.Obj)
		if !ok {
			panic(fmt.Sprintf("exec: proc %d sending unallocated object %d", ps.p, snd.Obj))
		}
		delivered = b.Put(src.Data, snd.Seq)
	} else {
		delivered = b.PutFlagOnly(snd.Seq)
	}
	if !delivered {
		ps.e.eng.Discarded(snd.Dst)
	}
	ps.touch()
	ps.e.wake(snd.Dst)
}

// SendCtl delivers one control signal and wakes the task's processor,
// which may be parked in REC on the signal count.
func (ps *procState) SendCtl(t graph.TaskID) {
	ps.e.eng.CtlRecv[t].Add(1)
	ps.e.wake(ps.e.eng.S.Assign[t])
}

// WakeAfter is the wall-clock binding of the Backend timer contract: delay
// 0 wakes this processor's own core, which is running, so its worker
// re-advances it before letting it go — used by fault-delayed deposits,
// which retry on the next attempt; a positive delay (retransmission RTOs)
// arms a runtime timer that wakes it. A timer that outlives the run queues
// the core into a queue nobody reads.
func (ps *procState) WakeAfter(delay float64) {
	if delay <= 0 {
		ps.e.wake(ps.p)
		return
	}
	time.AfterFunc(time.Duration(delay*float64(time.Second)), func() { ps.e.wake(ps.p) })
}
