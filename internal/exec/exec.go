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
// and fault deadlines registered through the Backend's WakeAfter contract
// set the processor's one runtime timer, which wakes the same way and only
// ever moves earlier. A blocked core therefore costs no CPU and holds no
// goroutine, and an oversubscribed run (more emulated processors than
// cores) keeps k goroutines, not p, on the Go scheduler.
//
// The watchdog keeps no state of its own: a stalled processor reports
// itself, and the dump of every processor is read from the cores once the
// run has stopped.
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
	"repro/internal/util"
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
	// Faults injects deterministic protocol perturbations — delayed, lost
	// and duplicated address packages and data messages — that the
	// engine's retransmit and dedup absorb; see proto.Faults. The zero
	// value disables injection.
	Faults proto.Faults

	// onStall, if set, is called exactly once, once the first watchdog
	// timeout has failed the run. It is the package's test seam: a test
	// releases its deliberately wedged kernel the moment the watchdog has
	// observed the stall, instead of sleeping for a fixed multiple of
	// BlockTimeout and hoping the schedules interleave.
	onStall func()
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

// stallError is a watchdog timeout: the stalled processor's own report.
// Run appends every processor's state to it once the run has stopped.
type stallError struct{ error }

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

// runState is what a run builds that a later run, of any plan, takes back
// instead of allocating anew: the protocol engine, each processor's core —
// its ledger's slabs, its channel and processor tables, its address
// packages and queues — and backend, the scheduling slots and the
// address-slot mesh. Run returns it to runStates only once
// the run has quiesced. Every piece is reset on reuse; only the permanent
// payload, which the result hands out, is allocated per run.
type runState struct {
	eng   proto.Engine
	procs []*procState
	cores []coreSlot
	slots rma.AddrSlots
}

// runStates is process-wide, not per plan: it holds the state of the runs
// in flight and what the collector has not yet taken back of runs that
// ended, never a copy per cached plan.
var runStates util.Pool[runState]

type engine struct {
	eng *proto.Engine
	cfg Config

	slots *rma.AddrSlots
	cores []coreSlot
	procs []*procState
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

	// timers counts the wake timer firings armed and not yet run to the
	// end or stopped.
	timers sync.WaitGroup
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

// stalled fires the onStall hook (once) when a watchdog timeout has
// failed the run.
func (e *engine) stalled() {
	if e.cfg.onStall != nil {
		e.stallOnce.Do(e.cfg.onStall)
	}
}

// dumpAll renders every processor's protocol state for a stall report,
// including why a blocked processor is blocked — or, for a queued one,
// that it waits for a worker rather than for the protocol. It reads the
// cores, so it runs only once the run has stopped.
func (e *engine) dumpAll() string {
	var sb strings.Builder
	for p, ps := range e.procs {
		sched := e.cores[p].state.Load()
		if sched == coreDone {
			fmt.Fprintf(&sb, "\n  proc %d: finished", p)
			continue
		}
		// A processor that never started still holds an earlier run's core.
		var st proto.State
		var pos int32
		var susp, retrans int
		if ps.reset {
			st, pos, susp, retrans = ps.core.CurrentState(), ps.core.Pos(), ps.core.SuspendedLen(), ps.core.RetransPending()
		}
		fmt.Fprintf(&sb, "\n  proc %d: state %s, position %d, %d suspended sends (%d awaiting retransmission)",
			p, st, pos, susp, retrans)
		if sched == coreQueued {
			sb.WriteString(", runnable, waiting for a worker")
		} else if k := ps.wait; k != proto.WaitNone {
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
	rs := runStates.Get()
	if err := rs.eng.Reset(s, a.Mem, a.Tables(), cfg.Faults); err != nil {
		runStates.Recycle(rs)
		return nil, fmt.Errorf("exec: %w", err)
	}
	if cfg.BlockTimeout == 0 {
		cfg.BlockTimeout = 30 * time.Second
	}
	rs.slots.Reset(s.P)
	rs.cores = util.Reuse(rs.cores, s.P)
	rs.procs = resize(rs.procs, s.P)
	e := &engine{
		eng:     &rs.eng,
		cfg:     cfg,
		slots:   &rs.slots,
		cores:   rs.cores,
		procs:   rs.procs,
		runq:    make(chan graph.Proc, s.P),
		stop:    make(chan struct{}),
		period:  max(cfg.BlockTimeout/4, time.Microsecond),
		numeric: cfg.Kernel != nil,
		start:   time.Now(),
	}
	// Every core starts queued; each resets its proto.Core on its first
	// turn, so the permanent allocations run on the workers.
	for p := range e.procs {
		e.procs[p].start(e, graph.Proc(p))
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
	// The run has quiesced once no wake timer can fire into it either: the
	// workers and the watchdog, the only depositors, are done. A timer
	// whose firing is under way counts itself off e.timers.
	for _, ps := range e.procs {
		if ps.timer != nil && ps.timer.Stop() {
			e.timers.Done()
		}
	}
	e.timers.Wait()
	defer rs.release()

	// The joins above order every fail() before this read, but take the
	// lock anyway: the invariant is "runErr moves under errMu", not
	// "runErr moves under errMu except where a barrier happens to exist".
	e.errMu.Lock()
	runErr := e.runErr
	e.errMu.Unlock()
	if runErr != nil {
		if _, ok := runErr.(stallError); ok {
			runErr = fmt.Errorf("%w\nmachine state at timeout:%s", runErr, e.dumpAll())
		}
		return nil, runErr
	}
	cores := make([]*proto.Core, s.P)
	res := &Result{BlockedAdvances: make([]int, s.P)}
	for p, ps := range e.procs {
		cores[p] = &ps.core
		res.BlockedAdvances[p] = ps.core.Stats.BlockedAdvances
	}
	res.Summary = e.eng.Summarize(cores)
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

// release hands rs back to runStates once the run and its result are
// done with it. It keeps only what a later run reuses: nothing of this
// run's plan, config, result or large payloads stays reachable from the
// pool.
func (rs *runState) release() {
	for _, ps := range rs.procs {
		ps.core.Release()
		ps.e = nil
	}
	rs.eng.Release()
	runStates.Recycle(rs)
}

// resize returns procs at length n: a previous run's states keep their
// cores for Reset, and those past n are dropped so that the pool does not
// hold their slabs.
func resize(procs []*procState, n int) []*procState {
	keep := min(n, len(procs))
	clear(procs[keep:])
	procs = procs[:keep]
	for len(procs) < n {
		procs = append(procs, new(procState))
	}
	return procs
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
	if !ps.reset {
		if err = ps.core.Reset(e.eng, ps.p, ps); err != nil {
			return false, fmt.Errorf("exec: %w", err)
		}
		ps.reset = true
	}
	core := &ps.core
	for {
		// One clock reading per protocol step: it times the step and stamps
		// the watchdog for whatever progress the step makes.
		ps.now = e.clock()
		st, err := core.Advance(ps.now)
		if err != nil {
			return false, err
		}
		ps.wait = st.Wait
		switch st.Kind {
		case proto.RunMAP:
			// Wall-clock MAPs charge no artificial cost: the real work
			// (frees, allocations) already happened in the core. Loop
			// straight into the next Advance, which deposits the packages.
			ps.touch()
		case proto.RunTask:
			if e.numeric {
				if kerr := e.cfg.Kernel(st.Task, ps.get); kerr != nil {
					return false, fmt.Errorf("exec: proc %d task %q: %w", ps.p, e.eng.S.G.TaskName(st.Task), kerr)
				}
				// A kernel that returns after the run failed stops here, so
				// a stall report shows its processor where the stall found
				// it, not what it did once released.
				if e.abort.Load() {
					return false, fmt.Errorf("exec: proc %d aborted in %s state", ps.p, core.CurrentState())
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
// stamp and its wake timer.
type procState struct {
	e     *engine
	p     graph.Proc
	core  proto.Core // reset on the processor's first turn
	reset bool
	get   func(graph.ObjID) []float64
	// now is the driver loop's latest clock reading and lastProgress, the
	// watchdog stamp, the reading at which the processor last moved: a stamp
	// costs no clock read of its own.
	now, lastProgress float64
	// wait is why the last Advance blocked (WaitNone if it did not), for
	// the stall report.
	wait proto.WaitKind
	// timer is the processor's one wake timer, kept across runs; due is
	// the clock reading its latest arming fires at, and pending says that
	// firing has not yet woken the core.
	timer   *time.Timer
	due     float64
	pending atomic.Bool
}

// start readies ps to drive processor p of e's run.
func (ps *procState) start(e *engine, p graph.Proc) {
	ps.e, ps.p, ps.reset = e, p, false
	ps.now, ps.lastProgress, ps.wait = 0, 0, proto.WaitNone
	ps.pending.Store(false) // an earlier run may have stopped the timer before it fired
	if ps.get == nil {
		ps.get = ps.buf // bound once: a method value built per Kernel call escapes
	}
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
// object it is waiting on; Run appends every processor's protocol state,
// suspended-send queue depth, retransmit queue depth and wait reason once
// the run has stopped, so a stall caused by a lost message elsewhere in the
// machine is diagnosable from the report.
func (ps *procState) blockCheck(st proto.State) error {
	if ps.e.abort.Load() {
		return fmt.Errorf("exec: proc %d aborted in %s state", ps.p, st)
	}
	if ps.stalledFor() > ps.e.cfg.BlockTimeout {
		err := stallError{fmt.Errorf("exec: proc %d made no progress for %v — %s (possible deadlock; see Config.BlockTimeout)",
			ps.p, ps.e.cfg.BlockTimeout, ps.core.BlockedInfo())}
		// Fail the run before the hook runs: the hook may release a wedged
		// kernel, which must see the abort and stop where the stall found
		// it.
		ps.e.fail(err)
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
// sets the processor's one timer to wake it. The timer only ever moves
// earlier: while a firing is pending at or before the new deadline, that
// firing wakes the core, which then asks again for whatever is still due.
// Run stops a timer still pending when the run ends, and waits out a
// firing under way, before it recycles the state the wake touches.
func (ps *procState) WakeAfter(delay float64) {
	e := ps.e
	if delay <= 0 {
		e.wake(ps.p)
		return
	}
	due := ps.now + delay
	if ps.pending.Load() && ps.due <= due {
		return
	}
	ps.due = due
	ps.pending.Store(true)
	// Count the firing before arming it: it may run, and count itself
	// off, before Reset returns.
	e.timers.Add(1)
	d := time.Duration(delay * float64(time.Second))
	if ps.timer == nil {
		ps.timer = time.AfterFunc(d, ps.fire)
	} else if ps.timer.Reset(d) {
		e.timers.Done() // the firing it replaces will not run
	}
}

// fire is the wake timer's firing. It clears pending before it wakes the
// core, so a core that still reads pending is yet to be woken by it.
func (ps *procState) fire() {
	e := ps.e
	defer e.timers.Done()
	ps.pending.Store(false)
	e.wake(ps.p)
}
