// Package exec is the wall-clock backend of the five-state execution
// protocol: it runs a scheduled task graph under the active memory
// management scheme with one goroutine per (virtual) processor, real data
// and the real RMA substrate (deposit-then-flag buffers, single-slot
// address packages).
//
// The protocol transitions themselves — REC/EXE/SND/MAP/END, the MAP
// address-package handshake, the suspended-send queue, arrival-threshold
// receives and the RA/CQ polling discipline — and the state they read (the
// memory ledger, arrival counters, learned addresses) live in
// internal/proto's Engine/Core and are shared verbatim with the
// discrete-event simulator (internal/machine). This package supplies only
// the wall-clock mechanics: goroutines, the numeric payloads, the deposit
// into a peer followed by its wake, and a liveness watchdog. The executor
// is used both as a correctness harness (results must equal a sequential
// execution; runs under -race) and as the numeric engine of the examples.
//
// The executor is event-driven: a processor whose Advance returns Blocked
// parks on its wake channel instead of spinning. Every remote deposit —
// data Put, control signal, address-package deposit, slot consumption —
// posts the destination processor's wake token at the deposit site, and
// retransmission/fault timers registered through the Backend's WakeAfter
// contract are runtime timers that post the same token. A parked processor
// therefore costs no CPU, which is what keeps oversubscribed runs (more
// emulated processors than cores) from collapsing.
package exec

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/rma"
	"repro/internal/sched"
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
	// process. 0 means the 30-second default; raise it when a single
	// kernel invocation may legitimately run longer than that.
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
	// returned Blocked — the executor's spin metric. Parked processors are
	// re-examined only after a wake token or timer, so the count stays
	// within a small multiple of the machine's event count; a busy-polling
	// executor shows counts proportional to wall time instead. The value is
	// timing-dependent and is NOT part of the backend-equivalence
	// comparison.
	BlockedAdvances []int
}

// procProbe is one processor's watchdog-visible gauge set. It is written
// only by that processor's own goroutine and read by whichever processor
// trips the BlockTimeout watchdog, so a stall report can dump the whole
// machine's protocol state, not just the blocked processor's.
type procProbe struct {
	state   atomic.Int32 // proto.State last entered
	pos     atomic.Int32 // position in the task order
	susp    atomic.Int32 // suspended-send queue depth
	retrans atomic.Int32 // queued messages awaiting a retransmission timer
	wait    atomic.Int32 // proto.WaitKind of the last Blocked verdict
	parked  atomic.Bool  // true while sleeping on the wake channel
	done    atomic.Bool
	// The probes are updated on every Advance; pad to a cache line so
	// neighbouring processors' stores do not false-share.
	_ [64 - 22]byte
}

// storeChanged stores v only on change: the common case (re-entering one
// protocol state) then costs plain loads of an uncontended cache line
// instead of locked stores.
func storeChanged(g *atomic.Int32, v int32) {
	if g.Load() != v {
		g.Store(v)
	}
}

// waker is one processor's wake signal: a one-token channel. Deposit sites
// post the token with a non-blocking send; the owning processor consumes
// it when parking. The token is permission to re-examine the protocol
// state, not a message: posting to an awake processor leaves the token for
// its next park, so a deposit racing with the park decision is never lost
// — the deposit's store happens before the post, and a token posted after
// the processor's last Poll makes its park return immediately. A stale
// token costs one spurious Advance, which is harmless. Padded to a cache
// line so neighbouring processors' wakes do not false-share (the same fix
// the probe array needed; see EXPERIMENTS.md).
type waker struct {
	ch chan struct{}
	_  [64 - 8]byte
}

type engine struct {
	eng *proto.Engine
	cfg Config

	slots  *rma.AddrSlots
	probes []procProbe
	wakers []waker

	numeric bool
	start   time.Time

	abort atomic.Bool
	// stop is closed when the run aborts or completes: parked processors
	// unblock on it.
	stop      chan struct{}
	stopOnce  sync.Once
	stallOnce sync.Once
	errMu     sync.Mutex
	runErr    error // first failure wins; guarded-by: errMu
}

// wake posts p's wake token. Non-blocking: if a token is already pending,
// p will re-examine everything anyway.
func (e *engine) wake(p graph.Proc) {
	select {
	case e.wakers[p].ch <- struct{}{}:
	default:
	}
}

// halt unblocks every parked processor. Idempotent.
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
// including why a parked processor is parked.
func (e *engine) dumpAll() string {
	var sb strings.Builder
	for p := range e.probes {
		pr := &e.probes[p]
		if pr.done.Load() {
			fmt.Fprintf(&sb, "\n  proc %d: finished", p)
			continue
		}
		fmt.Fprintf(&sb, "\n  proc %d: state %s, position %d, %d suspended sends (%d awaiting retransmission)",
			p, proto.State(pr.state.Load()), pr.pos.Load(), pr.susp.Load(), pr.retrans.Load())
		if k := proto.WaitKind(pr.wait.Load()); k != proto.WaitNone {
			verb := "waiting on"
			if pr.parked.Load() {
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

// Run executes the schedule under the MAP plan, driven by the schedule's
// protocol tables (proto.Derive(s); a compiled artifact carries its own).
// The plan must be executable (use mem.NewPlan and check Executable first);
// capacity is taken from it.
func Run(s *sched.Schedule, plan *mem.Plan, tables *proto.Tables, cfg Config) (*Result, error) {
	pe, err := proto.NewEngine(s, plan, tables, cfg.Faults)
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
		wakers:  make([]waker, s.P),
		stop:    make(chan struct{}),
		numeric: cfg.Kernel != nil,
		start:   time.Now(),
	}
	for i := range e.wakers {
		e.wakers[i].ch = make(chan struct{}, 1)
	}
	defer e.halt()

	cores := make([]*proto.Core, s.P)
	var wg sync.WaitGroup
	for p := 0; p < s.P; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					e.fail(fmt.Errorf("exec: processor %d panicked: %v", p, r))
				}
			}()
			core, err := e.runProc(graph.Proc(p))
			if err != nil {
				e.fail(err)
				return
			}
			cores[p] = core
		}(p)
	}
	wg.Wait()
	// The join above orders every fail() before this read, but take the
	// lock anyway: the invariant is "runErr moves under errMu", not
	// "runErr moves under errMu except where a barrier happens to exist".
	e.errMu.Lock()
	runErr := e.runErr
	e.errMu.Unlock()
	if runErr != nil {
		return nil, runErr
	}
	res := &Result{Summary: pe.Summarize(cores), BlockedAdvances: make([]int, s.P)}
	for p, c := range cores {
		res.BlockedAdvances[p] = c.Stats.BlockedAdvances
	}
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

// runProc drives one processor: a proto.Core over the wall-clock backend.
// The loop has no spin path — a Blocked verdict Polls once and, if nothing
// moved, parks until a wake token (peer deposit, timer, abort) or the
// watchdog deadline. It returns the finished core.
func (e *engine) runProc(p graph.Proc) (*proto.Core, error) {
	ps := &procState{e: e, p: p}
	core, err := e.eng.NewCore(p, ps)
	if err != nil {
		return nil, fmt.Errorf("exec: %w", err)
	}
	ps.core = core
	get := ps.get // bound once: a method value built per Kernel call escapes
	probe := &e.probes[p]
	parkTimer := time.NewTimer(time.Hour)
	defer parkTimer.Stop()
	for {
		// One clock reading per protocol step: it times the step and stamps
		// the watchdog for whatever progress the step makes.
		ps.now = e.clock()
		st, err := core.Advance(ps.now)
		if err != nil {
			return nil, err
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
				if kerr := e.cfg.Kernel(st.Task, get); kerr != nil {
					return nil, fmt.Errorf("exec: proc %d task %q: %w", p, e.eng.S.G.Tasks[st.Task].Name, kerr)
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
			storeChanged(&probe.wait, int32(st.Wait.Kind))
			if err := ps.blockCheck(st.State); err != nil {
				return nil, err
			}
			if core.Poll(ps.now) {
				ps.touch()
				continue
			}
			ps.park(probe, parkTimer)
		case proto.Finished:
			probe.done.Store(true)
			return core, nil
		}
	}
}

// procState is the wall-clock Backend of one processor — the transport
// into its peers and the physical side of its buffers — plus its watchdog
// stamp.
type procState struct {
	e    *engine
	p    graph.Proc
	core *proto.Core
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

// park sleeps until a wake token arrives, the engine stops, or the
// watchdog deadline passes (the caller's next blockCheck then reports the
// timeout). Correctness of the token protocol: every deposit posts the
// destination's token after its stores, so any state change that happened
// after this processor's last Poll leaves a token and the select returns
// immediately; a token left over from a change already observed costs one
// spurious Advance.
func (ps *procState) park(probe *procProbe, t *time.Timer) {
	t.Reset(ps.e.cfg.BlockTimeout - ps.stalledFor())
	probe.parked.Store(true)
	select {
	case <-ps.e.wakers[ps.p].ch:
	case <-ps.e.stop:
	case <-t.C:
		probe.parked.Store(false)
		return
	}
	probe.parked.Store(false)
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// blockCheck aborts on engine failure or watchdog expiry. The timeout
// error names the blocked processor, its protocol state and the task or
// object it is waiting on, then dumps every processor's protocol state,
// suspended-send queue depth, retransmit queue depth and park reason, so a
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

// get resolves an object to its local buffer for the kernel.
func (ps *procState) get(o graph.ObjID) []float64 {
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
// 0 posts this processor's own wake token (re-examine as soon as it next
// parks — used by fault-delayed deposits, which retry on the next
// attempt); a positive delay (retransmission RTOs) arms a runtime timer
// that posts it. A timer that outlives the run posts a token nobody reads.
func (ps *procState) WakeAfter(delay float64) {
	if delay <= 0 {
		ps.e.wake(ps.p)
		return
	}
	time.AfterFunc(time.Duration(delay*float64(time.Second)), func() { ps.e.wake(ps.p) })
}
