// Corpus for the storethenwake analyzer. Local lookalikes of the
// executor's deposit vocabulary (Put/TrySend/ConsumeAppend, the run's
// CtlRecv counters, a wake method); the seeded violations are the
// lost-wakeup shapes, each next to its corrected form.
package a

type engine struct{ wakers []chan struct{} }

func (e *engine) wake(p int) {}

type buf struct{}

func (b *buf) Put(data []float64, seq int32) bool { return true }

type mesh struct{}

func (m *mesh) TrySend(dst, src int, pkg any) bool     { return true }
func (m *mesh) ConsumeAppend(dst int, out []int) []int { return out }

type counter struct{}

func (c *counter) Add(n int32) int32 { return 0 }

// counters stands in for proto.Engine, which holds the run's control
// counters since the receive half moved into the core.
type counters struct{ CtlRecv []counter }

// lostWakeup is the PR-7 must-catch: the deposit lands but no token is
// posted, so a receiver already parked on this object sleeps forever.
func lostWakeup(b *buf, data []float64, seq int32) {
	b.Put(data, seq) // want "lost wakeup"
}

// wakeBeforeStore posts the token first: the receiver can wake, see
// nothing, and park again before the store lands — same lost wakeup,
// one reordering away.
func wakeBeforeStore(e *engine, b *buf, dst int, seq int32) {
	e.wake(dst)
	b.Put(nil, seq) // want "lost wakeup"
}

// ctlWithoutWake increments the control counter REC parks on without
// waking the task's processor.
func ctlWithoutWake(c *counters, t int) {
	c.CtlRecv[t].Add(1) // want "lost wakeup"
}

// goroutineActor: a goroutine is its own actor — the spawner's wake does
// not discharge the goroutine's deposit.
func goroutineActor(e *engine, b *buf, seq int32) {
	go func() {
		b.Put(nil, seq) // want "lost wakeup"
	}()
	e.wake(0)
}

// storeThenWake is the corrected order: deposit, then token.
func storeThenWake(e *engine, b *buf, dst int, data []float64, seq int32) {
	b.Put(data, seq)
	e.wake(dst)
}

// trySendIdiom: only the success path owes a wake; the early return on
// a full slot is fine because a wake follows the call site.
func trySendIdiom(e *engine, m *mesh, dst, src int, pkg any) bool {
	if !m.TrySend(dst, src, pkg) {
		return false
	}
	e.wake(dst)
	return true
}

// drainThenWakeSenders mirrors RecvAddr: consuming frees slots and
// wakes each freed sender.
func drainThenWakeSenders(e *engine, m *mesh, dst int) {
	for _, from := range m.ConsumeAppend(dst, nil) {
		e.wake(from)
	}
}

// ctlThenWake is the corrected control-signal shape.
func ctlThenWake(e *engine, c *counters, t int) {
	c.CtlRecv[t].Add(1)
	e.wake(t)
}
