// Package rma emulates the remote-memory-access substrate the paper's
// run-time system is built on (SHMEM_PUT on the Cray-T3D): a processor can
// deposit data directly into another processor's memory, but only at an
// address it has been told in advance. The emulation preserves the
// properties the protocol design depends on:
//
//   - Put targets a buffer handle previously exported by the receiver; there
//     is no handshake and no receiver-side copy. Arrival is observable only
//     through a completion counter the receiver polls (the deposit-then-flag
//     idiom of real RMA codes).
//   - Address packages travel through a single-slot buffer per
//     (sender, receiver) pair: a new package cannot be sent until the
//     receiver has consumed the previous one (Section 3.2's "no address
//     buffering" decision).
//   - Freeing a buffer while a Put could still target it is a protocol bug;
//     the emulation panics on a Put into a freed buffer, turning the paper's
//     data-consistency theorem into a checkable runtime assertion.
//
// Memory capacity accounting uses the abstract object sizes (units); the
// backing float64 buffers may have a different physical length (e.g. dense
// panels for structurally sparse objects).
package rma

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
)

// Buffer is an exported memory region on some processor. The receiver
// polls Arrivals; producers Put into it. Every deposit carries the
// message's version sequence number; the buffer discards duplicates
// (retransmission-layer dedup: at most one arrival per sequence number).
type Buffer struct {
	Obj      graph.ObjID
	Data     []float64
	arrivals atomic.Int32
	lastSeq  atomic.Int32
	freed    atomic.Bool
}

// Arrivals returns the number of completed deposits (acquire semantics).
func (b *Buffer) Arrivals() int32 { return b.arrivals.Load() }

// Put copies data into the buffer and increments the arrival counter with
// release semantics. seq is the deposit's version sequence number; a
// duplicate delivery (seq not above the highest already deposited — the
// reliability layer delivers versions in order) is discarded and Put
// reports false. The dedup check runs before the freed check on purpose: a
// duplicated copy may land after the receiver consumed the original and
// freed the buffer, and must be discarded, not treated as a consistency
// violation. A non-duplicate Put into a freed buffer still panics: it means
// the protocol invalidated an address that was in use.
func (b *Buffer) Put(data []float64, seq int32) bool {
	if seq <= b.lastSeq.Load() {
		return false
	}
	if b.freed.Load() {
		panic(fmt.Sprintf("rma: Put into freed buffer for object %d (address consistency violated)", b.Obj))
	}
	b.lastSeq.Store(seq)
	if b.Data != nil {
		copy(b.Data, data)
	}
	b.arrivals.Add(1)
	return true
}

// PutFlagOnly increments the arrival counter without copying (used when the
// executor runs structure-only, with no numeric payloads). Duplicate
// sequence numbers are discarded exactly as in Put.
func (b *Buffer) PutFlagOnly(seq int32) bool {
	if seq <= b.lastSeq.Load() {
		return false
	}
	if b.freed.Load() {
		panic(fmt.Sprintf("rma: Put into freed buffer for object %d (address consistency violated)", b.Obj))
	}
	b.lastSeq.Store(seq)
	b.arrivals.Add(1)
	return true
}

// AddrPackage is one address-notification message: the exported buffers a
// consumer tells a producer about. Seq is the package's per-(sender,
// receiver) sequence number, used by the receiver to discard duplicated
// deliveries.
type AddrPackage struct {
	From    graph.Proc
	Seq     int32
	Buffers []*Buffer
}

// Memory is one processor's capacity-accounted arena. Allocation and
// freeing are performed only by the owner processor's goroutine; buffers
// are handed to remote producers through address packages.
type Memory struct {
	capacity int64
	used     int64
	peak     int64
	// bufs is indexed by object id (nil: not allocated) and grows to the
	// largest id allocated, so Lookup — one per kernel operand and per
	// arrival check — is an index and a nil test.
	bufs []*Buffer
}

// NewMemory returns an arena with the given capacity in abstract units.
func NewMemory(capacity int64) *Memory {
	return &Memory{capacity: capacity}
}

// Used returns the units currently allocated.
func (m *Memory) Used() int64 { return m.used }

// Peak returns the most units ever allocated at once.
func (m *Memory) Peak() int64 { return m.peak }

// Alloc reserves size units for object o and returns its buffer with a
// backing slice of bufLen float64s (bufLen 0 gives a flag-only buffer).
func (m *Memory) Alloc(o graph.ObjID, size, bufLen int64) (*Buffer, error) {
	if _, dup := m.Lookup(o); dup {
		return nil, fmt.Errorf("rma: object %d already allocated (volatile objects are allocated once)", o)
	}
	if m.used+size > m.capacity {
		return nil, fmt.Errorf("rma: out of memory: %d + %d > %d", m.used, size, m.capacity)
	}
	m.used += size
	if m.used > m.peak {
		m.peak = m.used
	}
	var data []float64
	if bufLen > 0 {
		data = make([]float64, bufLen)
	}
	b := &Buffer{Obj: o, Data: data}
	for int(o) >= len(m.bufs) {
		m.bufs = append(m.bufs, nil)
	}
	m.bufs[o] = b
	return b, nil
}

// Free releases object o's buffer and marks it dead so that stray Puts are
// detected.
func (m *Memory) Free(o graph.ObjID, size int64) error {
	b, ok := m.Lookup(o)
	if !ok {
		return fmt.Errorf("rma: freeing unallocated object %d", o)
	}
	b.freed.Store(true)
	m.bufs[o] = nil
	m.used -= size
	return nil
}

// Lookup returns the live buffer of object o, if any.
func (m *Memory) Lookup(o graph.ObjID) (*Buffer, bool) {
	if uint(o) >= uint(len(m.bufs)) {
		return nil, false
	}
	b := m.bufs[o]
	return b, b != nil
}

// AddrSlots is the mesh of single-slot address buffers: slot (dst, src)
// holds at most one in-flight package from src to dst. Each destination
// additionally has a pending bitmask (one bit per source, in 64-bit
// words): a sender raises its bit after filling the slot, and the RA
// operation swaps out whole mask words and visits only flagged slots —
// O(p/64) atomic operations when idle instead of O(p) slot swaps per poll,
// which is what keeps the executor's per-blocking-state RA cheap at high
// processor counts.
type AddrSlots struct {
	p     int
	words int // mask words per destination
	slots []atomic.Pointer[AddrPackage]
	masks []paddedMask // dst-major, words per dst on their own cache lines
}

// paddedMask is one 64-source pending word, padded so different
// destinations' masks (written by senders, swapped by the consumer) do not
// false-share.
type paddedMask struct {
	w atomic.Uint64
	_ [56]byte
}

// NewAddrSlots returns the slot mesh for p processors.
func NewAddrSlots(p int) *AddrSlots {
	words := (p + 63) / 64
	return &AddrSlots{
		p:     p,
		words: words,
		slots: make([]atomic.Pointer[AddrPackage], p*p),
		masks: make([]paddedMask, p*words),
	}
}

// TrySend attempts to deposit a package from src into dst's slot. It
// reports false if the previous package has not been consumed yet. The
// pending bit is raised only after the slot is filled, so a consumer that
// observes the bit always finds the package.
func (a *AddrSlots) TrySend(dst, src graph.Proc, pkg *AddrPackage) bool {
	if !a.slots[int(dst)*a.p+int(src)].CompareAndSwap(nil, pkg) {
		return false
	}
	// CAS loop rather than atomic.Uint64.Or: the module targets go1.22,
	// which predates the atomic bitwise ops. Contention is bounded by the
	// senders of one destination racing the consumer's Swap(0).
	m := &a.masks[int(dst)*a.words+int(src)/64].w
	bit := uint64(1) << (uint(src) % 64)
	for {
		old := m.Load()
		if old&bit != 0 || m.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// ConsumeAppend removes all pending packages addressed to dst (the RA
// operation), appends them to buf and returns the extended slice — buf
// itself when nothing is pending. The RA operation runs in every blocking
// state of the protocol, so the executor reuses one scratch slice per
// processor to keep the steady-state poll allocation-free.
// An idle word costs a plain load, not a locked swap. A bit whose sender
// raced the load or the swap stays set for the next poll; the package is
// simply consumed then (the wake the executor issues after TrySend
// guarantees that next poll happens).
func (a *AddrSlots) ConsumeAppend(dst graph.Proc, buf []*AddrPackage) []*AddrPackage {
	base := int(dst) * a.p
	for w := 0; w < a.words; w++ {
		m := &a.masks[int(dst)*a.words+w].w
		if m.Load() == 0 {
			continue
		}
		mask := m.Swap(0)
		for mask != 0 {
			src := w*64 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			if pkg := a.slots[base+src].Swap(nil); pkg != nil {
				buf = append(buf, pkg)
			}
		}
	}
	return buf
}
