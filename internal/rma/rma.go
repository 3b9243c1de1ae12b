// Package rma emulates the remote-memory-access substrate the paper's
// run-time system is built on (SHMEM_PUT on the Cray-T3D): a processor can
// deposit data directly into another processor's memory, but only at an
// address it has been told in advance. The emulation preserves the
// properties the protocol design depends on:
//
//   - Put, the one deposit, targets a buffer handle previously exported by
//     the receiver; there is no handshake and no receiver-side copy. Arrival
//     is observable only through a completion counter the receiver polls
//     (the deposit-then-flag idiom of real RMA codes). When neither side
//     has a payload (a structure-only run) the deposit is the flag alone.
//   - Address packages travel through a single-slot buffer per
//     (sender, receiver) pair: a new package cannot be sent until the
//     receiver has consumed the previous one (Section 3.2's "no address
//     buffering" decision).
//   - Freeing a buffer while a Put could still target it is a protocol bug;
//     the emulation panics on a Put into a freed buffer, or into a dropped
//     payload, turning the paper's data-consistency theorem into a
//     checkable runtime assertion.
//
// Memory capacity accounting uses the abstract object sizes (units); the
// backing float64 buffers may have a different physical length (e.g. dense
// panels for structurally sparse objects). A buffer books its units from
// its allocation to its free, whether or not it holds a payload all that
// time: a receive buffer allocated with no payload gets one at its first
// deposit (Put), and its owner may drop the payload once the last read of
// it is done (Drop), which is how the executor keeps a large volatile copy
// only while it is live. The ledger, and so every plan's space, is the same
// either way.
package rma

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/util"
)

// Buffer is an exported memory region on some processor. The receiver
// polls Arrivals; producers Put into it. Every deposit carries the
// message's version sequence number; the buffer discards duplicates
// (retransmission-layer dedup: at most one arrival per sequence number).
type Buffer struct {
	Obj graph.ObjID
	// Chan is the channel id producers know the buffer by (-1: nothing is
	// ever deposited into it). It travels with the handle in address
	// packages, so a producer files a learned address without a search.
	Chan     int32
	Data     []float64
	arrivals atomic.Int32
	lastSeq  atomic.Int32
	// gone says why the buffer takes no more deposits: 0 while it does,
	// else payloadDropped or bufferFreed.
	gone atomic.Int32
	// event is 1 + the number of the allocation event whose recyclable
	// payload slab Data was carved from; 0 for any other payload.
	event int32
	// pooled holds the payload a first deposit took from the payload pool
	// (Data is its first len(Data) float64s), for Drop to hand back; nil
	// for any other payload.
	pooled *[]float64
}

// Why a buffer refuses a non-duplicate deposit (Buffer.gone).
const (
	payloadDropped int32 = 1 + iota
	bufferFreed
)

// Arrivals returns the number of completed deposits (acquire semantics).
func (b *Buffer) Arrivals() int32 { return b.arrivals.Load() }

// Put copies data into the buffer and increments the arrival counter with
// release semantics. seq is the deposit's version sequence number; a
// duplicate delivery (seq not above the highest already deposited — the
// reliability layer delivers versions in order) is discarded and Put
// reports false. The dedup check runs before the gone check on purpose: a
// duplicated copy may land after the receiver consumed the original and
// freed the buffer, or dropped its payload, and must be discarded, not
// treated as a consistency violation. A non-duplicate Put into a freed
// buffer, or into a dropped payload, still panics: it means the protocol
// invalidated an address, or let go of a payload, that was in use.
//
// Put is the one deposit. A buffer allocated with no payload gets one here:
// the first deposit that carries data takes a payload from the pool
// (takePayload) and copies the data into it, which overwrites all of it. In
// a structure-only run neither side has a payload, and Put only counts the
// arrival.
func (b *Buffer) Put(data []float64, seq int32) bool {
	if seq <= b.lastSeq.Load() {
		return false
	}
	switch b.gone.Load() {
	case bufferFreed:
		panic(fmt.Sprintf("rma: Put into freed buffer for object %d (address consistency violated)", b.Obj))
	case payloadDropped:
		panic(fmt.Sprintf("rma: Put into the dropped payload of object %d (a deposit after its last read)", b.Obj))
	}
	b.lastSeq.Store(seq)
	if b.Data == nil && data != nil {
		b.pooled, b.Data, _ = takePayload(len(data))
	}
	copy(b.Data, data)
	b.arrivals.Add(1)
	return true
}

// Drop lets go of the payload once its last read is done: the buffer stays
// allocated, booked and exported, but takes no further deposit (Put). Only
// the buffer's owner calls it, after the reads it ends, and only while no
// send it has queued still reads the object (a send reads its source when
// it transmits). A payload its first deposit took from the pool goes back
// to it, for the next large copy: a late duplicate reads the sequence
// watermark and never the payload.
func (b *Buffer) Drop() {
	if b.pooled != nil {
		RecyclePayload(b.pooled)
		b.pooled = nil
	}
	b.Data = nil
	b.gone.Store(payloadDropped)
}

// AddrPackage is one address-notification message: the exported buffers a
// consumer tells a producer about, each carrying its channel id. Seq is the
// package's per-(sender, receiver) sequence number, used by the receiver to
// discard duplicated deliveries.
type AddrPackage struct {
	From    graph.Proc
	Seq     int32
	Buffers []*Buffer
}

// Memory is one processor's capacity-accounted arena. Allocation and
// freeing are performed only by the owner processor's goroutine; buffers
// are handed to remote producers through address packages.
//
// Memory is allocated per event, not per object: Reserve opens an event
// (a processor's permanent allocation, one MAP's allocations) with one
// slab of headers and one of payloads, and the event's Allocs carve from
// them. A header is never reused within a run, so a freed buffer keeps its
// gone state and sequence watermark for as long as a stray handle to it
// exists in that run. A payload slab is reused as soon as every buffer
// carved from it is freed: a later event of the run takes it before it
// allocates, so the slabs a run holds follow the ledger's peak, not the
// sum of its events. Across runs everything is recycled: Reset starts a
// new run whose events take the previous run's header slabs back in event
// order, and its payload slabs where they fit.
type Memory struct {
	capacity int64
	used     int64
	peak     int64
	// bufs is indexed by object id (nil: not allocated) and grows to the
	// largest id allocated, unless Reset sized it once, so Lookup — one
	// per kernel operand and per arrival check — is an index and a nil
	// test.
	bufs []*Buffer
	// hdrs and pay are what is left of the open event's slabs.
	hdrs []Buffer
	pay  []float64
	// events counts the run's Reserves so far, and hdrSlabs holds their
	// header slabs by event number.
	events   int
	hdrSlabs [][]Buffer
	// paySlabs[i] is event i's recyclable payload slab while a buffer
	// carved from it is live, and payLive[i] counts those buffers. dead
	// holds the slabs this run has freed and no event has taken back, and
	// spare those of the previous run.
	paySlabs    [][]float64
	payLive     []int32
	dead, spare [][]float64
	// owned is the payload of the run's ReserveOwned event, which the
	// caller keeps past the run.
	owned *[]float64
}

// LargePayload is the payload length, in float64s, from which a buffer
// gets an allocation of its own instead of a place in its event's slab:
// 32 KiB, Go's large-object size. Carving payloads that large (LU's dense
// panels) out of one slab measured slower and bigger than allocating each.
const LargePayload = 32 << 10 / 8

// SlabLen is the share of an event's payload slab a buffer of bufLen
// float64s takes: bufLen, or 0 from LargePayload on.
func SlabLen(bufLen int64) int64 {
	if bufLen >= LargePayload {
		return 0
	}
	return bufLen
}

// payloads is the process-wide pool of payloads runs let go of — a dropped
// large copy (Buffer.Drop), the permanent slabs of a released result
// (RecyclePayload) — by size class. A payload's capacity is its class's
// size, so any payload of a class holds any length of that class. What no
// one takes back within two collections the collector drops (util.Pool).
var payloads [numClasses]util.Pool[[]float64]

// numClasses covers every int length (sizeClass).
const numClasses = 8 + 8*61

// sizeClass returns the class of a payload of n > 0 float64s and the
// capacity every payload of the class has: n itself up to 8, above that n
// rounded up to the next of eight steps per power of two, so that a class
// holds at most an eighth more than it is asked for.
func sizeClass(n int) (class, size int) {
	if n <= 8 {
		return n - 1, n
	}
	e := bits.Len(uint(n - 1)) // 2^(e-1) < n <= 2^e, e >= 4
	k := (n - 1 - 1<<(e-1)) >> (e - 4)
	return 8 + (e-4)*8 + k, 1<<(e-1) + (k+1)<<(e-4)
}

// takePayload returns a payload of n > 0 float64s from the pool and the box
// it travels in: a recycled payload, holding whatever its last user left,
// or, when fresh is true, a new zeroed one. The box keeps the whole
// allocation, whose capacity is n's size class's, for RecyclePayload; data
// is its first n float64s, with its capacity cut at n.
func takePayload(n int) (box *[]float64, data []float64, fresh bool) {
	c, size := sizeClass(n)
	box = payloads[c].Get()
	if fresh = cap(*box) == 0; fresh {
		*box = make([]float64, size)
	}
	return box, (*box)[:n:n], fresh
}

// RecyclePayload hands a box takePayload returned back to the pool; nothing
// may read or write its payload afterwards.
func RecyclePayload(box *[]float64) {
	c, _ := sizeClass(cap(*box))
	payloads[c].Recycle(box)
}

// NewMemory returns an arena with the given capacity in abstract units.
func NewMemory(capacity int64) *Memory {
	return &Memory{capacity: capacity}
}

// Reset empties the ledger for a new run with the given capacity and
// object ids below objects. The new run's events reuse the previous run's
// slabs, so every buffer of that run is dead: the caller must make sure
// that no handle to one can still be used.
func (m *Memory) Reset(capacity int64, objects int) {
	m.capacity, m.used, m.peak = capacity, 0, 0
	m.bufs = util.Reuse(m.bufs, objects)
	m.hdrs, m.pay = nil, nil
	// Keep the slabs of the run that ended, not those of a run before it.
	clear(m.hdrSlabs[m.events:])
	m.hdrSlabs = m.hdrSlabs[:m.events]
	clear(m.spare)
	m.spare = append(m.spare[:0], m.dead...)
	for _, p := range m.paySlabs {
		if p != nil {
			m.spare = append(m.spare, p)
		}
	}
	clear(m.dead)
	clear(m.paySlabs)
	m.dead, m.paySlabs, m.payLive = m.dead[:0], m.paySlabs[:0], m.payLive[:0]
	m.events, m.owned = 0, nil
}

// Release lets go of what the run's buffers point at — an owned payload
// the run handed out, a payload with an allocation of its own — and keeps
// the index, the header slabs (zeroed) and the recyclable payload slabs
// for the next Reset.
func (m *Memory) Release() {
	clear(m.bufs)
	for _, h := range m.hdrSlabs {
		clear(h)
	}
	m.hdrs, m.pay, m.owned = nil, nil, nil
}

// Used returns the units currently allocated.
func (m *Memory) Used() int64 { return m.used }

// Peak returns the most units ever allocated at once.
func (m *Memory) Peak() int64 { return m.peak }

// Reserve opens an allocation event: the next n Allocs carve their headers
// from one slab, and their payloads, where SlabLen says so, from another of
// floats float64s — the sum of their SlabLens. What an event leaves unused
// is dropped by the next Reserve; an Alloc past what was reserved
// allocates on its own. The header slab comes back zeroed from the same
// event of the previous run where it fits (util.Reuse); the payload slab
// is one this run freed, or one the previous run left, that fits the same
// way, zeroed, or a new one.
func (m *Memory) Reserve(n int, floats int64) { m.reserve(n, floats, false) }

// ReserveOwned is Reserve for an event whose payload the caller keeps past
// the run (a processor's permanent objects, which a run's result hands
// out): the payload slab comes from the payload pool (takePayload),
// zeroed, and no later event of the run takes it. Owned returns it; it goes
// back to the pool only if the caller hands it back (RecyclePayload).
func (m *Memory) ReserveOwned(n int, floats int64) { m.reserve(n, floats, true) }

// Owned returns the box of the payload slab of the run's ReserveOwned
// event; nil if there was none or it had no payload.
func (m *Memory) Owned() *[]float64 { return m.owned }

func (m *Memory) reserve(n int, floats int64, owned bool) {
	i := m.events
	m.events++
	if i == len(m.hdrSlabs) {
		m.hdrSlabs = append(m.hdrSlabs, nil)
	}
	m.hdrs = util.Reuse(m.hdrSlabs[i], n)
	m.hdrSlabs[i] = m.hdrs
	var slab []float64
	switch {
	case floats == 0:
	case owned:
		var fresh bool
		if m.owned, m.pay, fresh = takePayload(int(floats)); !fresh {
			clear(m.pay)
		}
	default:
		slab = m.takeSlab(int(floats))
		m.pay = slab
	}
	m.paySlabs, m.payLive = append(m.paySlabs, slab), append(m.payLive, 0)
}

// takeSlab returns a zeroed payload slab of n float64s: the smallest freed
// or spare one whose capacity is within [n, 2n] (util.Reuse's rule), or a
// new one.
func (m *Memory) takeSlab(n int) []float64 {
	var from *[][]float64
	best := -1
	for _, pool := range []*[][]float64{&m.dead, &m.spare} {
		for j, p := range *pool {
			if c := cap(p); c >= n && c <= 2*n && (best < 0 || c < cap((*from)[best])) {
				from, best = pool, j
			}
		}
	}
	if best < 0 {
		return make([]float64, n)
	}
	pool := *from
	p := pool[best][:n]
	last := len(pool) - 1
	pool[best], pool[last] = pool[last], nil
	*from = pool[:last]
	clear(p)
	return p
}

// Alloc reserves size units for object o and returns its buffer with a
// backing slice of bufLen float64s (bufLen 0 gives a flag-only buffer),
// exported under no channel.
func (m *Memory) Alloc(o graph.ObjID, size, bufLen int64) (*Buffer, error) {
	return m.AllocChan(o, -1, size, bufLen)
}

// AllocChan is Alloc for a buffer exported under channel ch. The payload's
// capacity is its length.
func (m *Memory) AllocChan(o graph.ObjID, ch int32, size, bufLen int64) (*Buffer, error) {
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
	var b *Buffer
	if len(m.hdrs) > 0 {
		b, m.hdrs = &m.hdrs[0], m.hdrs[1:]
	} else {
		b = new(Buffer)
	}
	b.Obj, b.Chan, b.event = o, ch, 0
	switch n := SlabLen(bufLen); {
	case n > 0 && n <= int64(len(m.pay)):
		b.Data, m.pay = m.pay[:n:n], m.pay[n:]
		if ev := m.events - 1; m.paySlabs[ev] != nil {
			b.event = int32(ev + 1)
			m.payLive[ev]++
		}
	case bufLen > 0:
		b.Data = make([]float64, bufLen)
	}
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
	b.gone.Store(bufferFreed)
	m.bufs[o] = nil
	m.used -= size
	// The last buffer of an event's payload slab frees the slab for a
	// later event. A stray deposit into this buffer still reads its gone
	// state (or its sequence watermark) before it could copy, so the slab's
	// next user is never written through the old handle.
	if ev := b.event - 1; ev >= 0 {
		if m.payLive[ev]--; m.payLive[ev] == 0 {
			m.dead = append(m.dead, m.paySlabs[ev])
			m.paySlabs[ev] = nil
		}
	}
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

// Reset empties the mesh for a new run of p processors, reusing its arrays
// (util.Reuse): no sender or consumer of the previous run may still use it.
func (a *AddrSlots) Reset(p int) {
	a.p, a.words = p, (p+63)/64
	a.slots = util.Reuse(a.slots, p*p)
	a.masks = util.Reuse(a.masks, p*a.words)
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
