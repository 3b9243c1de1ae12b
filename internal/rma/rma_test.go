package rma

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestMemoryCapacityAccounting(t *testing.T) {
	m := NewMemory(10)
	b1, err := Alloc2(m, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if m.Used() != 6 {
		t.Fatalf("used %d", m.Used())
	}
	if _, err := Alloc2(m, 2, 5); err == nil {
		t.Fatalf("over-capacity allocation succeeded")
	}
	if _, err := Alloc2(m, 1, 1); err == nil {
		t.Fatalf("duplicate allocation succeeded")
	}
	if err := m.Free(1, 6); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 0 || m.Peak() != 6 {
		t.Fatalf("used %d, peak %d after free; want 0, 6", m.Used(), m.Peak())
	}
	if err := m.Free(1, 6); err == nil {
		t.Fatalf("double free succeeded")
	}
	_ = b1
	if _, ok := m.Lookup(1); ok {
		t.Fatalf("freed buffer still visible")
	}
}

// Alloc2 is a test helper with a buffer length equal to size.
func Alloc2(m *Memory, o graph.ObjID, size int64) (*Buffer, error) {
	return m.Alloc(o, size, size)
}

func TestPutAndArrivals(t *testing.T) {
	m := NewMemory(100)
	b, err := Alloc2(m, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Arrivals() != 0 {
		t.Fatalf("fresh buffer has arrivals")
	}
	if !b.Put([]float64{1, 2, 3, 4}, 1) {
		t.Fatalf("first deposit rejected")
	}
	if b.Arrivals() != 1 {
		t.Fatalf("arrivals %d", b.Arrivals())
	}
	if b.Data[2] != 3 {
		t.Fatalf("data not deposited")
	}
	if !b.Put([]float64{5, 6, 7, 8}, 2) {
		t.Fatalf("second deposit rejected")
	}
	if b.Arrivals() != 2 || b.Data[0] != 5 {
		t.Fatalf("second deposit wrong")
	}
	if !b.PutFlagOnly(3) {
		t.Fatalf("flag-only deposit rejected")
	}
	if b.Arrivals() != 3 {
		t.Fatalf("flag-only deposit not counted")
	}
}

// TestPutDedup: a deposit whose sequence number is not above the highest
// already delivered is a duplicate — discarded without copying data or
// touching the arrival counter, even after the buffer is freed.
func TestPutDedup(t *testing.T) {
	m := NewMemory(100)
	b, err := Alloc2(m, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Put([]float64{1, 2}, 1) {
		t.Fatal("original deposit rejected")
	}
	if b.Put([]float64{9, 9}, 1) {
		t.Fatal("duplicate deposit accepted")
	}
	if b.Arrivals() != 1 || b.Data[0] != 1 {
		t.Fatalf("duplicate touched the buffer: arrivals %d data %v", b.Arrivals(), b.Data)
	}
	if b.PutFlagOnly(1) {
		t.Fatal("duplicate flag-only deposit accepted")
	}
	// A duplicate may even arrive after the receiver consumed the original
	// and freed the buffer; it must be discarded, not treated as a
	// consistency violation.
	if err := m.Free(7, 2); err != nil {
		t.Fatal(err)
	}
	if b.Put([]float64{9, 9}, 1) {
		t.Fatal("duplicate deposit into freed buffer accepted")
	}
}

func TestPutAfterFreePanics(t *testing.T) {
	m := NewMemory(100)
	b, err := Alloc2(m, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Free(3, 2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Put into freed buffer did not panic")
		}
	}()
	b.Put([]float64{1, 2}, 1)
}

func TestAddrSlotsSingleSlot(t *testing.T) {
	s := NewAddrSlots(3)
	pkg1 := &AddrPackage{From: 1}
	pkg2 := &AddrPackage{From: 1}
	if !s.TrySend(0, 1, pkg1) {
		t.Fatalf("first send failed")
	}
	if s.TrySend(0, 1, pkg2) {
		t.Fatalf("second send into occupied slot succeeded")
	}
	// A different source pair is independent.
	if !s.TrySend(0, 2, &AddrPackage{From: 2}) {
		t.Fatalf("independent slot blocked")
	}
	got := s.ConsumeAppend(0, nil)
	if len(got) != 2 {
		t.Fatalf("consumed %d packages, want 2", len(got))
	}
	if !s.TrySend(0, 1, pkg2) {
		t.Fatalf("slot not freed by ConsumeAppend")
	}
	if pkgs := s.ConsumeAppend(1, nil); pkgs != nil {
		t.Fatalf("empty consume returned %v", pkgs)
	}
}

func TestAddrSlotsConcurrent(t *testing.T) {
	const n = 500
	s := NewAddrSlots(2)
	var wg sync.WaitGroup
	wg.Add(2)
	sent := 0
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if s.TrySend(0, 1, &AddrPackage{From: 1}) {
				i++
				sent++
			} else {
				runtime.Gosched()
			}
		}
	}()
	received := 0
	go func() {
		defer wg.Done()
		for received < n {
			got := len(s.ConsumeAppend(0, nil))
			received += got
			if got == 0 {
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	if sent != n || received != n {
		t.Fatalf("sent %d received %d", sent, received)
	}
}

// TestSlabNeighboursIsolated: the buffers of one allocation event share a
// payload slab, so each payload's capacity must end where it ends — a Put
// (or a kernel's append) into one can then never write into the next — and
// a deposit leaves every neighbour's payload bit-identical. A payload of
// LargePayload float64s or more is not carved from the slab at all.
func TestSlabNeighboursIsolated(t *testing.T) {
	lens := []int64{3, 1, LargePayload, 4, 2}
	m := NewMemoryFor(1<<20, len(lens))
	var floats int64
	for _, n := range lens {
		floats += SlabLen(n)
	}
	m.Reserve(len(lens), floats)
	bufs := make([]*Buffer, len(lens))
	for i, n := range lens {
		b, err := m.AllocChan(graph.ObjID(i), int32(i), 1, n)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(b.Data)) != n || cap(b.Data) != len(b.Data) {
			t.Fatalf("buffer %d: len %d cap %d, want both %d", i, len(b.Data), cap(b.Data), n)
		}
		for j := range b.Data {
			b.Data[j] = float64(100*i + j)
		}
		bufs[i] = b
	}
	if len(m.pay) != 0 {
		t.Fatalf("%d float64s of the slab unused", len(m.pay))
	}
	snapshot := func() [][]uint64 {
		s := make([][]uint64, len(bufs))
		for i, b := range bufs {
			for _, v := range b.Data {
				s[i] = append(s[i], math.Float64bits(v))
			}
		}
		return s
	}
	for i, b := range bufs {
		before := snapshot()
		data := make([]float64, len(b.Data))
		for j := range data {
			data[j] = math.NaN()
		}
		if !b.Put(data, 1) {
			t.Fatalf("deposit into buffer %d rejected", i)
		}
		after := snapshot()
		for k := range bufs {
			if k != i && !slices.Equal(before[k], after[k]) {
				t.Fatalf("a deposit into buffer %d changed buffer %d", i, k)
			}
		}
	}
}

// TestResetRecyclesSlabs: after Reset the next run's events take the last
// run's slabs back in event order, headers and payloads zeroed — a freed
// header comes back live, with no arrivals and no sequence watermark — and
// an owned payload, which the run hands out, is never taken back.
func TestResetRecyclesSlabs(t *testing.T) {
	m := NewMemoryFor(100, 4)
	run := func() (owned, mapped *Buffer) {
		m.ReserveOwned(1, 2)
		owned, err := m.AllocChan(0, -1, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		m.Reserve(2, 5)
		mapped, err = m.AllocChan(1, 0, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.AllocChan(2, 1, 1, 2); err != nil {
			t.Fatal(err)
		}
		return owned, mapped
	}
	owned1, mapped1 := run()
	kept, slab := owned1.Data, mapped1.Data
	for _, d := range [][]float64{kept, slab} {
		for i := range d {
			d[i] = math.NaN()
		}
	}
	if !mapped1.Put([]float64{1, 2, 3}, 7) {
		t.Fatal("deposit rejected")
	}
	if err := m.Free(1, 1); err != nil {
		t.Fatal(err)
	}

	m.Reset(50, 4)
	if m.Used() != 0 || m.Peak() != 0 {
		t.Fatalf("Reset left used %d, peak %d", m.Used(), m.Peak())
	}
	if _, ok := m.Lookup(0); ok {
		t.Fatal("Reset left object 0 allocated")
	}
	owned2, mapped2 := run()
	if mapped2 != mapped1 || &mapped2.Data[0] != &slab[0] {
		t.Fatal("the MAP event did not take its header and payload slabs back")
	}
	if &owned2.Data[0] == &kept[0] || !math.IsNaN(kept[0]) || !math.IsNaN(kept[1]) {
		t.Fatal("an owned payload was taken back")
	}
	for _, b := range []*Buffer{owned2, mapped2} {
		for _, v := range b.Data {
			if v != 0 {
				t.Fatalf("object %d: payload not zeroed: %v", b.Obj, b.Data)
			}
		}
	}
	if mapped2.Arrivals() != 0 || !mapped2.Put([]float64{4, 5, 6}, 1) {
		t.Fatal("a recycled header kept its arrivals, sequence watermark or freed flag")
	}
}

// TestFreedSlabTakenWithinRun: once every buffer carved from an event's
// payload slab is freed, a later event of the same run takes the slab,
// zeroed, instead of allocating — and the old handles cannot write into
// it: a duplicate deposit is discarded by its sequence watermark and a new
// one panics on the freed flag, both before they copy.
func TestFreedSlabTakenWithinRun(t *testing.T) {
	m := NewMemoryFor(100, 4)
	m.Reserve(2, 5)
	a, err := m.AllocChan(0, 0, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.AllocChan(1, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Put([]float64{1, 2, 3}, 1) || !b.Put([]float64{4, 5}, 1) {
		t.Fatal("deposit rejected")
	}
	slab := a.Data[:1]
	if err := m.Free(0, 1); err != nil {
		t.Fatal(err)
	}
	m.Reserve(1, 4)
	if c, err := m.AllocChan(2, 2, 1, 4); err != nil || &c.Data[0] == &slab[0] {
		t.Fatalf("a slab with a live buffer was taken (err %v)", err)
	}
	if err := m.Free(1, 1); err != nil {
		t.Fatal(err)
	}
	m.Reserve(1, 5)
	d, err := m.AllocChan(3, 3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if &d.Data[0] != &slab[0] {
		t.Fatal("the freed slab was not taken back")
	}
	if !slices.Equal(d.Data, make([]float64, 5)) {
		t.Fatalf("the slab came back %v, not zeroed", d.Data)
	}
	if a.Put([]float64{7, 7, 7}, 1) {
		t.Fatal("a duplicate deposit into a freed buffer was accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a new deposit into a freed buffer did not panic")
			}
		}()
		a.Put([]float64{8, 8, 8}, 2)
	}()
	if !slices.Equal(d.Data, make([]float64, 5)) {
		t.Fatalf("a deposit through a freed handle wrote %v", d.Data)
	}
}
