package proto

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rma"
)

// TestReceiveHalf exercises the one copy of the receive-side state — the
// ledger, the arrival counters with their sequence dedup, the address book
// — directly on a Core, without a backend of its own: the loop harness is
// only a transport. Each case starts from a fresh machine whose first MAPs
// have run, with c the consumer of message snd and prod its producer.
func TestReceiveHalf(t *testing.T) {
	s := figure2Schedule(t)
	pl := planFor(t, s)
	snd := Derive(s).sends[0]
	name := s.G.Objects[snd.Obj].Name
	ch := snd.Chan
	dropped := func(m *loopMachine, p graph.Proc) int64 { return m.eng.dupDropped[p].Load() }
	free := &mem.MAP{Frees: []graph.ObjID{snd.Obj}}
	// realloc runs a MAP the plan does not have, allocating the object
	// again under its channel.
	realloc := func(c *Core) error {
		c.allocCh = []int32{ch}
		return c.applyMAP(&mem.MAP{Allocs: []graph.ObjID{snd.Obj}})
	}

	cases := []struct {
		name string
		run  func(t *testing.T, m *loopMachine, c, prod *Core)
	}{
		{"a duplicate after the free is discarded and charged to the receiver", func(t *testing.T, m *loopMachine, c, prod *Core) {
			prod.deposit(snd)
			if err := c.applyMAP(free); err != nil {
				t.Fatal(err)
			}
			prod.deposit(snd)
			if prod.err != nil {
				t.Fatalf("duplicate into freed space must be discarded, got %v", prod.err)
			}
			if dropped(m, snd.Dst) != 1 || dropped(m, prod.p) != 0 {
				t.Fatalf("discards: receiver %d, sender %d; want 1, 0", dropped(m, snd.Dst), dropped(m, prod.p))
			}
		}},
		{"a new version deposited into freed space is a run error naming the object", func(t *testing.T, m *loopMachine, c, prod *Core) {
			if err := c.applyMAP(free); err != nil {
				t.Fatal(err)
			}
			prod.deposit(snd)
			_, err := prod.Advance(9)
			if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) || !strings.Contains(err.Error(), "freed") {
				t.Fatalf("want a deposit error naming %q, got %v", name, err)
			}
			if dropped(m, snd.Dst) != 0 {
				t.Fatal("a refused deposit is not a duplicate")
			}
		}},
		{"allocating an allocated object is an error", func(t *testing.T, m *loopMachine, c, prod *Core) {
			if err := realloc(c); err == nil || !strings.Contains(err.Error(), "already allocated") {
				t.Fatalf("got %v", err)
			}
		}},
		{"freeing an unallocated object is an error", func(t *testing.T, m *loopMachine, c, prod *Core) {
			if err := c.applyMAP(free); err != nil {
				t.Fatal(err)
			}
			if err := c.applyMAP(free); err == nil || !strings.Contains(err.Error(), "unallocated") {
				t.Fatalf("got %v", err)
			}
		}},
		{"allocating past the capacity is an error", func(t *testing.T, m *loopMachine, c, prod *Core) {
			if err := c.applyMAP(free); err != nil {
				t.Fatal(err)
			}
			c.mem = rma.NewMemory(s.G.Objects[snd.Obj].Size - 1)
			if err := realloc(c); err == nil || !strings.Contains(err.Error(), "out of memory") {
				t.Fatalf("got %v", err)
			}
		}},
		{"a duplicated address package is discarded by sequence number", func(t *testing.T, m *loopMachine, c, prod *Core) {
			b, _ := c.Lookup(snd.Obj)
			pkg := &rma.AddrPackage{From: c.p, Seq: prod.addrSeen[c.p] + 1, Buffers: []*rma.Buffer{b}}
			prod.addr[ch] = nil
			for round, wantProgress := range []bool{true, false} {
				m.be[prod.p].slots[c.p] = pkg
				before := prod.Stats.AddrConsumed
				if got := prod.Poll(1); got != wantProgress || prod.Stats.AddrConsumed-before != 1-round {
					t.Fatalf("round %d: progress %v, consumed %d", round, got, prod.Stats.AddrConsumed-before)
				}
			}
			if prod.addr[ch] != b || dropped(m, prod.p) != 1 {
				t.Fatalf("address learned: %v, discards %d", prod.addr[ch] == b, dropped(m, prod.p))
			}
		}},
		{"the arrival counter restarts with each allocation", func(t *testing.T, m *loopMachine, c, prod *Core) {
			prod.deposit(snd)
			if n, ok := c.arrived(snd.Obj); !ok || n != 1 {
				t.Fatalf("arrived %d, %v", n, ok)
			}
			if err := c.applyMAP(free); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.arrived(snd.Obj); ok {
				t.Fatal("freed object still counts as allocated")
			}
			if err := realloc(c); err != nil {
				t.Fatal(err)
			}
			if n, ok := c.arrived(snd.Obj); !ok || n != 0 {
				t.Fatalf("fresh allocation starts at %d arrivals, %v", n, ok)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newLoopMachine(t, s, pl, Faults{})
			for _, c := range m.cores {
				if st, err := c.Advance(0); err != nil || st.Kind != RunMAP {
					t.Fatalf("first Advance: %v, %v", st.Kind, err)
				}
			}
			c := m.cores[snd.Dst]
			var prod *Core
			for _, pc := range m.cores {
				if _, ok := pc.Lookup(snd.Obj); ok && pc != c {
					prod = pc
				}
			}
			b, ok := c.Lookup(snd.Obj)
			if prod == nil || !ok {
				t.Fatalf("object %q has no producer or is not allocated on its consumer", name)
			}
			prod.addr[ch] = b
			tc.run(t, m, c, prod)
		})
	}
}
