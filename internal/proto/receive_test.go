package proto

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/rma"
	"repro/internal/sched"
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

// TestLargeCopyPayloadLifecycle: a received copy whose payload is at least
// rma.LargePayload long has no payload from its MAP to its first deposit,
// keeps it while it is read — a later version is copied into it — and has
// none once its last local reader is done. A duplicate landing after that
// is discarded; a new version there is a run error. The ledger books the
// same units as a run without payloads.
func TestLargeCopyPayloadLifecycle(t *testing.T) {
	b := graph.NewBuilder()
	a := b.Object("a", 4)
	x := b.Object("x", 1)
	y := b.Object("y", 1)
	b.Task("t0", 1, nil, []graph.ObjID{a})
	t1 := b.Task("t1", 1, []graph.ObjID{a}, []graph.ObjID{x})
	t3 := b.Task("t3", 1, nil, []graph.ObjID{a}) // version 2, once t1 has read version 1
	t2 := b.Task("t2", 1, []graph.ObjID{a}, []graph.ObjID{y})
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g.Objects[a].Owner, g.Objects[x].Owner, g.Objects[y].Owner = 0, 1, 1
	assign, err := sched.OwnerComputeAssign(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ScheduleRCP(g, assign, 2, sched.Unit())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := mem.NewPlan(s, s.TOT())
	if err != nil || !pl.Executable {
		t.Fatalf("TOT plan: %v", err)
	}
	// Every data message arrives twice; the copy lands before the drop.
	m := newPayloadMachine(t, s, pl, Faults{Seed: 1, DupFrac: 1}, rma.LargePayload)
	ch := m.eng.Tables.Chan(1, a)
	if ch < 0 || m.eng.Tables.Expect(1, a) != 2 || m.eng.Tables.lastRead[ch] != t2 {
		t.Fatalf("channel %d of a on proc 1: %d versions, last reader %d; want 2 versions read last by t2",
			ch, m.eng.Tables.Expect(1, a), m.eng.Tables.lastRead[ch])
	}
	copyOf := func() *rma.Buffer {
		buf, ok := m.cores[1].Lookup(a)
		if !ok {
			t.Fatal("proc 1 holds no copy of a")
		}
		return buf
	}
	var deposits []int32
	m.onData = func(snd Send) {
		if snd.Dst != 1 {
			return
		}
		if buf := copyOf(); snd.Seq == 1 && len(deposits) == 0 && buf.Data != nil {
			t.Errorf("the copy has a payload of %d before its first deposit", len(buf.Data))
		}
		deposits = append(deposits, snd.Seq)
	}
	var ran []graph.TaskID
	m.afterTask = func(c *Core, task graph.TaskID) {
		if c != m.cores[1] || (task != t1 && task != t2) {
			return
		}
		ran = append(ran, task)
		if n := len(copyOf().Data); (task == t1) != (n == rma.LargePayload) {
			t.Errorf("after %s the copy's payload is %d long", g.TaskName(task), n)
		}
	}
	m.run(t)
	if !slices.Equal(ran, []graph.TaskID{t1, t2}) || !slices.Equal(deposits, []int32{1, 1, 2, 2}) {
		t.Fatalf("readers ran %v, deposits %v; want t1 then t2, each version twice", ran, deposits)
	}

	bare := newLoopMachine(t, s, pl, Faults{})
	bare.run(t)
	for q := range m.cores {
		if got, want := m.cores[q].mem.Peak(), bare.cores[q].mem.Peak(); got != want {
			t.Errorf("proc %d books a peak of %d units with payloads, %d without", q, got, want)
		}
	}

	prod, buf := m.cores[0], copyOf()
	v2 := m.eng.Tables.SendsOf(t3)[0]
	discarded := m.eng.dupDropped[1].Load()
	prod.deposit(v2)
	if prod.err != nil || buf.Data != nil || m.eng.dupDropped[1].Load() != discarded+1 {
		t.Fatalf("a duplicate after the drop: error %v, payload %d long, %d discards; want it discarded",
			prod.err, len(buf.Data), m.eng.dupDropped[1].Load()-discarded)
	}
	v3 := v2
	v3.Seq++
	prod.deposit(v3)
	if prod.err == nil || !strings.Contains(prod.err.Error(), "dropped payload") {
		t.Fatalf("a new version after the drop: %v, want a deposit error", prod.err)
	}
}
