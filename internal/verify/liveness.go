package verify

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/mem"
)

// notifyShape checks that a MAP's address packages are well-formed CSR
// naming processors in [0,p) in strictly ascending order, and says what is
// wrong if they are not ("" if nothing).
func notifyShape(nt *mem.Notify, p int) string {
	if len(nt.Dst) == 0 {
		if len(nt.Off) > 1 || len(nt.Objs) > 0 {
			return "lists notified objects without a destination"
		}
		return ""
	}
	if len(nt.Off) != len(nt.Dst)+1 || nt.Off[0] != 0 || int(nt.Off[len(nt.Dst)]) != len(nt.Objs) {
		return "has malformed address-package offsets"
	}
	out := 0
	for i, q := range nt.Dst {
		if nt.Off[i+1] < nt.Off[i] {
			return "has malformed address-package offsets"
		}
		if q < 0 || int(q) >= p {
			out++
		} else if i > 0 && q <= nt.Dst[i-1] {
			return "notifies processors out of order"
		}
	}
	if out > 0 {
		return fmt.Sprintf("notifies %d processor(s) outside [0,%d)", out, p)
	}
	return ""
}

// structural is the pre-pass that makes the deeper analyses safe: it checks
// every index the later passes dereference and recomputes task positions
// from the orders. It returns false when the plan is too malformed to
// analyze further.
func (c *checker) structural() bool {
	s, mp := c.s, c.mp
	fatal := func(detail string) bool {
		c.res.add(Finding{Class: ClassStructure, Proc: graph.None, Pos: graph.None,
			Task: graph.None, Obj: graph.None, Detail: detail})
		return false
	}
	if s == nil || mp == nil {
		return fatal("nil schedule or memory plan")
	}
	if s.G == nil {
		return fatal("schedule has no task graph")
	}
	n := s.G.NumTasks()
	m := int32(s.G.NumObjects())
	if s.P < 1 {
		return fatal(fmt.Sprintf("schedule has %d processors", s.P))
	}
	if len(s.Order) != s.P {
		return fatal(fmt.Sprintf("schedule has %d orders for %d processors", len(s.Order), s.P))
	}
	if len(mp.Procs) != s.P {
		return fatal(fmt.Sprintf("memory plan has %d processors, schedule %d", len(mp.Procs), s.P))
	}
	if len(s.Assign) != n {
		return fatal(fmt.Sprintf("%d assignments for %d tasks", len(s.Assign), n))
	}
	for t := 0; t < n; t++ {
		if q := s.Assign[t]; q < 0 || int(q) >= s.P {
			return fatal(fmt.Sprintf("task %d assigned to out-of-range processor %d", t, q))
		}
		for _, o := range s.G.Accesses(graph.TaskID(t)) {
			if o < 0 || o >= m {
				return fatal(fmt.Sprintf("task %d references out-of-range object %d", t, o))
			}
		}
	}
	// Recompute positions from the orders; every task must appear exactly
	// once on its assigned processor.
	c.pos = make([]int32, n)
	for i := range c.pos {
		c.pos[i] = -1
	}
	count := 0
	for p := 0; p < s.P; p++ {
		for i, t := range s.Order[p] {
			if t < 0 || int(t) >= n {
				return fatal(fmt.Sprintf("order of processor %d lists out-of-range task %d", p, t))
			}
			if s.Assign[t] != graph.Proc(p) {
				return fatal(fmt.Sprintf("task %d ordered on processor %d but assigned to %d", t, p, s.Assign[t]))
			}
			if c.pos[t] != -1 {
				return fatal(fmt.Sprintf("task %d ordered twice", t))
			}
			c.pos[t] = int32(i)
			count++
		}
	}
	if count != n {
		return fatal(fmt.Sprintf("%d of %d tasks ordered", count, n))
	}
	c.res.Checks += 4 + n
	// The stored Pos array must agree with the orders (the executors index
	// by it); disagreement is survivable for analysis but reported.
	if len(s.Pos) != n {
		c.res.add(Finding{Class: ClassStructure, Proc: graph.None, Pos: graph.None,
			Task: graph.None, Obj: graph.None,
			Detail: fmt.Sprintf("stored position array has %d entries for %d tasks", len(s.Pos), n)})
	} else {
		for t := 0; t < n; t++ {
			if s.Pos[t] != c.pos[t] {
				c.res.add(Finding{Class: ClassStructure, Proc: s.Assign[t], Pos: c.pos[t],
					Task: graph.TaskID(t), Obj: graph.None,
					Detail: fmt.Sprintf("stored position %d disagrees with order position %d", s.Pos[t], c.pos[t])})
				break
			}
		}
	}
	// MAP tables: positions in range and strictly increasing, object
	// references in range.
	for p := range mp.Procs {
		maps := mp.Procs[p].MAPs
		prev := int32(-1)
		for mi := range maps {
			mapp := &maps[mi]
			if mapp.Pos < 0 || int(mapp.Pos) > len(s.Order[p]) {
				return fatal(fmt.Sprintf("processor %d MAP %d at out-of-range position %d", p, mi, mapp.Pos))
			}
			if mapp.Pos <= prev {
				c.res.add(Finding{Class: ClassStructure, Proc: graph.Proc(p), Pos: mapp.Pos,
					Task: graph.None, Obj: graph.None,
					Detail: fmt.Sprintf("MAP positions not strictly increasing (%d after %d)", mapp.Pos, prev)})
			}
			prev = mapp.Pos
			for _, lists := range [2][]graph.ObjID{mapp.Frees, mapp.Allocs} {
				for _, o := range lists {
					if o < 0 || o >= m {
						return fatal(fmt.Sprintf("processor %d MAP at %d references out-of-range object %d", p, mapp.Pos, o))
					}
				}
			}
			if msg := notifyShape(&mapp.Notify, s.P); msg != "" {
				return fatal(fmt.Sprintf("processor %d MAP at %d %s", p, mapp.Pos, msg))
			}
		}
		c.res.Checks += len(maps)
	}
	// What the tables below are indexed by: owners and the objects true
	// dependences carry.
	for o := range s.G.Objects {
		if owner := s.G.Objects[o].Owner; int(owner) >= s.P {
			return fatal(fmt.Sprintf("object %d owned by out-of-range processor %d", o, owner))
		}
	}
	for t := 0; t < n; t++ {
		for _, e := range s.G.In(graph.TaskID(t)) {
			if e.Kind == graph.DepTrue && (e.Obj < 0 || e.Obj >= m) {
				return fatal(fmt.Sprintf("true dependence %d->%d carries out-of-range object %d", e.From, e.To, e.Obj))
			}
		}
	}
	return true
}

// objState tracks one volatile object through the liveness replay.
type objState uint8

const (
	objUnallocated objState = iota
	objAllocated
	objFreed
)

// lifetime is the alive range of one volatile object on the processor the
// replay is on: the positions of the first and last tasks that use it.
type lifetime struct {
	obj         graph.ObjID
	first, last int32
}

// replay is the state of the liveness replay, one processor at a time.
// The object-indexed tables are sized once and reset between processors.
type replay struct {
	p graph.Proc
	// words is the uint64 words of a row with one bit per processor.
	words int
	// lives are p's volatile lifetimes, in first-use order, recomputed
	// from the verified order; lifeAt[o] is 1 + the index of o's, 0 for an
	// object p does not use.
	lives  []lifetime
	lifeAt []int32
	// producers holds, words bits per object, the processors that
	// RMA-deposit the object into p's buffers.
	producers []uint64
	// state and freedAt are the symbolic allocator.
	state   []objState
	freedAt []int32
	// mapSeq numbers the MAPs replayed; inMAP[o] is the number of the last
	// MAP that allocated o, and notified holds, words bits per object, the
	// processors that MAP's address packages told about o.
	mapSeq   int32
	inMAP    []int32
	notified []uint64
	// due lists the objects the leak scan of the next MAP looks at: those
	// whose last use the replay has passed since the previous MAP, and
	// those that MAP allocated after their last use. missing is scratch.
	due, missing []graph.ObjID
	inUse, peak  int64
}

// lifetimeOf returns o's lifetime on the replay's processor.
func (r *replay) lifetimeOf(o graph.ObjID) (lifetime, bool) {
	if k := r.lifeAt[o]; k != 0 {
		return r.lives[k-1], true
	}
	return lifetime{}, false
}

// produces reports whether processor q deposits o into the replay
// processor's buffers.
func (r *replay) produces(o graph.ObjID, q graph.Proc) bool {
	return r.producers[int(o)*r.words+int(q>>6)]&(1<<(q&63)) != 0
}

// row returns object o's row of a table with one bit per processor.
func (r *replay) row(table []uint64, o graph.ObjID) []uint64 {
	return table[int(o)*r.words : int(o+1)*r.words]
}

// liveness replays each processor's MAP sequence against its task order:
// the dataflow pass proving allocate-before-first-use and free-after-last-
// use, plus the symbolic allocator replay that computes exact peaks and
// checks them against the declared peaks and the capacity. It also leaves
// each processor's immediate-free volatile peak for dtsBound.
func (c *checker) liveness() {
	s, mp := c.s, c.mp
	perm := s.PermSize()
	c.res.Peaks = make([]int64, s.P)
	words := (s.P + 63) / 64
	r := &replay{
		words:     words,
		lifeAt:    make([]int32, c.m),
		producers: make([]uint64, c.m*words),
		state:     make([]objState, c.m),
		freedAt:   make([]int32, c.m),
		inMAP:     make([]int32, c.m),
		notified:  make([]uint64, c.m*words),
	}
	if c.sliced() {
		c.volPeak = make([]int64, s.P)
	}

	for p := 0; p < s.P; p++ {
		r.p = graph.Proc(p)
		c.lifetimes(r)
		if c.volPeak != nil {
			c.volPeak[p] = c.immediateFreePeak(r.lives, len(s.Order[p]))
		}
		if pp := &mp.Procs[p]; pp.Executable {
			c.replayProc(r, pp, perm[p])
		} else {
			// The planner stops at the failing position; the tail of the
			// order legitimately has no allocations to verify.
			c.res.Peaks[p] = pp.Peak
		}
		for _, l := range r.lives {
			r.lifeAt[l.obj] = 0
		}
	}
}

// lifetimes fills r.lives and r.lifeAt for r's processor from its order.
func (c *checker) lifetimes(r *replay) {
	r.lives = r.lives[:0]
	for i, t := range c.s.Order[r.p] {
		for _, o := range c.g.Accesses(t) {
			switch {
			case c.g.Objects[o].Owner == r.p:
			case r.lifeAt[o] != 0:
				r.lives[r.lifeAt[o]-1].last = int32(i)
			default:
				r.lives = append(r.lives, lifetime{obj: o, first: int32(i), last: int32(i)})
				r.lifeAt[o] = int32(len(r.lives))
			}
		}
	}
}

// replayProc replays one executable processor's MAPs against its order.
func (c *checker) replayProc(r *replay, pp *mem.ProcPlan, perm int64) {
	p, order := r.p, c.s.Order[r.p]
	c.markProducers(r)
	clear(r.state)
	r.due = r.due[:0]
	r.inUse, r.peak = perm, perm
	if len(order) > 0 && (len(pp.MAPs) == 0 || pp.MAPs[0].Pos != 0) {
		c.report(Finding{Class: ClassStructure, Proc: p, Pos: 0,
			Task: graph.None, Obj: graph.None,
			Detail: "missing mandatory initial MAP at position 0"})
	}
	mi := 0
	prevCover := int32(0)
	for pos := int32(0); pos <= int32(len(order)); pos++ {
		for mi < len(pp.MAPs) && pp.MAPs[mi].Pos == pos {
			mapp := &pp.MAPs[mi]
			c.check()
			if mapp.Pos != prevCover && mi > 0 {
				c.report(Finding{Class: ClassStructure, Proc: p, Pos: mapp.Pos,
					Task: graph.None, Obj: graph.None,
					Detail: fmt.Sprintf("MAP coverage gap: previous MAP covered through %d, this MAP at %d", prevCover, mapp.Pos)})
			}
			prevCover = mapp.CoverEnd
			c.replayMAP(r, mapp)
			mi++
		}
		if int(pos) >= len(order) {
			break
		}
		t := order[pos]
		for _, o := range c.g.Accesses(t) {
			if c.g.Objects[o].Owner == p {
				continue
			}
			c.check()
			switch r.state[o] {
			case objUnallocated:
				if c.once(ClassUseBeforeMAP, p, o) {
					c.report(Finding{Class: ClassUseBeforeMAP, Proc: p, Pos: pos, Task: t, Obj: o,
						Detail: "volatile object used before any MAP allocates it"})
				}
			case objFreed:
				if c.once(ClassUseAfterFree, p, o) {
					c.report(Finding{Class: ClassUseAfterFree, Proc: p, Pos: pos, Task: t, Obj: o,
						Detail: fmt.Sprintf("volatile object used after its free at MAP@%d", r.freedAt[o])})
				}
			}
			if r.lives[r.lifeAt[o]-1].last == pos {
				r.due = append(r.due, o)
			}
		}
	}
	for ; mi < len(pp.MAPs); mi++ {
		c.report(Finding{Class: ClassStructure, Proc: p, Pos: pp.MAPs[mi].Pos,
			Task: graph.None, Obj: graph.None,
			Detail: "MAP positioned past the end of the order"})
	}
	if len(pp.MAPs) > 0 {
		c.check()
		if last := pp.MAPs[len(pp.MAPs)-1].CoverEnd; last != int32(len(order)) {
			c.report(Finding{Class: ClassStructure, Proc: p, Pos: pp.MAPs[len(pp.MAPs)-1].Pos,
				Task: graph.None, Obj: graph.None,
				Detail: fmt.Sprintf("last MAP covers through %d, order has %d tasks", last, len(order))})
		}
	}
	c.res.Peaks[p] = r.peak
	c.check()
	if r.peak != pp.Peak {
		c.report(Finding{Class: ClassPeakMismatch, Proc: p, Pos: graph.None,
			Task: graph.None, Obj: graph.None,
			Detail: fmt.Sprintf("declared peak %d, symbolic replay computes %d (stale plan?)", pp.Peak, r.peak)})
	}
	c.check()
	if r.peak > c.mp.Capacity {
		c.report(Finding{Class: ClassBudgetOverflow, Proc: p, Pos: graph.None,
			Task: graph.None, Obj: graph.None,
			Detail: fmt.Sprintf("replayed peak %d exceeds capacity %d (AVAIL_MEM)", r.peak, c.mp.Capacity)})
	}
}

// markProducers fills r.producers, mirroring the memory planner's producer
// analysis: the processors whose tasks RMA-deposit each volatile object
// into r's processor's buffers.
func (c *checker) markProducers(r *replay) {
	clear(r.producers)
	for _, t := range c.s.Order[r.p] {
		for _, e := range c.g.In(t) {
			if e.Kind != graph.DepTrue {
				continue
			}
			q := c.s.Assign[e.From]
			if q == r.p || c.g.Objects[e.Obj].Owner == r.p {
				continue
			}
			r.row(r.producers, e.Obj)[q>>6] |= 1 << (q & 63)
		}
	}
}

// replayMAP applies one MAP to the symbolic allocator state, checking the
// free/alloc invariants and the Notify cross-check.
func (c *checker) replayMAP(r *replay, mapp *mem.MAP) {
	p, pos := r.p, mapp.Pos
	for _, o := range mapp.Frees {
		c.check()
		switch r.state[o] {
		case objFreed:
			if c.once(ClassDoubleFree, p, o) {
				c.report(Finding{Class: ClassDoubleFree, Proc: p, Pos: pos, Task: graph.None, Obj: o,
					Detail: fmt.Sprintf("volatile object freed again (first free at MAP@%d)", r.freedAt[o])})
			}
			continue
		case objUnallocated:
			if c.once(ClassStructure, p, o) {
				c.report(Finding{Class: ClassStructure, Proc: p, Pos: pos, Task: graph.None, Obj: o,
					Detail: "MAP frees an object that was never allocated"})
			}
			continue
		}
		r.state[o] = objFreed
		r.freedAt[o] = pos
		r.inUse -= c.g.Objects[o].Size
		if l, ok := r.lifetimeOf(o); ok && l.last >= pos && c.once(ClassUseAfterFree, p, o) {
			c.report(Finding{Class: ClassUseAfterFree, Proc: p, Pos: pos, Task: graph.None, Obj: o,
				Detail: fmt.Sprintf("freed at MAP@%d before its last use at position %d", pos, l.last)})
		}
	}
	c.leaks(r, pos)
	for _, o := range mapp.Allocs {
		c.check()
		switch r.state[o] {
		case objAllocated:
			if c.once(ClassRealloc, p, o) {
				c.report(Finding{Class: ClassRealloc, Proc: p, Pos: pos, Task: graph.None, Obj: o,
					Detail: "volatile object allocated twice"})
			}
			continue
		case objFreed:
			if c.once(ClassRealloc, p, o) {
				c.report(Finding{Class: ClassRealloc, Proc: p, Pos: pos, Task: graph.None, Obj: o,
					Detail: fmt.Sprintf("volatile object resurrected after its free at MAP@%d", r.freedAt[o])})
			}
			continue
		}
		if c.g.Objects[o].Owner == p {
			if c.once(ClassStructure, p, o) {
				c.report(Finding{Class: ClassStructure, Proc: p, Pos: pos, Task: graph.None, Obj: o,
					Detail: "MAP allocates an object the processor owns permanently"})
			}
			continue
		}
		r.state[o] = objAllocated
		r.inUse += c.g.Objects[o].Size
		switch l, used := r.lifetimeOf(o); {
		case !used:
			if c.once(ClassLeak, p, o) {
				c.report(Finding{Class: ClassLeak, Proc: p, Pos: pos, Task: graph.None, Obj: o,
					Detail: "volatile object allocated but never used on this processor"})
			}
		case l.last < pos:
			r.due = append(r.due, o) // dead already: the next MAP must free it
		}
	}
	r.peak = max(r.peak, r.inUse)
	c.crossCheckNotify(r, mapp)
}

// leaks reports the objects still allocated at the MAP at pos although
// their last use is behind it: space the planner should have recycled here.
func (c *checker) leaks(r *replay, pos int32) {
	dead := r.due[:0]
	for _, o := range r.due {
		if r.state[o] == objAllocated {
			dead = append(dead, o)
		}
	}
	r.due = r.due[:0]
	slices.Sort(dead)
	for i, o := range dead {
		if i > 0 && o == dead[i-1] {
			continue
		}
		if c.once(ClassLeak, r.p, o) {
			l, _ := r.lifetimeOf(o)
			c.report(Finding{Class: ClassLeak, Proc: r.p, Pos: pos, Task: graph.None, Obj: o,
				Detail: fmt.Sprintf("dead since position %d but not freed at MAP@%d (space not recycled)", l.last, pos)})
		}
	}
}

// crossCheckNotify checks the address packages a MAP announces against,
// object by object, the remote producers that will RMA-deposit into the
// buffers it allocates (Theorem 1's address-packages-precede-remote-writes
// precondition, statically).
func (c *checker) crossCheckNotify(r *replay, mapp *mem.MAP) {
	r.mapSeq++
	seq := r.mapSeq
	expected := 0
	for _, o := range mapp.Allocs {
		if r.inMAP[o] == seq {
			continue
		}
		r.inMAP[o] = seq
		clear(r.row(r.notified, o))
		for _, word := range r.row(r.producers, o) {
			expected += bits.OnesCount64(word)
		}
	}
	matched := 0
	for i, q := range mapp.Notify.Dst {
		for _, o := range mapp.Notify.Objects(i) {
			c.check()
			if o >= 0 && int(o) < c.m && r.inMAP[o] == seq && r.produces(o, q) {
				word := &r.row(r.notified, o)[q>>6]
				if *word&(1<<(q&63)) == 0 {
					*word |= 1 << (q & 63)
					matched++
					continue
				}
			}
			if c.once(ClassNotifyMismatch, r.p, o) {
				c.report(Finding{Class: ClassNotifyMismatch, Proc: r.p, Pos: mapp.Pos, Task: graph.None, Obj: o,
					Detail: fmt.Sprintf("MAP notifies processor %d of an object it does not deposit here", q)})
			}
		}
	}
	if matched == expected {
		return
	}
	for q := graph.Proc(0); int(q) < c.s.P; q++ {
		r.missing = r.missing[:0]
		for _, o := range mapp.Allocs {
			word := &r.row(r.notified, o)[q>>6]
			if r.produces(o, q) && *word&(1<<(q&63)) == 0 {
				*word |= 1 << (q & 63)
				r.missing = append(r.missing, o)
			}
		}
		slices.Sort(r.missing)
		for _, o := range r.missing {
			c.check()
			if c.once(ClassNotifyMismatch, r.p, o) {
				c.report(Finding{Class: ClassNotifyMismatch, Proc: r.p, Pos: mapp.Pos, Task: graph.None, Obj: o,
					Detail: fmt.Sprintf("producer on processor %d deposits this object but receives no address package from this MAP", q)})
			}
		}
	}
}
