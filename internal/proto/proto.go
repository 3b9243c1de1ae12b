// Package proto derives the static communication tables of the RAPID-style
// execution protocol from a schedule: which completed task sends which data
// object to which processors (send points), how many deposits a consumer
// must observe before a given version of a volatile object is available
// (arrival thresholds), and the control signals implementing retained
// cross-processor precedence (anti/output) edges.
//
// The tables encode the paper's name-based consistency criterion: each
// volatile object has ONE buffer per consumer processor; successive
// versions are deposited into the same buffer, and the dependence
// completeness of the transformed graph guarantees a version is never
// overwritten before its readers have finished (Theorem 1's data
// consistency half). Versions are deduplicated so that only the last writer
// before each remote read generation actually sends.
package proto

import (
	"cmp"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sched"
	"repro/internal/util"
)

// Send is one data message a task issues after completing: object Obj to
// processor Dst, carrying version sequence number Seq (1-based) among all
// versions of Obj that Dst receives. Chan is the message's channel: the
// (Dst, Obj) pair's index in the tables (Tables.Chan), by which the engine
// finds the remote address and the suspended-send FIFO without hashing.
type Send struct {
	Obj  graph.ObjID
	Dst  graph.Proc
	Seq  int32
	Chan int32
}

// Need is one data requirement of a task: the arrival counter of volatile
// object Obj on the task's processor must be at least MinArrivals.
type Need struct {
	Obj         graph.ObjID
	MinArrivals int32
}

// Tables holds the derived protocol state for a schedule. They are the
// inspector's output — a pure function of the schedule, derived once per
// compiled artifact (see plan.Artifact.Tables) and read by every execution
// of it — so they are stored flat: one offsets slice plus one element slice
// per table (CSR), not a slice header per task. Never written after Derive
// (Bind returns a copy).
type Tables struct {
	// CtlNeed[t] is the number of cross-processor control signals task t
	// must receive (retained precedence edges).
	CtlNeed []int32

	// Task t's entries are elems[off[t]:off[t+1]].
	sendOff, needOff, ctlOff []int32
	sends                    []Send
	needs                    []Need
	ctlSends                 []graph.TaskID
	// Processor p's entries are expect[expOff[p]:expOff[p+1]], sorted by
	// Obj; MinArrivals holds the total number of versions p receives. There
	// is one entry per (consumer processor, object) pair that receives
	// anything, so an entry's index is the pair's channel id.
	expOff []int32
	expect []Need

	// Set by Bind: the MAP plan the tables are bound to, and the channel of
	// every allocation it makes — processor p's, in MAP then Allocs order,
	// are allocCh[allocOff[p]:allocOff[p+1]].
	plan     *mem.Plan
	allocOff []int32
	allocCh  []int32
}

// Bind returns tb bound to the MAP plan pl, which must plan tb's schedule:
// the same tables plus the channel of every volatile allocation pl makes
// (-1 where nothing is ever sent), resolved here once — a compiled artifact
// binds its tables to its plan when it derives them — so that no run
// searches for a channel. The table has one entry per MAP allocation,
// never one per (processor, object) pair. tb itself is not modified.
func (tb *Tables) Bind(pl *mem.Plan) *Tables {
	bt := *tb
	bt.plan = pl
	bt.allocOff = make([]int32, len(pl.Procs)+1)
	n := 0
	for p := range pl.Procs {
		for mi := range pl.Procs[p].MAPs {
			n += len(pl.Procs[p].MAPs[mi].Allocs)
		}
		bt.allocOff[p+1] = int32(n)
	}
	bt.allocCh = make([]int32, 0, n)
	for p := range pl.Procs {
		for mi := range pl.Procs[p].MAPs {
			for _, o := range pl.Procs[p].MAPs[mi].Allocs {
				bt.allocCh = append(bt.allocCh, tb.Chan(graph.Proc(p), o))
			}
		}
	}
	return &bt
}

// Bytes is the heap the tables keep live, the plan they are bound to
// aside: one step per table.
func (tb *Tables) Bytes() int64 {
	return int64(unsafe.Sizeof(*tb)) + util.SliceBytes(tb.CtlNeed) +
		util.SliceBytes(tb.sendOff) + util.SliceBytes(tb.needOff) + util.SliceBytes(tb.ctlOff) +
		util.SliceBytes(tb.sends) + util.SliceBytes(tb.needs) + util.SliceBytes(tb.ctlSends) +
		util.SliceBytes(tb.expOff) + util.SliceBytes(tb.expect) +
		util.SliceBytes(tb.allocOff) + util.SliceBytes(tb.allocCh)
}

// AllocChans returns the channels of processor p's MAP allocations, in MAP
// then Allocs order, for the plan the tables are bound to. The slice must
// not be modified.
func (tb *Tables) AllocChans(p graph.Proc) []int32 {
	lo, hi := tb.allocOff[p], tb.allocOff[p+1]
	return tb.allocCh[lo:hi:hi]
}

// SendsOf lists the data messages task t issues on completion, ordered by
// (Dst, Obj). The slice must not be modified.
func (tb *Tables) SendsOf(t graph.TaskID) []Send {
	lo, hi := tb.sendOff[t], tb.sendOff[t+1]
	return tb.sends[lo:hi:hi]
}

// NeedsOf lists the volatile-object arrival thresholds gating task t,
// ordered by Obj. The slice must not be modified.
func (tb *Tables) NeedsOf(t graph.TaskID) []Need {
	lo, hi := tb.needOff[t], tb.needOff[t+1]
	return tb.needs[lo:hi:hi]
}

// CtlSendsOf lists the tasks that t signals on completion. The slice must
// not be modified.
func (tb *Tables) CtlSendsOf(t graph.TaskID) []graph.TaskID {
	lo, hi := tb.ctlOff[t], tb.ctlOff[t+1]
	return tb.ctlSends[lo:hi:hi]
}

// NumChans is the number of channels: (consumer processor, object) pairs
// that receive at least one version. Channel ids are 0..NumChans()-1.
func (tb *Tables) NumChans() int { return len(tb.expect) }

// Chan returns the channel on which processor p receives object o, or -1
// when no task ever sends o there.
func (tb *Tables) Chan(p graph.Proc, o graph.ObjID) int32 {
	lo := tb.expOff[p]
	seg := tb.expect[lo:tb.expOff[p+1]]
	if i, ok := slices.BinarySearchFunc(seg, o, func(e Need, o graph.ObjID) int { return cmp.Compare(e.Obj, o) }); ok {
		return lo + int32(i)
	}
	return -1
}

// Expect returns the total number of versions of volatile object o that
// processor p will receive (0: no task ever sends it there).
func (tb *Tables) Expect(p graph.Proc, o graph.ObjID) int32 {
	if ch := tb.Chan(p, o); ch >= 0 {
		return tb.expect[ch].MinArrivals
	}
	return 0
}

// prefixSum turns per-slot counts stored at off[i+1] into offsets.
func prefixSum(off []int32) {
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
}

// Derive computes the protocol tables for a schedule.
func Derive(s *sched.Schedule) *Tables {
	n := s.G.NumTasks()
	t := &Tables{
		CtlNeed: make([]int32, n),
		sendOff: make([]int32, n+1),
		needOff: make([]int32, n+1),
		ctlOff:  make([]int32, n+1),
		expOff:  make([]int32, s.P+1),
	}

	// One star per (reader v, remotely produced object): u is u*(v), the
	// producer with the largest schedule position among v's true in-edges
	// for that object. Only the u* send; all are on the object's owner so
	// their positions totally order the versions. A task's stars are
	// contiguous and become its needs.
	type star struct {
		obj  graph.ObjID
		u, v graph.TaskID
	}
	stars := make([]star, 0, s.G.NumEdges()) // an in-edge adds at most one
	var ctls [][2]graph.TaskID               // (from, to), in reader order
	for v := graph.TaskID(0); int(v) < n; v++ {
		first := len(stars)
		for _, e := range s.G.In(v) {
			if s.Assign[e.From] == s.Assign[v] {
				continue
			}
			if e.Kind != graph.DepTrue {
				t.CtlNeed[v]++
				t.ctlOff[e.From+1]++
				ctls = append(ctls, [2]graph.TaskID{e.From, v})
				continue
			}
			i := first
			for i < len(stars) && stars[i].obj != e.Obj {
				i++
			}
			if i == len(stars) {
				stars = append(stars, star{obj: e.Obj, u: e.From, v: v})
			} else if s.Pos[e.From] > s.Pos[stars[i].u] {
				stars[i].u = e.From
			}
		}
		t.needOff[v+1] = int32(len(stars))
	}

	// Control signals: a stable counting sort by sender keeps reader order.
	prefixSum(t.ctlOff)
	t.ctlSends = make([]graph.TaskID, len(ctls))
	next := slices.Clone(t.ctlOff[:n])
	for _, c := range ctls {
		t.ctlSends[next[c[0]]] = c[1]
		next[c[0]]++
	}

	// Order the stars by (dst, obj): a counting sort by object, then a
	// stable one by destination. Each (dst, obj) group is one channel; a
	// group's stars are then put in producer schedule order.
	byObj, order := make([]int32, len(stars)), make([]int32, len(stars))
	start := make([]int32, max(s.G.NumObjects(), s.P)+1)
	for i := range stars {
		start[stars[i].obj+1]++
	}
	prefixSum(start)
	for i := range stars {
		o := stars[i].obj
		byObj[start[o]] = int32(i)
		start[o]++
	}
	clear(start)
	for i := range stars {
		start[s.Assign[stars[i].v]+1]++
	}
	prefixSum(start)
	for _, si := range byObj {
		dst := s.Assign[stars[si].v]
		order[start[dst]] = si
		start[dst]++
	}
	sameChan := func(a, b int32) bool {
		return stars[a].obj == stars[b].obj && s.Assign[stars[a].v] == s.Assign[stars[b].v]
	}
	chans, nSends := 0, 0 // a channel's every distinct producer sends one version
	for lo, hi := 0, 0; lo < len(order); lo = hi {
		for hi = lo + 1; hi < len(order) && sameChan(order[lo], order[hi]); hi++ {
		}
		slices.SortFunc(order[lo:hi], func(a, b int32) int {
			x, y := stars[a].u, stars[b].u
			return cmp.Or(cmp.Compare(s.Pos[x], s.Pos[y]), cmp.Compare(x, y))
		})
		chans++
		nSends++
		for i := lo + 1; i < hi; i++ {
			if stars[order[i]].u != stars[order[i-1]].u {
				nSends++
			}
		}
	}

	// Sequence numbers: walk the stars channel by channel. Each distinct
	// producer in a group is one version — one Send with the next sequence
	// number — and every reader whose u* it is waits for that many
	// arrivals.
	type taskSend struct {
		u   graph.TaskID
		snd Send
	}
	sends := make([]taskSend, 0, nSends)
	t.needs = make([]Need, len(stars))
	t.expect = make([]Need, 0, chans)
	prev := int32(-1)
	for _, si := range order {
		st := &stars[si]
		dst := s.Assign[st.v]
		newKey := prev < 0 || !sameChan(prev, si)
		if newKey {
			t.expect = append(t.expect, Need{Obj: st.obj})
			t.expOff[dst+1]++
		}
		versions := &t.expect[len(t.expect)-1].MinArrivals
		if newKey || stars[prev].u != st.u {
			*versions++
			sends = append(sends, taskSend{st.u, Send{Obj: st.obj, Dst: dst, Seq: *versions, Chan: int32(len(t.expect) - 1)}})
			t.sendOff[st.u+1]++
		}
		t.needs[si] = Need{Obj: st.obj, MinArrivals: *versions}
		prev = si
	}
	prefixSum(t.expOff)

	// Deterministic ordering for reproducible executions: needs by object,
	// sends by (destination, object) — the order they were issued in, so a
	// stable counting sort by sender is all that is left to do.
	for v := 0; v < n; v++ {
		if needs := t.needs[t.needOff[v]:t.needOff[v+1]]; len(needs) > 1 {
			slices.SortFunc(needs, func(a, b Need) int { return cmp.Compare(a.Obj, b.Obj) })
		}
	}
	prefixSum(t.sendOff)
	t.sends = make([]Send, len(sends))
	next = append(next[:0], t.sendOff[:n]...)
	for _, ts := range sends {
		t.sends[next[ts.u]] = ts.snd
		next[ts.u]++
	}
	return t
}
