// Package mem implements the active memory management planning of Section
// 3: given a static schedule and a per-processor memory capacity, it
// computes where the Memory Allocation Points (MAPs) fall, which volatile
// objects each MAP deallocates (dead-point information from a static
// liveness analysis of the schedule) and allocates (greedy allocate-ahead
// until the next task's objects no longer fit), and the address packages
// each MAP must send to the processors that will deposit data into the
// newly allocated space via remote memory access.
//
// The plan is deterministic: in the paper MAPs are "inserted dynamically
// based on memory space availability", but for a fixed schedule and
// capacity the dynamic insertion always lands at the same positions, so
// both the discrete-event simulator and the concurrent executor share this
// planner.
package mem

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/util"
)

// MAP is one memory allocation point on a processor. It executes
// immediately before the task at position Pos of the processor's order
// (Pos == 0 is the mandatory MAP at the beginning of the schedule).
type MAP struct {
	Pos int32
	// Frees are the volatile objects dead at this point (last use < Pos).
	Frees []graph.ObjID
	// Allocs are the volatile objects allocated here, covering tasks
	// Pos..CoverEnd-1.
	Allocs []graph.ObjID
	// CoverEnd is the position of the first task NOT covered by this MAP
	// (i.e. the next MAP's position, or the order length for the last MAP).
	CoverEnd int32
	// Notify lists the MAP's address packages: for each destination
	// processor, the objects among Allocs whose addresses it needs (because
	// it executes producer tasks that will RMA-deposit those objects here).
	Notify Notify
}

// Notify is a MAP's address packages in CSR form: package i goes to
// processor Dst[i] and announces the objects Objs[Off[i]:Off[i+1]].
// Destinations are strictly ascending — the order the packages are sent
// and serialized in — and each destination's objects come in allocation
// order. The zero value announces nothing.
type Notify struct {
	Dst  []graph.Proc
	Off  []int32 // len(Dst)+1 offsets into Objs; empty when Dst is
	Objs []graph.ObjID
}

// Len returns the number of address packages.
func (n *Notify) Len() int { return len(n.Dst) }

// Objects returns the objects announced to Dst[i]. The slice must not be
// modified.
func (n *Notify) Objects(i int) []graph.ObjID {
	lo, hi := n.Off[i], n.Off[i+1]
	return n.Objs[lo:hi:hi]
}

// ProcPlan is the MAP plan of one processor.
type ProcPlan struct {
	MAPs []MAP
	// Peak is the highest memory-in-use (permanent + allocated volatile)
	// reached while following the plan.
	Peak int64
	// Executable is false if some allocation could not be satisfied even
	// right before its first using task.
	Executable bool
	// FailPos is the order position whose allocation failed (valid only if
	// !Executable).
	FailPos int32
}

// Plan is the full machine-wide MAP plan.
type Plan struct {
	Schedule *sched.Schedule
	Capacity int64
	Procs    []ProcPlan
	// Executable is the conjunction over processors.
	Executable bool
}

// AvgMAPs returns the average number of MAPs per processor (the paper's
// "#MAPs" columns). Processors with empty schedules still count their
// mandatory initial MAP.
func (pl *Plan) AvgMAPs() float64 {
	total := 0
	for i := range pl.Procs {
		total += len(pl.Procs[i].MAPs)
	}
	return float64(total) / float64(len(pl.Procs))
}

// TotalMAPs returns the machine-wide MAP count.
func (pl *Plan) TotalMAPs() int {
	total := 0
	for i := range pl.Procs {
		total += len(pl.Procs[i].MAPs)
	}
	return total
}

// Bytes is the heap the plan keeps live, its schedule aside: one step per
// processor and per MAP. The Frees, Allocs and Notify lists are carved
// from shared arrays with their capacity cut at their length, so each
// element counts once; the spare room of those arrays does not count.
func (pl *Plan) Bytes() int64 {
	n := int64(unsafe.Sizeof(*pl)) + util.SliceBytes(pl.Procs)
	for i := range pl.Procs {
		n += util.SliceBytes(pl.Procs[i].MAPs)
		for j := range pl.Procs[i].MAPs {
			m := &pl.Procs[i].MAPs[j]
			n += util.SliceBytes(m.Frees) + util.SliceBytes(m.Allocs) +
				util.SliceBytes(m.Notify.Dst) + util.SliceBytes(m.Notify.Off) + util.SliceBytes(m.Notify.Objs)
		}
	}
	return n
}

// MaxPeak returns the maximum per-processor peak memory of the plan.
func (pl *Plan) MaxPeak() int64 {
	var peak int64
	for i := range pl.Procs {
		if pl.Procs[i].Peak > peak {
			peak = pl.Procs[i].Peak
		}
	}
	return peak
}

// markRemoteProducers sets, for every volatile object of processor p, the
// processors that execute producer tasks whose output is RMA-deposited into
// p's copy of the object: bit q of the object's row of producers, words
// uint64 words to a row. Rows of other objects are left alone.
func markRemoteProducers(s *sched.Schedule, p graph.Proc, producers []uint64, words int) {
	for _, t := range s.Order[p] {
		for _, e := range s.G.In(t) {
			if e.Kind != graph.DepTrue {
				continue
			}
			q := s.Assign[e.From]
			if q == p {
				continue
			}
			if s.G.Objects[e.Obj].Owner == p {
				// The object is permanent here; its address is known from
				// the start (permanent addresses are exchanged once during
				// preprocessing, as in the original RAPID).
				continue
			}
			producers[int(e.Obj)*words+int(q>>6)] |= 1 << (q & 63)
		}
	}
}

// notifyPool holds the slices every MAP's Notify is carved from, so a
// plan's address packages cost a few allocations in all, not a few per MAP,
// and the scratch that builds one: cnt, a counter per processor (zero
// between MAPs), and touched, the destinations of the MAP being built.
type notifyPool struct {
	dst, touched []graph.Proc
	off, objs    []int32
	cnt          []int32
}

// carve returns the tail of s from lo, capped so an append to it cannot
// write into what is carved next.
func carve(s []int32, lo int) []int32 { return s[lo:len(s):len(s)] }

// notify builds the address packages of a MAP allocating allocs: every
// object goes to each processor marked in its row of producers (words
// uint64 words to a row). Destinations come out ascending and each one's
// objects in allocation order, which is the order the codec writes.
func (pool *notifyPool) notify(allocs []graph.ObjID, producers []uint64, words int) Notify {
	cnt, touched := pool.cnt, pool.touched[:0]
	for _, o := range allocs {
		for w, row := range producers[int(o)*words : (int(o)+1)*words] {
			for ; row != 0; row &= row - 1 {
				q := graph.Proc(w<<6 + bits.TrailingZeros64(row))
				if cnt[q] == 0 {
					touched = append(touched, q)
				}
				cnt[q]++
			}
		}
	}
	pool.touched = touched
	if len(touched) == 0 {
		return Notify{}
	}
	slices.Sort(touched)
	d0, o0, b0 := len(pool.dst), len(pool.off), len(pool.objs)
	at := int32(0)
	pool.off = append(pool.off, 0)
	for _, q := range touched {
		pool.dst = append(pool.dst, q)
		at, cnt[q] = at+cnt[q], at // cnt[q] becomes q's next slot
		pool.off = append(pool.off, at)
	}
	pool.objs = slices.Grow(pool.objs, int(at))[:b0+int(at)]
	for _, o := range allocs {
		for w, row := range producers[int(o)*words : (int(o)+1)*words] {
			for ; row != 0; row &= row - 1 {
				q := graph.Proc(w<<6 + bits.TrailingZeros64(row))
				pool.objs[b0+int(cnt[q])] = o
				cnt[q]++
			}
		}
	}
	for _, q := range touched {
		cnt[q] = 0
	}
	return Notify{Dst: carve(pool.dst, d0), Off: carve(pool.off, o0), Objs: carve(pool.objs, b0)}
}

// Options tune the planner (ablation studies).
type Options struct {
	// JustInTime disables the paper's greedy allocate-ahead: each MAP
	// allocates only the volatile objects of its own task, deferring later
	// allocations to later MAPs. This lowers the space held for
	// not-yet-needed objects (tighter budgets become executable) at the
	// price of more MAPs and later address notification (less data
	// presending).
	JustInTime bool
}

// NewPlan computes the MAP plan for the schedule under the given
// per-processor capacity (in the same units as object sizes), with the
// paper's greedy allocate-ahead policy.
func NewPlan(s *sched.Schedule, capacity int64) (*Plan, error) {
	return NewPlanOpts(s, capacity, Options{})
}

// NewPlanOpts is NewPlan with planner options.
func NewPlanOpts(s *sched.Schedule, capacity int64, opt Options) (*Plan, error) {
	if err := validateOwnerCompute(s); err != nil {
		return nil, err
	}
	perm := s.PermSize()
	lifetimes := s.VolatileLifetimes()
	pl := &Plan{Schedule: s, Capacity: capacity, Procs: make([]ProcPlan, s.P), Executable: true}
	words := (s.P + 63) / 64
	producers := make([]uint64, s.G.NumObjects()*words)
	pool := &notifyPool{cnt: make([]int32, s.P)}

	for p := 0; p < s.P; p++ {
		pp := &pl.Procs[p]
		pp.Executable = true
		order := s.Order[p]

		if perm[p] > capacity {
			pp.Executable = false
			pp.FailPos = 0
			pl.Executable = false
			pp.Peak = perm[p]
			continue
		}

		// The lifetimes come ordered by (first use, object), and objects are
		// allocated in that order: the Frees/Allocs lists of every MAP come
		// out in one canonical order (plan serialization content-addresses
		// compiled artifacts, so equal inputs must produce byte-identical
		// plans), the objects first needed at a position are one run of
		// lives, and the allocated ones are a prefix of it, lives[:next].
		lives := lifetimes[p]
		next := 0
		freed := util.NewBitset(len(lives)) // i: lives[i] was freed
		markRemoteProducers(s, graph.Proc(p), producers, words)
		// Every MAP's Frees and Allocs are carved out of ids: an object is
		// allocated once and freed at most once.
		ids := make([]graph.ObjID, 0, 2*len(lives))
		since := func(lo int) []graph.ObjID {
			if lo == len(ids) {
				return nil
			}
			return ids[lo:len(ids):len(ids)]
		}

		inUse := perm[p]
		peak := perm[p]

		pos := int32(0)
		for {
			m := MAP{Pos: pos}
			// Deallocate dead volatiles: allocated, not yet freed, last use
			// before pos.
			lo := len(ids)
			for i, l := range lives[:next] {
				if !freed.Has(i) && l.Last < pos {
					freed.Set(i)
					inUse -= s.G.Objects[l.Obj].Size
					ids = append(ids, l.Obj)
				}
			}
			m.Frees = since(lo)
			// Allocate ahead following the execution chain.
			lo = len(ids)
			k := pos
			for int(k) < len(order) {
				var need int64
				end := next
				for ; end < len(lives) && lives[end].First == k; end++ {
					need += s.G.Objects[lives[end].Obj].Size
				}
				if opt.JustInTime && k > pos && need > 0 {
					break // defer the next allocation to its own MAP
				}
				if inUse+need > capacity {
					break
				}
				for ; next < end; next++ {
					o := lives[next].Obj
					inUse += s.G.Objects[o].Size
					ids = append(ids, o)
				}
				k++
			}
			m.Allocs = since(lo)
			m.Notify = pool.notify(m.Allocs, producers, words)
			if inUse > peak {
				peak = inUse
			}
			if k == pos && int(pos) < len(order) {
				// Even the immediately next task cannot be satisfied: the
				// schedule is non-executable under this capacity.
				pp.Executable = false
				pp.FailPos = pos
				pl.Executable = false
				m.CoverEnd = pos
				pp.MAPs = append(pp.MAPs, m)
				break
			}
			m.CoverEnd = k
			pp.MAPs = append(pp.MAPs, m)
			if int(k) >= len(order) {
				break
			}
			pos = k
		}
		pp.Peak = peak
		for _, l := range lives {
			clear(producers[int(l.Obj)*words : (int(l.Obj)+1)*words])
		}
	}
	return pl, nil
}

// validateOwnerCompute checks the precondition of the active memory
// management scheme: every task writes only objects owned by its processor,
// so volatile objects are read-only remote copies deposited by RMA.
func validateOwnerCompute(s *sched.Schedule) error {
	for t := graph.TaskID(0); int(t) < s.G.NumTasks(); t++ {
		for _, o := range s.G.Writes(t) {
			if s.G.Objects[o].Owner != s.Assign[t] {
				return fmt.Errorf("mem: task %q on processor %d writes object %q owned by %d (owner-compute violated)",
					s.G.TaskName(t), s.Assign[t], s.G.Objects[o].Name, s.G.Objects[o].Owner)
			}
		}
	}
	return nil
}
