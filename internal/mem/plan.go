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
	// Notify maps a destination processor to the objects among Allocs whose
	// addresses that processor needs (because it executes producer tasks
	// that will RMA-deposit those objects here).
	Notify map[graph.Proc][]graph.ObjID
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
			m := MAP{Pos: pos, Notify: make(map[graph.Proc][]graph.ObjID)}
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
					for w, row := range producers[int(o)*words : (int(o)+1)*words] {
						for ; row != 0; row &= row - 1 {
							q := graph.Proc(w<<6 + bits.TrailingZeros64(row))
							m.Notify[q] = append(m.Notify[q], o)
						}
					}
				}
				k++
			}
			m.Allocs = since(lo)
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
	for t := 0; t < s.G.NumTasks(); t++ {
		for _, o := range s.G.Tasks[t].Writes {
			if s.G.Objects[o].Owner != s.Assign[t] {
				return fmt.Errorf("mem: task %q on processor %d writes object %q owned by %d (owner-compute violated)",
					s.G.Tasks[t].Name, s.Assign[t], s.G.Objects[o].Name, s.G.Objects[o].Owner)
			}
		}
	}
	return nil
}
