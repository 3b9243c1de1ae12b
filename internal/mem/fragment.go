package mem

import (
	"repro/internal/graph"
	"repro/internal/rma"
	"repro/internal/sched"
)

// ArenaReplay replays a plan's allocation/deallocation trace against
// address-based first-fit arenas (rma.Arena) instead of the counting
// allocator the plan was validated with. It reports whether every
// allocation found a contiguous block, and the worst external
// fragmentation observed (free units unusable for the failing or largest
// request). The paper's MIN_MEM arithmetic assumes compactable space; this
// measures how far a real allocator — the "special memory allocator" the
// conclusion calls for — is from that assumption.
type ArenaReplayResult struct {
	OK bool
	// FailProc/FailObj identify the first allocation that found no
	// contiguous block (valid when !OK).
	FailProc graph.Proc
	FailObj  graph.ObjID
	// MaxFreeBlocks is the largest number of free-list fragments seen.
	MaxFreeBlocks int
}

// ArenaReplay runs the replay for every processor of the plan.
func ArenaReplay(pl *Plan) ArenaReplayResult {
	res := ArenaReplayResult{OK: true}
	s := pl.Schedule
	for p := 0; p < s.P; p++ {
		if !pl.Procs[p].Executable {
			return ArenaReplayResult{OK: false, FailProc: graph.Proc(p), FailObj: -1}
		}
		a := rma.NewArena(pl.Capacity)
		addrOf := make(map[graph.ObjID]int64)
		// Permanent objects first, as the executor allocates them.
		for oi := range s.G.Objects {
			o := &s.G.Objects[oi]
			if o.Owner != graph.Proc(p) {
				continue
			}
			addr, ok := a.Alloc(o.Size)
			if !ok {
				return ArenaReplayResult{OK: false, FailProc: graph.Proc(p), FailObj: graph.ObjID(oi), MaxFreeBlocks: res.MaxFreeBlocks}
			}
			addrOf[graph.ObjID(oi)] = addr
		}
		for _, m := range pl.Procs[p].MAPs {
			for _, o := range m.Frees {
				a.Free(addrOf[o])
				delete(addrOf, o)
			}
			for _, o := range m.Allocs {
				addr, ok := a.Alloc(s.G.Objects[o].Size)
				if !ok {
					return ArenaReplayResult{OK: false, FailProc: graph.Proc(p), FailObj: o, MaxFreeBlocks: res.MaxFreeBlocks}
				}
				addrOf[o] = addr
			}
			if fb := a.FreeBlocks(); fb > res.MaxFreeBlocks {
				res.MaxFreeBlocks = fb
			}
		}
	}
	return res
}

// Floors computes the tightest executable capacity of a schedule under the
// counting allocator (the paper's model, ExecutableFloor) and under
// address-based allocation (counting-feasible plan whose arena replay also
// succeeds). The gap is the fragmentation premium.
func Floors(s *sched.Schedule, opt Options) (counting, address int64, err error) {
	if counting, err = ExecutableFloor(s, opt); err != nil {
		return 0, 0, err
	}
	if address, err = searchFloor(s, opt, func(pl *Plan) bool { return ArenaReplay(pl).OK }); err != nil {
		return 0, 0, err
	}
	return counting, address, nil
}

// ExecutableFloor binary-searches, between 1 and TOT, the tightest
// capacity at which the schedule's MAP plan under opt is executable.
func ExecutableFloor(s *sched.Schedule, opt Options) (int64, error) {
	return searchFloor(s, opt, func(*Plan) bool { return true })
}

// searchFloor binary-searches, between 1 and TOT, the tightest capacity
// whose MAP plan is executable and passes fits.
func searchFloor(s *sched.Schedule, opt Options, fits func(*Plan) bool) (int64, error) {
	lo, hi := int64(1), s.TOT()
	for lo < hi {
		mid := (lo + hi) / 2
		pl, err := NewPlanOpts(s, mid, opt)
		if err != nil {
			return 0, err
		}
		if pl.Executable && fits(pl) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}
