// Package plan defines the compiled execution plan (Artifact) — the full
// output of the inspector phase: task graph, processor mapping,
// per-processor task orders, DTS slice boundaries and the MAP memory plan,
// plus what is derived from them once per plan — and serializes it into a
// versioned, deterministic, self-checking binary format.
//
// The inspector (graph transformation, clustering, ordering, MAP planning)
// is the expensive half of the inspector/executor split; its output depends
// only on the program structure and the compile options, so it can be
// computed once and reused across process lifetimes. This package provides
// the two primitives that make that safe:
//
//   - a structural Fingerprint over the input (DAG structure + options)
//     used as the content address of the compiled artifact, and
//   - a byte-stable codec: Encode is a pure function of the artifact, so
//     equal compilations produce equal bytes (the determinism audits in
//     internal/graph, internal/sched and internal/mem exist to guarantee
//     equal compilations in the first place).
//
// Integrity: the payload carries a SHA-256 checksum; Decode rejects
// truncated or corrupted input with an error rather than a panic, so cache
// layers can fall back to recompilation.
package plan

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sched"
)

// Version is the current serialization format version. Decode rejects any
// other version; bump it whenever the serialized fields of Artifact or the
// codec change.
const Version = 1

// Artifact is a complete compiled plan: everything the executor and the
// simulator need, with no references back to the builder that produced it
// — the static schedule (with its task graph), the MAP plan for the memory
// budget, and the content address it was compiled under. rapid.Plan is this
// type.
//
// What is derived from a compiled plan lives here too, behind accessors:
// the protocol tables (Tables) and the static verifier's verdict
// (Verified). Neither is serialized. An artifact is immutable after its
// first use; copy the exported fields into a fresh artifact to change one.
type Artifact struct {
	// Schedule is the static schedule, including its task graph.
	Schedule *sched.Schedule
	// Mem is the MAP plan for Capacity.
	Mem *mem.Plan
	// Model is the cost model the schedule was computed with.
	Model sched.CostModel
	// Capacity is the per-processor memory capacity of the MAP plan.
	Capacity int64
	// Fingerprint is the content address of the (structure, options) pair
	// this plan was compiled from (see Fingerprint); empty for a plan that
	// never went through a cache.
	Fingerprint string

	tablesOnce sync.Once
	tables     *proto.Tables
	verified   atomic.Bool
}

// Compile is the inspector's one recipe: it orders g's tasks, mapped to
// processors by assign, with heuristic h under the cost model and plans
// the MAPs for the per-processor capacity (0: TOT, whatever the schedule
// needs without recycling). DTSMerge merges slices within the volatile
// budget a positive capacity leaves: capacity minus the largest
// permanent footprint.
func Compile(g *graph.DAG, assign []graph.Proc, p int, h sched.Heuristic, model sched.CostModel, capacity int64) (*Artifact, error) {
	availVol := int64(1) << 62
	if capacity > 0 {
		availVol = capacity - slices.Max((&sched.Schedule{G: g, P: p, Assign: assign}).PermSize())
	}
	s, err := sched.ScheduleWith(h, g, assign, p, model, availVol)
	if err != nil {
		return nil, err
	}
	if capacity <= 0 {
		capacity = s.TOT()
	}
	return New(s, model, capacity)
}

// New plans the schedule's MAPs for the per-processor capacity with the
// paper's greedy allocate-ahead policy and wraps both in an artifact
// whose cost model is model.
func New(s *sched.Schedule, model sched.CostModel, capacity int64) (*Artifact, error) {
	mp, err := mem.NewPlan(s, capacity)
	if err != nil {
		return nil, err
	}
	return &Artifact{Schedule: s, Mem: mp, Model: model, Capacity: capacity}, nil
}

// Tables returns the protocol tables of the artifact's schedule, bound to
// its MAP plan: the inspector's send points, arrival thresholds and control
// signals, and the channel of every MAP allocation, derived on first use
// and shared by every execution and simulation of the artifact, from any
// number of goroutines.
func (a *Artifact) Tables() *proto.Tables {
	a.tablesOnce.Do(func() { a.tables = proto.Derive(a.Schedule).Bind(a.Mem) })
	return a.tables
}

// Verified reports whether this artifact has passed static verification
// in this process. A decoded artifact starts unverified, whatever the
// artifact it was encoded from carried.
func (a *Artifact) Verified() bool { return a.verified.Load() }

// MarkVerified records a clean static-verifier result. Only
// verify.CheckArtifact calls it.
func (a *Artifact) MarkVerified() { a.verified.Store(true) }

// Executable reports whether the plan fits the memory budget.
func (a *Artifact) Executable() bool { return a.Mem.Executable }

// MinMem returns the schedule's minimum memory requirement (Definition 5).
func (a *Artifact) MinMem() int64 { return a.Schedule.MinMem() }

// TOT returns the no-recycling memory requirement.
func (a *Artifact) TOT() int64 { return a.Schedule.TOT() }

// AvgMAPs returns the planned average number of MAPs per processor.
func (a *Artifact) AvgMAPs() float64 { return a.Mem.AvgMAPs() }

// PredictedTime returns the scheduler's predicted parallel time (seconds
// under the cost model, without memory-management overhead).
func (a *Artifact) PredictedTime() float64 { return a.Schedule.Makespan }

// Validate checks the internal consistency of a (typically just decoded)
// artifact: schedule and memory plan present, referring to the same graph,
// and structurally sound.
func (a *Artifact) Validate() error {
	if a.Schedule == nil || a.Schedule.G == nil {
		return fmt.Errorf("plan: artifact has no schedule")
	}
	if a.Mem == nil {
		return fmt.Errorf("plan: artifact has no memory plan")
	}
	if a.Mem.Schedule != a.Schedule {
		return fmt.Errorf("plan: memory plan refers to a different schedule")
	}
	if len(a.Mem.Procs) != a.Schedule.P {
		return fmt.Errorf("plan: memory plan has %d processors, schedule %d", len(a.Mem.Procs), a.Schedule.P)
	}
	if err := a.Schedule.G.Validate(); err != nil {
		return err
	}
	if err := a.Schedule.Validate(); err != nil {
		return err
	}
	return nil
}
