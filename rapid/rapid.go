// Package rapid is the public API of the library: a run-time system for
// executing irregular task-graph computations on (emulated) distributed
// memory machines under per-processor memory constraints, reproducing Fu &
// Yang, "Space and Time Efficient Execution of Parallel Irregular
// Computations" (PPoPP 1997).
//
// The programming model follows the inspector/executor style of the RAPID
// system: the application declares its distinct data objects and the tasks
// that read/write them (in sequential program order); the library derives
// the transformed true-dependence task graph, clusters and maps tasks with
// the owner-compute rule, orders them with one of the paper's three
// heuristics (RCP, MPO, DTS — optionally with slice merging), plans the
// Memory Allocation Points for a given per-processor capacity, and executes
// the schedule either concurrently (the processors driven by
// min(p, GOMAXPROCS) worker goroutines, real data, the full five-state
// protocol with active memory management) or on a discrete-event
// simulator with the paper's Cray-T3D cost model.
//
// A minimal session:
//
//	b := rapid.NewBuilder()
//	x := b.Object("x", 64)
//	y := b.Object("y", 64)
//	b.Task("produce", 1000, nil, []rapid.ObjID{x})
//	b.Task("consume", 2000, []rapid.ObjID{x}, []rapid.ObjID{y})
//	prog, _ := b.Build()
//	plan, _ := rapid.Compile(prog, rapid.Options{Procs: 2, Heuristic: rapid.MPO, Memory: 256})
//	report, _ := rapid.Execute(prog, plan, rapid.ExecOptions{})
package rapid

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/plan"
	"repro/internal/proto"
	"repro/internal/sched"
)

// ObjID identifies a data object.
type ObjID = graph.ObjID

// TaskID identifies a task.
type TaskID = graph.TaskID

// Proc identifies a virtual processor.
type Proc = graph.Proc

// Heuristic selects the task-ordering algorithm.
type Heuristic = sched.Heuristic

// Ordering heuristics (Section 4 of the paper).
const (
	// RCP is critical-path list scheduling: best parallel time, no memory
	// awareness.
	RCP = sched.RCP
	// MPO is memory-priority guided ordering: reuses volatile objects as
	// soon as possible, competitive parallel time.
	MPO = sched.MPO
	// DTS is data-access directed time slicing: near-optimal memory use.
	DTS = sched.DTS
	// DTSMerge is DTS with slice merging under the known memory budget:
	// DTS's memory behaviour with most of RCP's time efficiency.
	DTSMerge = sched.DTSMerge
	// TreeMem is tree-memory scheduling: on tree-shaped programs it runs
	// the provably memory-optimal sequential traversal (Liu's hill/valley
	// algorithm) lifted to p processors by a rank-strict list policy; on
	// general DAGs it falls back to a greedy memory-first sweep.
	TreeMem = sched.TreeMem
)

// CostModel converts task costs and object sizes into time.
type CostModel = sched.CostModel

// T3D returns the Cray-T3D cost model used in the paper's evaluation.
func T3D() CostModel { return sched.T3D() }

// UnitCost returns the unit-cost model of the paper's worked examples.
func UnitCost() CostModel { return sched.Unit() }

// Builder declares objects and tasks in sequential program order.
type Builder struct {
	b *graph.Builder
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{b: graph.NewBuilder()} }

// Object declares a data object with a size in abstract memory units and
// returns its ID; redeclaring a name returns the existing ID, and doing so
// with another size makes Build fail.
func (b *Builder) Object(name string, size int64) ObjID { return b.b.Object(name, size) }

// Task declares a task with the given cost (work units) and access sets.
func (b *Builder) Task(name string, cost float64, reads, writes []ObjID) TaskID {
	return b.b.Task(name, cost, reads, writes)
}

// CommutativeTask declares a task that commutes with adjacent commutative
// tasks writing the same object (e.g. accumulating updates).
func (b *Builder) CommutativeTask(name string, cost float64, reads, writes []ObjID) TaskID {
	return b.b.CommutativeTask(name, cost, reads, writes)
}

// Build derives the transformed dependence graph.
func (b *Builder) Build() (*Program, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return &Program{G: g}, nil
}

// Program is a built task program: a transformed, dependence-complete DAG
// over distinct data objects.
type Program struct {
	G *graph.DAG
}

// FromGraph wraps an existing task graph (e.g. from the chol/lu builders).
func FromGraph(g *graph.DAG) *Program { return &Program{G: g} }

// OwnerPolicy selects how data objects are assigned to owner processors.
type OwnerPolicy uint8

const (
	// OwnersPreset uses the Owner fields already set on the objects.
	OwnersPreset OwnerPolicy = iota
	// OwnersCyclic assigns object i to processor i mod p.
	OwnersCyclic
	// OwnersLoadBalanced clusters tasks by written object and maps clusters
	// largest-first onto the least-loaded processor.
	OwnersLoadBalanced
)

// Options configure Compile.
type Options struct {
	// Procs is the number of virtual processors (required, >= 1).
	Procs int
	// Heuristic selects the ordering algorithm (default RCP).
	Heuristic Heuristic
	// Model is the cost model (zero value: T3D constants).
	Model CostModel
	// Memory is the per-processor capacity in memory units; 0 means
	// "whatever the schedule needs without recycling" (TOT).
	Memory int64
	// Owners selects the data-mapping policy (default OwnersPreset if every
	// object has an owner, OwnersLoadBalanced otherwise).
	Owners OwnerPolicy
}

// Plan is a compiled execution plan: the static schedule plus the MAP plan
// for the memory budget, with the methods Executable, MinMem, TOT, AvgMAPs
// and PredictedTime. It is the one compiled artifact of the system — what
// Compile returns is what a PlanCache stores and MarshalPlan serializes —
// and it carries what is derived from it: the protocol tables every
// Execute and Simulate of the plan share, and the VerifyPlan verdict.
// Fingerprint is set by CompileCached and preserved by
// MarshalPlan/UnmarshalPlan (empty for plans from plain Compile). A plan
// is immutable after its first use.
type Plan = plan.Artifact

// assignStage is the first stage of Compile: it resolves the cost model,
// applies the owner policy (in place, on the program's objects) and maps
// every task to a processor by the owner-compute rule. Everything about
// a plan's space that does not depend on the task order — TOT above all —
// is decided here.
func assignStage(prog *Program, opt Options) (CostModel, []Proc, error) {
	if opt.Procs < 1 {
		return CostModel{}, nil, fmt.Errorf("rapid: Procs must be >= 1, got %d", opt.Procs)
	}
	if opt.Owners > OwnersLoadBalanced {
		return CostModel{}, nil, fmt.Errorf("rapid: unknown owner policy %d", opt.Owners)
	}
	model := opt.Model
	if model == (CostModel{}) {
		model = sched.T3D()
	}
	g := prog.G
	policy := opt.Owners
	if policy == OwnersPreset {
		for i := range g.Objects {
			if g.Objects[i].Owner < 0 || int(g.Objects[i].Owner) >= opt.Procs {
				policy = OwnersLoadBalanced
				break
			}
		}
	}
	switch policy {
	case OwnersCyclic:
		sched.CyclicOwners(g, opt.Procs)
	case OwnersLoadBalanced:
		sched.LoadBalancedOwners(g, opt.Procs)
	}
	assign, err := sched.OwnerComputeAssign(g, opt.Procs)
	return model, assign, err
}

// MemoryPercent states a memory budget the way the paper's tables do, as
// pct % of TOT: the per-processor space the program needs under opt's
// data mapping when nothing is recycled. It returns that budget, for
// Options.Memory, and TOT itself. TOT depends on the owners and the
// task → processor assignment only, not on the order, so no schedule is
// computed; Compile(prog, opt).TOT() is the same number for every
// heuristic. A positive pct never yields 0 — Options.Memory 0 means
// unconstrained, so the budget rounds up to 1 — and pct <= 0 yields 0.
// Like Compile, it applies opt's owner policy to the program in place.
func MemoryPercent(prog *Program, opt Options, pct int) (memory, tot int64, err error) {
	_, assign, err := assignStage(prog, opt)
	if err != nil {
		return 0, 0, err
	}
	tot = (&sched.Schedule{G: prog.G, P: opt.Procs, Assign: assign}).TOT()
	if pct > 0 {
		memory = max(1, tot*int64(pct)/100)
	}
	return memory, tot, nil
}

// Compile clusters, maps, orders and memory-plans the program.
func Compile(prog *Program, opt Options) (*Plan, error) {
	model, assign, err := assignStage(prog, opt)
	if err != nil {
		return nil, err
	}
	return plan.Compile(prog.G, assign, opt.Procs, opt.Heuristic, model, opt.Memory)
}

// KernelFunc executes one task against its local object buffers.
type KernelFunc = exec.KernelFunc

// InitFunc initializes a permanent object's buffer on its owner.
type InitFunc = exec.InitFunc

// Faults configures deterministic fault injection at the protocol's message
// choke points: delayed, lost (DropFrac) and duplicated (DupFrac) address
// packages and data messages. Both Execute and Simulate accept the same
// Faults and perturb the same messages for the same Seed; the engine's
// reliability layer (sequence numbers, ack/retransmit with exponential
// backoff) makes a perturbed run terminate with results identical to a
// fault-free one.
type Faults = proto.Faults

// ReliabilityStats summarizes the engine's ack/retransmit layer for one
// processor: retransmissions performed, transmissions lost to injected
// faults, duplicates injected and discarded, and deliveries acknowledged.
type ReliabilityStats = proto.Reliability

// SumReliability folds per-processor reliability counters into a
// machine-wide total.
func SumReliability(rs []ReliabilityStats) ReliabilityStats { return proto.SumReliability(rs) }

// StateOccupancy is the time one processor spent in each protocol state
// (REC/EXE/SND/MAP/END), indexed in StateNames order. The unit is wall-clock
// seconds from Execute and virtual seconds from Simulate.
type StateOccupancy = proto.Occupancy

// StateNames returns the five protocol state names in StateOccupancy order.
func StateNames() []string { return proto.StateNames() }

// ExecOptions configure Execute: Kernel runs each task (nil: a
// structure-only protocol run), Init fills permanent objects (their
// buffers arrive zeroed; exec.InitFunc), BufLen
// overrides physical buffer lengths (default: object sizes), Faults injects
// protocol perturbations and BlockTimeout is the liveness watchdog (0: the
// executor's 30-second default).
type ExecOptions = exec.Config

// Report summarizes an execution: the protocol's per-processor run report
// (MAPsPerProc, PeakUnits, Occupancy in wall-clock seconds, SuspendedSends,
// Reliability, and the machine-wide Messages and AddrPackages) plus
// Objects, every object's final buffer in numeric mode. Release hands
// those buffers and the Objects map to later Executes; a Report nobody
// releases keeps them.
type Report = exec.Result

// Execute runs the plan concurrently under the full
// active-memory-management protocol: k = min(p, runtime.GOMAXPROCS(0))
// workers — the caller's goroutine and k − 1 others — drive the plan's p
// processors from one shared run queue, each processor until it blocks.
func Execute(prog *Program, plan *Plan, opt ExecOptions) (*Report, error) {
	return exec.Run(plan, opt)
}

// SimOptions configure Simulate: Baseline simulates the original RAPID
// executor (needs a plan compiled without a memory limit), Trace records
// task and MAP spans for Gantt rendering, Faults injects protocol
// perturbations.
type SimOptions = machine.Options

// SimReport summarizes a timing simulation: the same run report as Report,
// in virtual seconds, plus ParallelTime under the plan's cost model and
// AvgMAPs per processor.
type SimReport = machine.Result

// Simulate runs the plan on the discrete-event machine simulator.
func Simulate(prog *Program, plan *Plan, opt SimOptions) (*SimReport, error) {
	return machine.Simulate(plan, opt)
}
