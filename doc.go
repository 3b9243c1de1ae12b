// Package repro reproduces Fu & Yang, "Space and Time Efficient Execution
// of Parallel Irregular Computations" (PPoPP 1997): a RAPID-style run-time
// system executing irregular task graphs on distributed-memory machines
// under per-processor memory constraints, with active memory management
// (Memory Allocation Points, address notification over remote memory
// access, suspended sends, a provably deadlock-free five-state protocol)
// and the memory-efficient scheduling heuristics RCP, MPO and DTS.
//
// The public API lives in the rapid package; the applications (2-D block
// sparse Cholesky, 1-D column-block sparse LU with partial pivoting) and
// all substrates are under internal/. The benchmark harness in
// bench_test.go regenerates every table and figure of the paper's
// evaluation; see DESIGN.md and EXPERIMENTS.md.
//
// A run takes one compiled plan, internal/plan's Artifact (rapid.Plan):
// plan.Compile turns a mapped task graph and a memory budget into the
// schedule and its MAP plan, and the executor (exec.Run), the simulator
// (machine.Simulate) and every harness run exactly that value.
//
// The inspector phase is deterministic and content-addressable:
// rapid.CompileCached fingerprints the (task structure, options) pair and
// reuses compiled plans from a two-tier plan cache (in-memory LRU over an
// on-disk store, internal/plancache), so repeated executions of the same
// irregular structure — the inspector/executor paradigm's amortization
// case — skip inspection entirely. Command rapidd serves that workflow as
// a daemon, with a memory-budget admission controller that queues jobs
// whose planned footprint would overflow the machine's AVAIL_MEM.
package repro
