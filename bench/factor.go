package main

import (
	"fmt"
	"slices"
	"time"

	"repro/rapid"
)

// reexecPerSolve is how many re-executions of the freshly compiled plan
// follow each fresh solve in the timed phase. Both sample sets then span
// the whole phase and the same couple of dozen seed-derived structures, so
// neither median follows the luck of one structure.
const reexecPerSolve = 2

// luSolveLimit bounds max |x − x*| of the set-up's LU solve check.
const luSolveLimit = 1e-6

// factorRun is one set-up of a factor workload. Set-up solves and checks
// one matrix; the timed phase keeps nothing of it, because every timed
// solve starts from a never-seen matrix.
type factorRun struct {
	w   workload
	cfg runConfig
	ops int
	// fresh counts the never-seen matrices solved so far; key 0 is the
	// set-up matrix.
	fresh uint64
}

func setUpFactor(w workload, cfg runConfig) (*factorRun, error) {
	r := &factorRun{w: w, cfg: cfg}
	// One checked solve: proves the shape works and warms the executor.
	_, s, err := r.freshSolve(0, nil)
	if err != nil {
		return nil, err
	}
	if s.pb.lu != nil {
		if e := luSolveError(s.pb, s.factor, cfg.seed); !(e <= luSolveLimit) {
			return nil, fmt.Errorf("LU solve error %g exceeds %g", e, luSolveLimit)
		}
	}
	return r, nil
}

// solved is a fresh solve's plan with what its re-executions need.
type solved struct {
	pb          *problem
	pl          *rapid.Plan
	factor, ref map[rapid.ObjID][]float64 // as executed; the sequential reference
}

// freshSolve is the library user's time to solution on a never-seen
// matrix: generate → build → Compile → numeric Execute. A memory-constrained
// shape compiles twice, as in rapidd: the unconstrained plan's TOT sets the
// capacity of the constrained one. The comparison with the matrix's own
// sequential factor is outside the clock.
func (r *factorRun) freshSolve(key uint64, tr *tracer) (time.Duration, *solved, error) {
	r.ops++
	op := r.ops
	root := tr.begin("solve", -1, op)
	t0 := time.Now()

	id := tr.begin("sparse.generate", root, op)
	a, err := genMatrix(r.w.shape, structureSeed(r.cfg.seed, key))
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = tr.begin("factor.build", root, op)
	pb, err := buildProblem(r.w.shape, a)
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	id = tr.begin("rapid.compile", root, op)
	opt, err := compileOptions(r.w.shape, pb)
	var pl *rapid.Plan
	if err == nil {
		pl, err = rapid.Compile(pb.prog, opt)
	}
	tr.end(id)
	if err != nil {
		return 0, nil, err
	}
	if !pl.Executable() {
		return 0, nil, fmt.Errorf("plan not executable under memory %d (MIN_MEM %d)", opt.Memory, pl.MinMem())
	}
	id = tr.begin("exec.run_numeric", root, op)
	rep, err := rapid.Execute(pb.prog, pl, pb.exec)
	tr.end(id)
	d := time.Since(t0)
	tr.end(root)
	if err != nil {
		return 0, nil, err
	}
	ref, err := pb.sequential()
	if err != nil {
		return 0, nil, err
	}
	return d, &solved{pb: pb, pl: pl, factor: rep.Objects, ref: ref}, compareFactor(rep.Objects, ref)
}

// reexec is the inspector/executor amortisation case: the numeric Execute
// alone, on an already compiled plan.
func (r *factorRun) reexec(s *solved, tr *tracer) (time.Duration, int64, error) {
	r.ops++
	root := tr.begin("reexec", -1, r.ops)
	id := tr.begin("exec.run_numeric", root, r.ops)
	t0 := time.Now()
	rep, err := rapid.Execute(s.pb.prog, s.pl, s.pb.exec)
	d := time.Since(t0)
	tr.end(id)
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	return d, slices.Max(rep.PeakUnits), compareFactor(rep.Objects, s.ref)
}

// timed alternates one fresh solve with reexecPerSolve re-executions of
// its plan, for d.
func (r *factorRun) timed(d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	start := time.Now()
	deadline := start.Add(d)
	for time.Now().Before(deadline) {
		p.attempted++
		r.fresh++
		d, s, err := r.freshSolve(r.fresh, tr)
		if err != nil {
			p.fail(fmt.Errorf("fresh solve %d: %w", r.fresh, err))
			continue
		}
		p.latencyMS = append(p.latencyMS, ms(d))
		p.doneAt = append(p.doneAt, time.Since(start))
		p.elapsed += d
		for i := 0; i < reexecPerSolve; i++ {
			p.attempted++
			d, peak, err := r.reexec(s, tr)
			if err != nil {
				p.fail(fmt.Errorf("re-execution: %w", err))
				continue
			}
			p.execMS = append(p.execMS, ms(d))
			p.peakUnits = append(p.peakUnits, float64(peak))
		}
	}
	return p, nil
}

func (r *factorRun) tearDown() error { return nil }
