package main

import (
	"fmt"
	"math"

	"repro/internal/chol"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

// shape is one factorization job: what a service client names in a
// rapidd.JobSpec and what a library user builds by hand.
type shape struct {
	Kind       string // "chol" or "lu"
	N          int    // approximate matrix order
	Procs      int
	Block      int
	Heuristic  string // rapidd spelling: "mpo", "dtsmerge", ...
	MemPercent int    // per-processor capacity as % of the unconstrained TOT (0: unconstrained)
}

func (s shape) heuristic() (rapid.Heuristic, error) {
	switch s.Heuristic {
	case "mpo":
		return rapid.MPO, nil
	case "dtsmerge":
		return rapid.DTSMerge, nil
	}
	return 0, fmt.Errorf("bench: shape names unknown heuristic %q", s.Heuristic)
}

// structureSeed maps the run seed and a key to the JobSpec.Seed that
// selects one matrix structure, so -seed changes every structure.
func structureSeed(seed, key uint64) uint64 {
	return util.Hash64(seed, key) | 1 // JobSpec treats 0 as "default"
}

// genMatrix generates the matrix rapidd builds for (shape, structure
// seed) — same grid, same random links, same ordering, same values — so
// the library workloads factorize exactly what the service would.
func genMatrix(s shape, structSeed uint64) (*sparse.Matrix, error) {
	rng := util.NewRNG(structSeed)
	nx := int(math.Sqrt(float64(s.N) * 1.3))
	if nx < 2 {
		nx = 2
	}
	ny := s.N / nx
	if ny < 2 {
		ny = 2
	}
	switch s.Kind {
	case "chol":
		pat := sparse.AddRandomSymLinks(sparse.Grid2D(nx, ny, true), s.N/8, rng)
		pat = pat.PermuteSym(sparse.RCM(pat))
		return sparse.SPDValues(pat, rng), nil
	case "lu":
		pat := sparse.AddRandomUnsymLinks(sparse.Grid2D(nx, ny, true), s.N/4, rng)
		return sparse.UnsymValues(pat, rng), nil
	}
	return nil, fmt.Errorf("bench: unknown kind %q", s.Kind)
}

// symbolic runs the kind's block symbolic factorization on its own (the
// builders run it internally; this is the stage's separate number).
func symbolic(s shape, a *sparse.Matrix) {
	if s.Kind == "chol" {
		sparse.NewBlockPattern2D(a, s.Block)
	} else {
		sparse.NewBlockPattern1D(a, s.Block)
	}
}

// problem is a built instance ready for rapid.Compile and rapid.Execute.
type problem struct {
	a          *sparse.Matrix
	prog       *rapid.Program
	exec       rapid.ExecOptions // Kernel, Init and BufLen for a numeric run
	sequential func() (map[rapid.ObjID][]float64, error)
	lu         *lu.Problem // set for kind "lu": the solve check needs it
}

func buildProblem(s shape, a *sparse.Matrix) (*problem, error) {
	switch s.Kind {
	case "chol":
		pr, err := chol.Build(a, chol.Options{Procs: s.Procs, BlockSize: s.Block})
		if err != nil {
			return nil, err
		}
		return &problem{
			a: a, prog: rapid.FromGraph(pr.G),
			exec:       rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject},
			sequential: pr.SequentialFactor,
		}, nil
	case "lu":
		pr, err := lu.Build(a, lu.Options{Procs: s.Procs, BlockSize: s.Block})
		if err != nil {
			return nil, err
		}
		return &problem{
			a: a, prog: rapid.FromGraph(pr.G),
			exec:       rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject, BufLen: pr.BufLen},
			sequential: pr.SequentialFactor,
			lu:         pr,
		}, nil
	}
	return nil, fmt.Errorf("bench: unknown kind %q", s.Kind)
}

// compileOptions resolves the shape's memory constraint against one built
// problem: MemPercent of the unconstrained plan's TOT, as rapidd does.
func compileOptions(s shape, pb *problem) (rapid.Options, error) {
	h, err := s.heuristic()
	if err != nil {
		return rapid.Options{}, err
	}
	opt := rapid.Options{Procs: s.Procs, Heuristic: h}
	if s.MemPercent > 0 {
		free, err := rapid.Compile(pb.prog, opt)
		if err != nil {
			return opt, err
		}
		opt.Memory = free.TOT() * int64(s.MemPercent) / 100
	}
	return opt, nil
}

// factorTolerance bounds the object-by-object difference from the
// sequential reference, relative to the reference's largest entry.
// Commutative Cholesky updates may be summed in another order than the
// sequential one; everything else is bit-equal.
const factorTolerance = 1e-9

// compareFactor checks got against the sequential reference, object by
// object: max abs difference <= factorTolerance * ||ref||_inf.
func compareFactor(got, ref map[rapid.ObjID][]float64) error {
	if len(got) != len(ref) {
		return fmt.Errorf("factor has %d objects, reference %d", len(got), len(ref))
	}
	norm, worst := 0.0, 0.0
	for o, r := range ref {
		g, ok := got[o]
		if !ok || len(g) != len(r) {
			return fmt.Errorf("object %d: missing or wrong length (%d vs %d)", o, len(g), len(r))
		}
		for i, v := range r {
			norm = math.Max(norm, math.Abs(v))
			d := math.Abs(g[i] - v)
			if math.IsNaN(d) {
				return fmt.Errorf("object %d: NaN at %d", o, i)
			}
			worst = math.Max(worst, d)
		}
	}
	if worst > factorTolerance*norm {
		return fmt.Errorf("factor differs from the sequential reference by %.3g (limit %.3g)", worst, factorTolerance*norm)
	}
	return nil
}

// luSolveError solves A·x = b for a known x with the factored panels and
// returns max |x − x*|.
func luSolveError(pb *problem, factor map[rapid.ObjID][]float64, seed uint64) float64 {
	a := pb.a
	rng := util.NewRNG(seed + 12345)
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		vals := a.ColVal(j)
		for k, i := range a.Col(j) {
			b[i] += vals[k] * xTrue[j]
		}
	}
	x := pb.lu.Solve(factor, b)
	maxErr := 0.0
	for i := range x {
		maxErr = math.Max(maxErr, math.Abs(x[i]-xTrue[i]))
	}
	return maxErr
}
