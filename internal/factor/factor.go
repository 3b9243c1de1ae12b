// Package factor is the kind → problem stage of a solve: the one place
// that knows what "chol" and "lu" mean. It generates the synthetic matrix a
// (kind, n, seed) triple names, and builds from a matrix everything the
// rest of the pipeline is generic over: the task program for rapid.Compile,
// the kernels and buffer rules for rapid.Execute, the sequential reference
// and the numerical check of the result. The daemon, the command-line
// tools and the executor benchmarks all enter the library through here, so
// a third kind, or a change to a generator, is one edit.
package factor

import (
	"fmt"
	"strings"

	"repro/internal/chol"
	"repro/internal/graph"
	"repro/internal/lu"
	"repro/internal/sparse"
	"repro/internal/util"
	"repro/rapid"
)

// Kinds lists the factorizations Matrix and Build know.
var Kinds = []string{"chol", "lu"}

// Matrix generates the synthetic matrix of order about n that (kind, seed)
// names: a nine-point 2-D grid (sparse.GridShape) with random extra
// couplings — n/8 symmetric links, RCM-ordered, SPD values for "chol";
// n/4 unsymmetric links and diagonally dominant values for "lu". Equal
// arguments give equal bytes, which is what makes rapidd's plan cache
// effective; a test pins the bytes.
func Matrix(kind string, n int, seed uint64) (*sparse.Matrix, error) {
	if n < 1 {
		return nil, fmt.Errorf("-n must be at least 1, got %d", n)
	}
	rng := util.NewRNG(seed)
	nx, ny := sparse.GridShape(n)
	switch kind {
	case "chol":
		pat := sparse.AddRandomSymLinks(sparse.Grid2D(nx, ny, true), n/8, rng)
		pat = pat.PermuteSym(sparse.RCM(pat))
		return sparse.SPDValues(pat, rng), nil
	case "lu":
		pat := sparse.AddRandomUnsymLinks(sparse.Grid2D(nx, ny, true), n/4, rng)
		return sparse.UnsymValues(pat, rng), nil
	}
	return nil, errUnknown(kind)
}

func errUnknown(kind string) error {
	return fmt.Errorf("unknown kind %q (want %s)", kind, strings.Join(Kinds, " or "))
}

// Problem is one built factorization, ready for rapid.Compile and
// rapid.Execute. Nothing an execution calls writes to it — Kernel, Init,
// BufLen and Residual only read the matrix and the kernel tables, and
// payload buffers belong to each Execute — so concurrent executions may
// share one Problem.
type Problem struct {
	// Title names the factorization and Check the quantity Residual
	// returns, for the tools' output.
	Title, Check string
	// Program is the task graph, owners preset by the kind's data mapping
	// (2-D cyclic blocks for chol, 1-D cyclic panels for lu).
	Program *rapid.Program
	// Exec holds the numeric run's Kernel, Init and BufLen; callers add
	// Faults and BlockTimeout.
	Exec rapid.ExecOptions
	// Sequential factors the matrix with the same kernels in one
	// topological order: the reference Execute's objects are compared with.
	Sequential func() (map[rapid.ObjID][]float64, error)
	// Residual checks a factor numerically against the matrix it was built
	// from: ‖A − L·Lᵀ‖_F/‖A‖_F for chol; for lu, max |x − x*| of a solve
	// whose known solution x* is drawn from seed+12345 (pass the matrix's
	// generator seed, so a spec's residual is a function of the spec).
	Residual func(objects map[rapid.ObjID][]float64, seed uint64) float64
	// Bytes is what the problem retains besides the task graph: the matrix
	// and the kernel tables.
	Bytes int64
	// graph is where the kind's kernels and sequential reference read the
	// task graph from.
	graph **graph.DAG
}

// Adopt makes the task graph of plan, which must have been compiled from
// this problem's program or from one with an equal fingerprint, the
// problem's own, and lets go of the copy Build made: one task graph per
// structure, and the plan owns it. Equal fingerprints mean identical
// graphs with identical ids, so kernels and initializers run unchanged.
// Adopt before the problem is shared; a shared problem is read-only.
func (p *Problem) Adopt(plan *rapid.Plan) {
	if g := plan.Schedule.G; g != p.Program.G {
		p.Program.G, *p.graph = g, g
	}
}

// Build constructs kind's block factorization of a for procs processors
// with block (chol) or panel (lu) size block.
func Build(kind string, a *sparse.Matrix, procs, block int) (*Problem, error) {
	switch kind {
	case "chol":
		pr, err := chol.Build(a, chol.Options{Procs: procs, BlockSize: block})
		if err != nil {
			return nil, err
		}
		return &Problem{
			Title: "sparse Cholesky", Check: "‖A−LLᵀ‖/‖A‖",
			Program:    rapid.FromGraph(pr.G),
			Exec:       rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject},
			Sequential: pr.SequentialFactor,
			Residual: func(objects map[rapid.ObjID][]float64, _ uint64) float64 {
				return pr.Residual(objects)
			},
			Bytes: pr.Bytes(),
			graph: &pr.G,
		}, nil
	case "lu":
		pr, err := lu.Build(a, lu.Options{Procs: procs, BlockSize: block})
		if err != nil {
			return nil, err
		}
		return &Problem{
			Title: "sparse LU with partial pivoting", Check: "max |x−x*|",
			Program:    rapid.FromGraph(pr.G),
			Exec:       rapid.ExecOptions{Kernel: pr.Kernel, Init: pr.InitObject, BufLen: pr.BufLen},
			Sequential: pr.SequentialFactor,
			Residual: func(objects map[rapid.ObjID][]float64, seed uint64) float64 {
				return pr.SolveError(objects, util.NewRNG(seed+12345))
			},
			Bytes: pr.Bytes(),
			graph: &pr.G,
		}, nil
	}
	return nil, errUnknown(kind)
}
