// Package lu builds the 1-D column-block sparse LU task graphs of the
// paper's second evaluation application: sparse Gaussian elimination with
// partial pivoting, parallelized with the static symbolic factorization of
// Fu & Yang (SC'96) so the dependence structure is fixed before numeric
// execution, and a 1-D column-block cyclic mapping that keeps pivoting and
// row swaps local to the panel owner.
//
// Data objects are column panels; tasks are
//
//	Factor_k   : factor panel k (LU with partial pivoting on the trailing
//	             rows); the pivot sequence and the index of the panel's
//	             nonzero rows are stored with the panel
//	Update_kj  : apply panel k's pivots, the unit-lower triangular solve
//	             and the Schur update to panel j (j > k, structurally
//	             coupled); non-commutative — updates to a panel are applied
//	             in ascending k order
//
// Panel sizes (memory units) come from the structural symbolic analysis;
// numeric buffers are intended for validation-scale problems and hold, for
// panel k of width w starting at column c,
//
//	n×w matrix · w pivots · row index (a blas row set over the n−c−w rows
//	                        below the diagonal block: RowSetLen(n−c−w) words)
//
// The row index marks the rows below the diagonal block in which the
// factored panel holds a nonzero, and Update_kj applies the Schur update to
// those rows only. It is numeric, not symbolic, on purpose: the static
// George–Ng structure is an upper bound valid for every pivot sequence, and
// at the benchmark's size (n=1496, w=16) it couples 4 019 of the 4 371
// possible panel pairs — the AᵀA block bound is 92% dense — while only 11–12%
// of the panel rows hold a nonzero once the numbers are in. Factor_k sees
// those numbers; every one of the ~43 updates that read panel k would
// otherwise find the zero rows again. The index is data of the factored
// panel: it is shipped by the same Put as the panel and nothing about it is
// kept on the Problem, so processors share no state.
//
// Update_kj skips zero columns too. After the row swaps it masks the
// columns of its wk×wj U block that hold a nonzero (at n=1496, 957 of the
// 4 089 U blocks hold none, and a quarter of the row-indexed Schur flops
// fall on nonzero columns), and runs the unit-lower solve and the Schur update on
// those columns only, the update as one blas.GemmMasked call that walks the
// row index itself; an all-zero U block costs the scan. Both operations
// treat columns independently, so a zero column stays zero and contributes
// nothing.
//
// Both skips are exact: the factor is bit-identical to the full update's.
// Every entry the update touches is summed in the full product's order, and
// what a skip leaves out is a sum of ±0 terms, which changes no entry other
// than a -0 — and the entries an update writes start from A's values and
// +0, and a round-to-nearest sum is -0 only if both its terms are, so none
// is -0 unless A stores one.
package lu

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/sparse"
	"repro/internal/util"
)

type opKind uint8

const (
	opFactor opKind = iota
	opUpdate
)

type taskInfo struct {
	kind opKind
	k, j int32
}

// Problem is a built LU instance.
type Problem struct {
	N  int
	W  int
	NB int
	P  int
	G  *graph.DAG
	BP *sparse.BlockPattern1D

	panelObj []graph.ObjID
	info     []taskInfo

	A *sparse.Matrix
}

// Options configure the build.
type Options struct {
	Procs     int
	BlockSize int
}

// Build constructs the problem. The matrix may be unsymmetric; values are
// optional and needed only for numeric execution.
func Build(a *sparse.Matrix, opt Options) (*Problem, error) {
	if opt.Procs <= 0 || opt.BlockSize <= 0 {
		return nil, fmt.Errorf("lu: invalid options %+v", opt)
	}
	bp := sparse.NewBlockPattern1D(a, opt.BlockSize)
	pr := &Problem{N: a.N, W: opt.BlockSize, NB: bp.NB, P: opt.Procs, BP: bp, A: a}

	gb := graph.NewBuilder()
	pr.panelObj = make([]graph.ObjID, bp.NB)
	owners := make([]graph.Proc, bp.NB)
	nTasks := bp.NB
	for k := 0; k < bp.NB; k++ {
		pr.panelObj[k] = gb.Object("P["+strconv.Itoa(k)+"]", bp.PanelNnz[k])
		owners[k] = graph.Proc(k % opt.Procs)
		nTasks += len(bp.Succ[k])
	}
	gb.Grow(nTasks, 3*nTasks-bp.NB) // a factor has two accesses, an update three

	// Sequential elimination order. Updates into a panel are ordered by
	// ascending k through the read-modify-write chain (non-commutative).
	// The tasks are named after the graph is built.
	var names graph.Names
	names.Grow(nTasks)
	pr.info = make([]taskInfo, 0, nTasks)
	for k := int32(0); k < int32(bp.NB); k++ {
		wk := float64(bp.BlockDim(int(k)))
		hk := float64(bp.Heights[k])
		pk := pr.panelObj[k]
		names.Add("factor", k)
		gb.Task("", hk*wk*wk,
			[]graph.ObjID{pk}, []graph.ObjID{pk})
		pr.info = append(pr.info, taskInfo{kind: opFactor, k: k, j: k})
		for _, j := range bp.Succ[k] {
			wj := float64(bp.BlockDim(int(j)))
			pj := pr.panelObj[j]
			names.Add("update", k, j)
			gb.Task("", 2*hk*wk*wj,
				[]graph.ObjID{pk, pj}, []graph.ObjID{pj})
			pr.info = append(pr.info, taskInfo{kind: opUpdate, k: k, j: j})
		}
	}
	g, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("lu: %w", err)
	}
	names.Apply(g)
	for k := 0; k < bp.NB; k++ {
		g.Objects[pr.panelObj[k]].Owner = owners[k]
	}
	pr.G = g
	return pr, nil
}

// SetMatrix swaps in new numeric values for an iterative computation (e.g.
// a Newton iteration): the pattern must be the one the problem was built
// with, so the task graph, schedule and memory plan stay valid — the
// inspector runs once, the executor every iteration.
func (pr *Problem) SetMatrix(a *sparse.Matrix) error {
	if a.N != pr.N || a.Nnz() != pr.A.Nnz() {
		return fmt.Errorf("lu: SetMatrix pattern mismatch (n %d vs %d, nnz %d vs %d)",
			a.N, pr.N, a.Nnz(), pr.A.Nnz())
	}
	pr.A = a
	return nil
}

// Bytes returns what the problem retains besides its task graph: the
// matrix, the block pattern and the kernel tables.
func (pr *Problem) Bytes() int64 {
	n := pr.A.Bytes() + 4*int64(len(pr.panelObj)) + 12*int64(len(pr.info)) +
		8*int64(len(pr.BP.PanelNnz)+len(pr.BP.Heights))
	for _, succ := range pr.BP.Succ {
		n += 24 + 4*int64(len(succ))
	}
	return n
}

// PanelObj returns the object ID of panel k.
func (pr *Problem) PanelObj(k int) graph.ObjID { return pr.panelObj[k] }

// BufLen returns the numeric buffer length of an object: a dense n×w panel,
// w pivot slots, and the row index — one bit for each row below the panel's
// diagonal block. (The abstract Size used for memory accounting is the
// structural nonzero count.)
func (pr *Problem) BufLen(o graph.ObjID) int64 {
	k := int(o) // panels were created in order, so ObjID == panel index
	w := pr.BP.BlockDim(k)
	below := pr.N - pr.colStart(k) - w
	return int64(pr.N*w + w + blas.RowSetLen(below))
}

// colStart returns the first scalar column of panel k.
func (pr *Problem) colStart(k int) int { return k * pr.W }

// InitObject fills a panel buffer with the values of the corresponding
// columns of A (dense n×w panel; pivot strip and row index stay zero). buf
// arrives zeroed (exec.InitFunc).
func (pr *Problem) InitObject(o graph.ObjID, buf []float64) {
	if pr.A == nil || pr.A.Val == nil {
		return
	}
	k := int(o)
	w := pr.BP.BlockDim(k)
	c0 := pr.colStart(k)
	for j := 0; j < w; j++ {
		col := pr.A.Col(c0 + j)
		vals := pr.A.ColVal(c0 + j)
		for idx, i := range col {
			buf[int(i)*w+j] = vals[idx]
		}
	}
}

// panelParts splits a panel buffer into the dense n×w matrix, the pivot
// strip (pivots stored as float64 row indices relative to the panel's
// diagonal row) and the row index: a blas row set that holds row i,
// counted from the first row below the diagonal block, iff that row holds
// a nonzero. GemmMasked walks it itself.
func (pr *Problem) panelParts(k int, buf []float64) (mat, piv, rows []float64, w int) {
	w = pr.BP.BlockDim(k)
	return buf[:pr.N*w], buf[pr.N*w : pr.N*w+w], buf[pr.N*w+w:], w
}

// Kernel executes task t numerically.
func (pr *Problem) Kernel(t graph.TaskID, get func(graph.ObjID) []float64) error {
	ti := pr.info[t]
	switch ti.kind {
	case opFactor:
		k := int(ti.k)
		mat, piv, rows, w := pr.panelParts(k, get(pr.panelObj[k]))
		r0 := pr.colStart(k)
		if err := blas.Getrf(pr.N-r0, w, mat[r0*w:], w, piv); err != nil {
			return fmt.Errorf("lu: factor(%d): %w", k, err)
		}
		// Mark the rows below the diagonal block that hold any nonzero.
		clear(rows)
		below := mat[(r0+w)*w:]
		for i := 0; i < len(below)/w; i++ {
			if !blas.AllZero(below[i*w : (i+1)*w]) {
				blas.MarkRow(rows, i)
			}
		}
		return nil
	case opUpdate:
		k, j := int(ti.k), int(ti.j)
		matK, piv, rows, wk := pr.panelParts(k, get(pr.panelObj[k]))
		matJ, _, _, wj := pr.panelParts(j, get(pr.panelObj[j]))
		r0 := pr.colStart(k)
		// Apply panel k's row interchanges to panel j's trailing rows.
		u := matJ[r0*wj:]
		blas.Laswp(wj, u, wj, piv)
		// U block: solve L_kk (unit lower) * U = B on the wk pivot rows,
		// then the Schur complement on panel k's nonzero rows below its
		// diagonal block; both only on the U block's nonzero columns, up
		// to 64 of them per call.
		for c0 := 0; c0 < wj; c0 += 64 {
			cols := blas.NonzeroCols(wk, min(64, wj-c0), u[c0:], wj)
			blas.TrsmLeftLowerUnit(wk, cols, matK[r0*wk:], wk, u[c0:], wj)
			blas.GemmMasked(rows, cols, wk, -1, matK[(r0+wk)*wk:], wk, u[c0:], wj, matJ[(r0+wk)*wj+c0:], wj)
		}
		return nil
	}
	return fmt.Errorf("lu: unknown kernel for task %d", t)
}

// SequentialFactor runs the kernels in topological order, returning the
// panel buffers (reference for tests and for the solver below).
func (pr *Problem) SequentialFactor() (map[graph.ObjID][]float64, error) {
	bufs := make(map[graph.ObjID][]float64, pr.G.NumObjects())
	for oi := range pr.G.Objects {
		b := make([]float64, pr.BufLen(graph.ObjID(oi)))
		pr.InitObject(graph.ObjID(oi), b)
		bufs[graph.ObjID(oi)] = b
	}
	order, err := pr.G.TopoSort()
	if err != nil {
		return nil, err
	}
	get := func(o graph.ObjID) []float64 { return bufs[o] }
	for _, t := range order {
		if err := pr.Kernel(t, get); err != nil {
			return nil, err
		}
	}
	return bufs, nil
}

// Solve uses factored panel buffers to solve A·x = b (in place on a copy of
// b), applying the per-panel pivot sequences, the unit-lower forward solve
// and the upper back substitution.
func (pr *Problem) Solve(bufs map[graph.ObjID][]float64, b []float64) []float64 {
	n := pr.N
	x := append([]float64(nil), b...)
	// Forward: for each panel k, apply its pivots to x (rows r0..n-1), then
	// eliminate with the unit-lower columns.
	for k := 0; k < pr.NB; k++ {
		mat, pivF, _, w := pr.panelParts(k, bufs[pr.panelObj[k]])
		r0 := pr.colStart(k)
		// Pivots are recorded relative to the factored submatrix, which
		// starts at row r0.
		for q := 0; q < w; q++ {
			p, pq := r0+q, r0+int(pivF[q])
			x[p], x[pq] = x[pq], x[p]
		}
		for q := 0; q < w; q++ {
			gj := r0 + q
			v := x[gj]
			if v == 0 {
				continue
			}
			for i := gj + 1; i < n; i++ {
				x[i] -= mat[i*w+q] * v
			}
		}
	}
	// Backward: upper triangular solve using the U parts of the panels.
	for gj := n - 1; gj >= 0; gj-- {
		k := gj / pr.W
		mat, _, _, w := pr.panelParts(k, bufs[pr.panelObj[k]])
		q := gj - pr.colStart(k)
		x[gj] /= mat[gj*w+q]
		v := x[gj]
		if v == 0 {
			continue
		}
		// Subtract column gj of U from rows above: U entries live in the
		// panels of each column; iterate rows i < gj via this column.
		for i := 0; i < gj; i++ {
			x[i] -= mat[i*w+q] * v
		}
	}
	return x
}

// SolveError draws a solution x* from rng, solves A·x = A·x* with the
// factored panel buffers and returns max |x − x*|: the factorization's
// numerical check.
func (pr *Problem) SolveError(bufs map[graph.ObjID][]float64, rng *util.RNG) float64 {
	a := pr.A
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
	x := pr.Solve(bufs, b)
	maxErr := 0.0
	for i := range x {
		if d := math.Abs(x[i] - xTrue[i]); d > maxErr {
			maxErr = d
		}
	}
	return maxErr
}

// Heights exposes the structural panel heights (for cost reporting).
func (pr *Problem) Heights() []int64 { return pr.BP.Heights }
