// Package trisolve builds distributed sparse triangular solve task graphs —
// the third workload the paper reports RAPID handling well ("RAPID is able
// to deliver good performance for sparse code such as Cholesky
// factorization and triangular solvers"). Given the 2-D block structure of
// a Cholesky factor L, it builds the task graph for
//
//	L·y = b        (forward substitution)
//	Lᵀ·x = y       (backward substitution)
//
// over block columns: solve tasks invert diagonal blocks, update tasks
// accumulate sub-diagonal contributions (commutative, like the
// factorization's updates). Vector segments y_k/x_k are owned by the owner
// of the diagonal block L[k,k]; factor blocks keep their factorization
// owners, so the communication pattern is the factor's transposed one.
//
// Factor blocks are pure inputs (no producer task): their volatile copies
// are filled during preprocessing (the executor initializes them at
// allocation), mirroring RAPID's initial data distribution.
package trisolve

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/chol"
	"repro/internal/graph"
)

type opKind uint8

const (
	opFSolve opKind = iota // y_k = L_kk^-1 y_k
	opFUpd                 // y_i -= L_ik · y_k
	opBSolve               // x_k = L_kk^-T y_k
	opBUpd                 // y_k -= L_ikᵀ · x_i
)

type taskInfo struct {
	kind opKind
	i, k int32
}

// Problem is a built triangular-solve instance (forward + backward).
type Problem struct {
	NB int
	G  *graph.DAG

	chol   *chol.Problem
	factor map[graph.ObjID][]float64 // chol object -> factored block buffer
	b      []float64

	// object maps
	lObj     map[[2]int32]graph.ObjID // (i,k) -> L block object (this graph)
	lCoord   map[graph.ObjID][2]int32
	yObj     []graph.ObjID
	xObj     []graph.ObjID
	dims     []int
	segStart []int

	info map[graph.TaskID]taskInfo
}

// Build constructs the solve graph from a factored Cholesky problem.
// factor maps the chol problem's object IDs to factored block buffers
// (e.g. chol.SequentialFactor output or a rapid.Execute report); b is the
// right-hand side.
func Build(cp *chol.Problem, factor map[graph.ObjID][]float64, b []float64) (*Problem, error) {
	if len(b) != cp.N {
		return nil, fmt.Errorf("trisolve: rhs length %d != n %d", len(b), cp.N)
	}
	pr := &Problem{
		NB:     cp.NB,
		chol:   cp,
		factor: factor,
		b:      append([]float64(nil), b...),
		lObj:   make(map[[2]int32]graph.ObjID),
		lCoord: make(map[graph.ObjID][2]int32),
		info:   make(map[graph.TaskID]taskInfo),
	}
	gb := graph.NewBuilder()

	// Geometry.
	pr.dims = make([]int, cp.NB)
	pr.segStart = make([]int, cp.NB+1)
	for k := 0; k < cp.NB; k++ {
		pr.dims[k] = cp.BlockDim(k)
		pr.segStart[k+1] = pr.segStart[k] + pr.dims[k]
	}

	// Objects: factor blocks (inputs) with the factorization's owners,
	// vector segments owned by the diagonal block's owner.
	type owned struct {
		id    graph.ObjID
		owner graph.Proc
	}
	var owners []owned
	for k := 0; k < cp.NB; k++ {
		for _, i := range cp.Rows[k] {
			co, ok := cp.BlockObj(int(i), k)
			if !ok {
				return nil, fmt.Errorf("trisolve: missing chol block (%d,%d)", i, k)
			}
			id := gb.Object(fmt.Sprintf("L[%d,%d]", i, k), int64(pr.dims[i]*pr.dims[k]))
			pr.lObj[[2]int32{i, int32(k)}] = id
			pr.lCoord[id] = [2]int32{i, int32(k)}
			owners = append(owners, owned{id, cp.G.Objects[co].Owner})
		}
	}
	pr.yObj = make([]graph.ObjID, cp.NB)
	pr.xObj = make([]graph.ObjID, cp.NB)
	for k := 0; k < cp.NB; k++ {
		diag, _ := cp.BlockObj(k, k)
		own := cp.G.Objects[diag].Owner
		pr.yObj[k] = gb.Object(fmt.Sprintf("y[%d]", k), int64(pr.dims[k]))
		owners = append(owners, owned{pr.yObj[k], own})
		pr.xObj[k] = gb.Object(fmt.Sprintf("x[%d]", k), int64(pr.dims[k]))
		owners = append(owners, owned{pr.xObj[k], own})
	}

	// Forward substitution.
	addInfo := func(t graph.TaskID, ti taskInfo) { pr.info[t] = ti }
	for k := int32(0); k < int32(cp.NB); k++ {
		dk := float64(pr.dims[k])
		diag := pr.lObj[[2]int32{k, k}]
		t := gb.Task(fmt.Sprintf("fsolve(%d)", k), dk*dk,
			[]graph.ObjID{diag, pr.yObj[k]}, []graph.ObjID{pr.yObj[k]})
		addInfo(t, taskInfo{kind: opFSolve, i: k, k: k})
		for _, i := range pr.chol.Rows[k] {
			if i <= k {
				continue
			}
			lik := pr.lObj[[2]int32{i, k}]
			t := gb.CommutativeTask(fmt.Sprintf("fupd(%d,%d)", i, k),
				2*float64(pr.dims[i])*dk,
				[]graph.ObjID{lik, pr.yObj[k], pr.yObj[i]}, []graph.ObjID{pr.yObj[i]})
			addInfo(t, taskInfo{kind: opFUpd, i: i, k: k})
		}
	}
	// Backward substitution.
	for k := int32(cp.NB) - 1; k >= 0; k-- {
		dk := float64(pr.dims[k])
		for _, i := range pr.chol.Rows[k] {
			if i <= k {
				continue
			}
			lik := pr.lObj[[2]int32{i, k}]
			t := gb.CommutativeTask(fmt.Sprintf("bupd(%d,%d)", i, k),
				2*float64(pr.dims[i])*dk,
				[]graph.ObjID{lik, pr.xObj[i], pr.yObj[k]}, []graph.ObjID{pr.yObj[k]})
			addInfo(t, taskInfo{kind: opBUpd, i: i, k: k})
		}
		diag := pr.lObj[[2]int32{k, k}]
		t := gb.Task(fmt.Sprintf("bsolve(%d)", k), dk*dk,
			[]graph.ObjID{diag, pr.yObj[k]}, []graph.ObjID{pr.xObj[k]})
		addInfo(t, taskInfo{kind: opBSolve, i: k, k: k})
	}

	g, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("trisolve: %w", err)
	}
	for _, o := range owners {
		g.Objects[o.id].Owner = o.owner
	}
	pr.G = g
	return pr, nil
}

// InitObject fills buffers: L blocks from the factored Cholesky buffers,
// y segments from the right-hand side; x segments stay zero. buf arrives
// zeroed (exec.InitFunc).
func (pr *Problem) InitObject(o graph.ObjID, buf []float64) {
	if c, ok := pr.lCoord[o]; ok {
		co, _ := pr.chol.BlockObj(int(c[0]), int(c[1]))
		copy(buf, pr.factor[co])
		return
	}
	for k := 0; k < pr.NB; k++ {
		if pr.yObj[k] == o {
			copy(buf, pr.b[pr.segStart[k]:pr.segStart[k+1]])
			return
		}
	}
}

// Kernel executes a solve/update task numerically.
func (pr *Problem) Kernel(t graph.TaskID, get func(graph.ObjID) []float64) error {
	ti, ok := pr.info[t]
	if !ok {
		return fmt.Errorf("trisolve: unknown task %d", t)
	}
	switch ti.kind {
	case opFSolve:
		l := get(pr.lObj[[2]int32{ti.k, ti.k}])
		y := get(pr.yObj[ti.k])
		blas.TrsvLower(pr.dims[ti.k], l, pr.dims[ti.k], y)
	case opFUpd:
		l := get(pr.lObj[[2]int32{ti.i, ti.k}])
		yk := get(pr.yObj[ti.k])
		yi := get(pr.yObj[ti.i])
		blas.GemvSub(pr.dims[ti.i], pr.dims[ti.k], l, pr.dims[ti.k], yk, yi)
	case opBUpd:
		l := get(pr.lObj[[2]int32{ti.i, ti.k}])
		xi := get(pr.xObj[ti.i])
		yk := get(pr.yObj[ti.k])
		blas.GemvTSub(pr.dims[ti.i], pr.dims[ti.k], l, pr.dims[ti.k], xi, yk)
	case opBSolve:
		l := get(pr.lObj[[2]int32{ti.k, ti.k}])
		y := get(pr.yObj[ti.k])
		x := get(pr.xObj[ti.k])
		copy(x, y)
		blas.TrsvLowerT(pr.dims[ti.k], l, pr.dims[ti.k], x)
	}
	return nil
}

// Assemble gathers the solution vector from executed x-segment buffers.
func (pr *Problem) Assemble(objects map[graph.ObjID][]float64) []float64 {
	x := make([]float64, pr.chol.N)
	for k := 0; k < pr.NB; k++ {
		copy(x[pr.segStart[k]:pr.segStart[k+1]], objects[pr.xObj[k]])
	}
	return x
}

// SequentialSolve runs the kernels in topological order (reference).
func (pr *Problem) SequentialSolve() ([]float64, error) {
	bufs := make(map[graph.ObjID][]float64, pr.G.NumObjects())
	for oi := range pr.G.Objects {
		b := make([]float64, pr.G.Objects[oi].Size)
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
	return pr.Assemble(bufs), nil
}
