// Package chol builds the 2-D block sparse Cholesky task graphs of the
// paper's first evaluation application. The input SPD matrix is partitioned
// into w×w blocks; the nonzero block pattern of the factor is computed by
// symbolic factorization and closed under block-level fill (the static
// overestimation used by RAPID so the dependence structure is fixed before
// execution). Data objects are the nonzero lower-triangular blocks A[I,J];
// tasks are the familiar right-looking kernels
//
//	Potrf_k          : A[k,k] <- chol(A[k,k])
//	Scale_ik         : A[i,k] <- A[i,k] · A[k,k]^-T
//	Update_ijk       : A[i,j] <- A[i,j] - A[i,k]·A[j,k]ᵀ   (commutative)
//
// with a 2-D cyclic block-to-processor mapping (Rothberg & Schreiber style)
// setting object owners, and the owner-compute rule assigning tasks.
package chol

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/blas"
	"repro/internal/graph"
	"repro/internal/sparse"
)

// opKind discriminates the numeric kernel of a task.
type opKind uint8

const (
	opPotrf opKind = iota
	opScale
	opUpdate
	opSyrk
)

type taskInfo struct {
	kind    opKind
	i, j, k int32 // block coordinates
}

// Problem is a built Cholesky instance: the task graph, the block objects
// and the kernel metadata needed to execute it numerically.
type Problem struct {
	N  int // matrix order
	W  int // block size
	NB int
	P  int // processors
	G  *graph.DAG

	// Rows[J] lists block rows I >= J with a present block (post closure),
	// ascending; Rows[J][0] is J, the diagonal block.
	Rows [][]int32

	// Blocks are numbered column by column, each column's in row order, and
	// that number is the block's object ID: the blocks of column J are
	// objects first[J], first[J]+1, … in Rows[J] order, and coord[o] is
	// object o's (I, J).
	first []graph.ObjID
	coord [][2]int32
	info  []taskInfo
	dims  []int // scalar dimension of each block row/column

	// A holds the numeric input matrix when numerics are requested.
	A *sparse.Matrix
}

// Options configure the build.
type Options struct {
	// Procs is the number of processors p; the block grid is pr×pc with
	// pr·pc = p, pr as close to sqrt(p) as possible.
	Procs int
	// BlockSize w.
	BlockSize int
}

// procGrid returns pr, pc with pr*pc == p and pr <= pc, pr maximal.
func procGrid(p int) (int, int) {
	pr := int(math.Sqrt(float64(p)))
	for pr > 1 && p%pr != 0 {
		pr--
	}
	return pr, p / pr
}

// Build constructs the problem from a symmetric-pattern matrix (values
// optional; needed only for numeric execution).
func Build(a *sparse.Matrix, opt Options) (*Problem, error) {
	if opt.Procs <= 0 || opt.BlockSize <= 0 {
		return nil, fmt.Errorf("chol: invalid options %+v", opt)
	}
	if !a.IsSymmetricPattern() {
		return nil, fmt.Errorf("chol: matrix pattern is not symmetric")
	}
	bp := sparse.NewBlockPattern2D(a, opt.BlockSize)
	nb := bp.NB
	pr := &Problem{N: a.N, W: opt.BlockSize, NB: nb, P: opt.Procs, Rows: bp.Rows, A: a}
	pr.dims = make([]int, nb)
	for b := 0; b < nb; b++ {
		pr.dims[b] = bp.BlockDim(b)
	}

	// Block-level closure: if blocks (I,k) and (J,k) are present with
	// I >= J > k, block (I,J) receives an update and must be present. It is
	// enough to merge column k's rows below its first off-diagonal block J
	// into column J: column J then passes them on, in its turn, to every
	// later column the pairwise rule names (the elimination-tree argument
	// of symbolic factorization, on blocks). Column k is complete when its
	// turn comes, since only earlier columns add to it. The same sweep
	// counts the tasks and the entries of their access lists.
	nObj, nTasks, nAccess := 0, 0, 0
	for k := 0; k < nb; k++ {
		below := pr.Rows[k][1:]
		if len(below) > 0 {
			pr.Rows[below[0]] = mergeSorted(pr.Rows[below[0]], below)
		}
		b := len(below)
		nObj += 1 + b
		nTasks += 1 + b + b*(b+1)/2          // potrf, scales, syrks + updates
		nAccess += 2 + 3*b + 3*b + 2*b*(b-1) // (1+1) + (2+1)·b + (2+1)·b + (3+1)·b(b−1)/2
	}

	// Objects with 2-D cyclic owners.
	gb := graph.NewBuilder()
	gb.Grow(nTasks, nAccess)
	prp, prc := procGrid(opt.Procs)
	owners := make([]graph.Proc, 0, nObj)
	pr.first = make([]graph.ObjID, nb)
	pr.coord = make([][2]int32, 0, nObj)
	for j := 0; j < nb; j++ {
		pr.first[j] = graph.ObjID(len(owners))
		for _, i := range pr.Rows[j] {
			gb.Object("A["+strconv.Itoa(int(i))+","+strconv.Itoa(j)+"]", int64(pr.dims[i]*pr.dims[j]))
			pr.coord = append(pr.coord, [2]int32{i, int32(j)})
			owners = append(owners, graph.Proc((int(i)%prp)*prc+(j%prc)))
		}
	}

	// Tasks in right-looking sequential order, named after the graph is
	// built.
	var names graph.Names
	names.Grow(nTasks)
	pr.info = make([]taskInfo, 0, nTasks)
	for k := int32(0); k < int32(nb); k++ {
		dk := pr.dims[k]
		diag := pr.first[k]
		fk := float64(dk)
		names.Add("potrf", k)
		gb.Task("", fk*fk*fk/3,
			[]graph.ObjID{diag}, []graph.ObjID{diag})
		pr.info = append(pr.info, taskInfo{kind: opPotrf, i: k, j: k, k: k})

		below := pr.Rows[k][1:] // block (below[x], k) is object diag+1+x
		for x, i := range below {
			bik := diag + 1 + graph.ObjID(x)
			names.Add("scale", i, k)
			gb.Task("", float64(pr.dims[i])*fk*fk,
				[]graph.ObjID{diag, bik}, []graph.ObjID{bik})
			pr.info = append(pr.info, taskInfo{kind: opScale, i: i, j: k, k: k})
		}
		for x := 0; x < len(below); x++ {
			for y := 0; y <= x; y++ {
				i, j := below[x], below[y]
				bik := diag + 1 + graph.ObjID(x)
				bjk := diag + 1 + graph.ObjID(y)
				bij, _ := pr.BlockObj(int(i), int(j))
				if i == j {
					names.Add("syrk", i, k)
					gb.CommutativeTask("",
						float64(pr.dims[i])*float64(pr.dims[i])*fk,
						[]graph.ObjID{bik, bij}, []graph.ObjID{bij})
					pr.info = append(pr.info, taskInfo{kind: opSyrk, i: i, j: j, k: k})
				} else {
					names.Add("update", i, j, k)
					gb.CommutativeTask("",
						2*float64(pr.dims[i])*float64(pr.dims[j])*fk,
						[]graph.ObjID{bik, bjk, bij}, []graph.ObjID{bij})
					pr.info = append(pr.info, taskInfo{kind: opUpdate, i: i, j: j, k: k})
				}
			}
		}
	}

	g, err := gb.Build()
	if err != nil {
		return nil, fmt.Errorf("chol: %w", err)
	}
	names.Apply(g)
	for oi := range owners {
		g.Objects[oi].Owner = owners[oi]
	}
	pr.G = g
	return pr, nil
}

// mergeSorted returns the union of the ascending lists dst and add, in
// dst's storage when add brings nothing new.
func mergeSorted(dst, add []int32) []int32 {
	missing := 0
	for i, j := 0, 0; j < len(add); {
		switch {
		case i == len(dst) || add[j] < dst[i]:
			missing++
			j++
		case add[j] == dst[i]:
			i, j = i+1, j+1
		default:
			i++
		}
	}
	if missing == 0 {
		return dst
	}
	out := make([]int32, 0, len(dst)+missing)
	i, j := 0, 0
	for i < len(dst) && j < len(add) {
		switch {
		case dst[i] < add[j]:
			out = append(out, dst[i])
			i++
		case add[j] < dst[i]:
			out = append(out, add[j])
			j++
		default:
			out = append(out, dst[i])
			i, j = i+1, j+1
		}
	}
	return append(append(out, dst[i:]...), add[j:]...)
}

// BlockDim returns the scalar dimension of block row/column b.
func (pr *Problem) BlockDim(b int) int { return pr.dims[b] }

// Bytes returns what the problem retains besides its task graph: the
// matrix and the kernel tables.
func (pr *Problem) Bytes() int64 {
	n := pr.A.Bytes() + 4*int64(len(pr.first)) + 8*int64(len(pr.coord)+len(pr.dims)) + 16*int64(len(pr.info))
	for _, rows := range pr.Rows {
		n += 24 + 4*int64(len(rows))
	}
	return n
}

// BlockObj returns the object ID of block (i, j).
func (pr *Problem) BlockObj(i, j int) (graph.ObjID, bool) {
	if j < 0 || j >= pr.NB {
		return 0, false
	}
	x, ok := slices.BinarySearch(pr.Rows[j], int32(i))
	return pr.first[j] + graph.ObjID(x), ok
}

// InitObject fills buf (row-major dims[i]×dims[j]) with the values of block
// (I, J) of A; fill blocks start at zero. Used by executors to initialize
// permanent objects on their owners.
func (pr *Problem) InitObject(o graph.ObjID, buf []float64) {
	for i := range buf {
		buf[i] = 0
	}
	if pr.A == nil || pr.A.Val == nil {
		return
	}
	bi, bj := pr.coord[o][0], pr.coord[o][1]
	w := pr.W
	r0, c0 := int(bi)*w, int(bj)*w
	rows, cols := pr.dims[bi], pr.dims[bj]
	for j := 0; j < cols; j++ {
		col := pr.A.Col(c0 + j)
		vals := pr.A.ColVal(c0 + j)
		for k, i := range col {
			r := int(i) - r0
			if r >= 0 && r < rows {
				if bi == bj && r < j {
					continue // keep lower triangle only
				}
				buf[r*cols+j] = vals[k]
			}
		}
	}
}

// Kernel executes task t numerically against the object buffers supplied by
// get. Buffers are row-major dims[i]×dims[j] blocks.
func (pr *Problem) Kernel(t graph.TaskID, get func(graph.ObjID) []float64) error {
	ti := pr.info[t]
	reads, writes := pr.G.Reads(t), pr.G.Writes(t)
	switch ti.kind {
	case opPotrf:
		d := get(writes[0])
		n := pr.dims[ti.k]
		return blas.Potrf(n, d, n)
	case opScale:
		diag := get(reads[0])
		b := get(writes[0])
		m, n := pr.dims[ti.i], pr.dims[ti.k]
		blas.TrsmRightLowerT(m, n, diag, n, b, n, false)
		return nil
	case opSyrk:
		a := get(reads[0])
		c := get(writes[0])
		n, k := pr.dims[ti.i], pr.dims[ti.k]
		blas.Syrk(n, k, -1, a, k, c, n)
		return nil
	case opUpdate:
		a := get(reads[0]) // A[i,k]
		b := get(reads[1]) // A[j,k]
		c := get(writes[0])
		m, n, k := pr.dims[ti.i], pr.dims[ti.j], pr.dims[ti.k]
		blas.Gemm(true, m, n, k, -1, a, k, b, k, c, n)
		return nil
	}
	return fmt.Errorf("chol: unknown kernel for task %d", t)
}

// SequentialFactor runs the kernels in a sequential topological order and
// returns the block buffers, for use as a reference in tests.
func (pr *Problem) SequentialFactor() (map[graph.ObjID][]float64, error) {
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
			return nil, fmt.Errorf("chol: task %q: %w", pr.G.TaskName(t), err)
		}
	}
	return bufs, nil
}

// AssembleL expands block buffers into a dense lower-triangular factor.
func (pr *Problem) AssembleL(bufs map[graph.ObjID][]float64) []float64 {
	n := pr.N
	l := make([]float64, n*n)
	for o, c := range pr.coord {
		bi, bj := c[0], c[1]
		rows, cols := pr.dims[bi], pr.dims[bj]
		buf := bufs[graph.ObjID(o)]
		for r := 0; r < rows; r++ {
			for q := 0; q < cols; q++ {
				gi, gj := int(bi)*pr.W+r, int(bj)*pr.W+q
				if gj > gi {
					continue
				}
				l[gi*n+gj] = buf[r*cols+q]
			}
		}
	}
	return l
}

// Residual returns ‖A − L·Lᵀ‖_F / ‖A‖_F over the lower triangle, for the
// factor held in the block buffers: the factorization's numerical check.
func (pr *Problem) Residual(bufs map[graph.ObjID][]float64) float64 {
	a, n := pr.A, pr.N
	l := pr.AssembleL(bufs)
	rec := make([]float64, n*n)
	blas.Syrk(n, n, 1, l, n, rec, n)
	ad := a.ToDense()
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := ad[i*n+j] - rec[i*n+j]
			num += d * d
			den += ad[i*n+j] * ad[i*n+j]
		}
	}
	return math.Sqrt(num / den)
}
