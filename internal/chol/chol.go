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
// (I, J) of A; fill blocks stay zero. Used by executors to initialize
// permanent objects on their owners. buf arrives zeroed (exec.InitFunc), and
// only the block's own entries of each column are visited: row indices are
// strictly increasing, so a binary search finds the first row of the block
// (of its lower triangle, on a diagonal block) and the walk stops past its
// last.
func (pr *Problem) InitObject(o graph.ObjID, buf []float64) {
	if pr.A == nil || pr.A.Val == nil {
		return
	}
	bi, bj := pr.coord[o][0], pr.coord[o][1]
	w := pr.W
	r0, c0 := int(bi)*w, int(bj)*w
	rows, cols := pr.dims[bi], pr.dims[bj]
	end := int32(r0 + rows)
	for j := 0; j < cols; j++ {
		col := pr.A.Col(c0 + j)
		vals := pr.A.ColVal(c0 + j)
		first := r0
		if bi == bj {
			first += j // keep lower triangle only
		}
		k, _ := slices.BinarySearch(col, int32(first))
		for ; k < len(col) && col[k] < end; k++ {
			buf[(int(col[k])-r0)*cols+j] = vals[k]
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
		blas.Gemm(m, n, k, -1, a, k, b, k, c, n)
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

// Residual returns ‖A − L·Lᵀ‖_F / ‖A‖_F over the lower triangle, for the
// factor held in the block buffers: the factorization's numerical check.
//
// It works one block row at a time over present blocks only: block (I,J)
// of L·Lᵀ sums over the block columns K where blocks (I,K) and (J,K) are
// both present, which the closed pattern in Rows names. So it holds one
// block row of A, never an n×n array. The arithmetic is the dense
// product's (blas.Syrk of the assembled L) term for term: each entry sums
// over l ascending; a diagonal block of L contributes only l ≤ j (the
// factor is zero above its diagonal, whatever the block's upper triangle
// holds); num and den accumulate row-major over j ≤ i. Every term this skips is an exact zero added to a sum that is
// never −0, so for a finite factor the result is bit-identical to the
// dense one.
func (pr *Problem) Residual(bufs map[graph.ObjID][]float64) float64 {
	// present is a block of block row I: its block column and object.
	type present struct {
		col int
		obj graph.ObjID
	}
	// term is one block column K of the sum for block (I, J): row blocks
	// (I, K) and (J, K) of L, and whether K is J, whose diagonal block
	// contributes only its lower triangle.
	type term struct {
		li, lj []float64
		dk     int
		diag   bool
	}
	var (
		row   []present // block row I's present blocks, J ascending
		terms []term
		until []int // block row[x]'s terms end at terms[until[x]]
		num   float64
		den   float64
	)
	a, w := pr.A, pr.W
	strip := make([]float64, w*pr.N)
	for bi := 0; bi < pr.NB; bi++ {
		row, terms, until = row[:0], terms[:0], until[:0]
		for bj := 0; bj <= bi; bj++ {
			if o, ok := pr.BlockObj(bi, bj); ok {
				row = append(row, present{bj, o})
			}
		}
		di, r0 := pr.dims[bi], bi*w
		width := 0
		for _, b := range row {
			width += pr.dims[b.col]
		}
		// A's block row: the present blocks side by side, holding what
		// ToDense would.
		av := strip[:di*width]
		clear(av)
		off := 0
		for _, b := range row {
			dj := pr.dims[b.col]
			for q := 0; q < dj; q++ {
				col, vals := a.Col(b.col*w+q), a.ColVal(b.col*w+q)
				k, _ := slices.BinarySearch(col, int32(r0))
				for ; k < len(col) && int(col[k]) < r0+di; k++ {
					v := 1.0
					if vals != nil {
						v = vals[k]
					}
					av[(int(col[k])-r0)*width+off+q] = v
				}
			}
			off += dj
			for _, bk := range row {
				if bk.col > b.col {
					break
				}
				if jk, ok := pr.BlockObj(b.col, bk.col); ok {
					terms = append(terms, term{bufs[bk.obj], bufs[jk], pr.dims[bk.col], bk.col == b.col})
				}
			}
			until = append(until, len(terms))
		}

		for r := 0; r < di; r++ {
			off, from := 0, 0
			for x, b := range row {
				dj := pr.dims[b.col]
				cols := dj
				if b.col == bi {
					cols = r + 1 // j ≤ i
				}
				for q := 0; q < cols; q++ {
					sum := 0.0
					for _, t := range terms[from:until[x]] {
						n := t.dk
						if t.diag {
							n = q + 1
						}
						li, lj := t.li[r*t.dk:][:n], t.lj[q*t.dk:][:n]
						for p, v := range li {
							sum += v * lj[p]
						}
					}
					aij := av[r*width+off+q]
					d := aij - sum
					num += d * d
					den += aij * aij
				}
				off += dj
				from = until[x]
			}
		}
	}
	return math.Sqrt(num / den)
}
