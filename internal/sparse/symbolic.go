package sparse

// EliminationTree computes the elimination tree of a symmetric-pattern
// matrix using Liu's algorithm with path compression. parent[j] == -1 marks
// a root. Only the lower triangle of the pattern is consulted.
func EliminationTree(m *Matrix) []int32 {
	n := m.N
	parent := make([]int32, n)
	ancestor := make([]int32, n)
	for j := 0; j < n; j++ {
		parent[j] = -1
		ancestor[j] = -1
		for _, i := range m.Col(j) {
			// Entries above the diagonal in column j correspond to lower
			// entries A(j, i) with i < j by symmetry.
			k := int(i)
			if k >= j {
				continue
			}
			for k != -1 && k < j {
				next := ancestor[k]
				ancestor[k] = int32(j)
				if next == -1 {
					parent[k] = int32(j)
					break
				}
				k = int(next)
			}
		}
	}
	return parent
}

// BlockPattern2D computes the block-level nonzero pattern of the Cholesky
// factor for a uniform block size w: block (I, J), I >= J, is present iff
// some L(i, j) != 0 with i in block I and j in block J. It is computed
// during the row-subtree traversal that counts L's columns, without
// materializing L: the nonzeros of row i of L are the nodes on the paths
// from each k in A(i, 0..i-1) up the elimination tree towards i. The
// result maps each block column J to the sorted list of block rows
// I >= J with nonzero blocks (the diagonal block is always present).
type BlockPattern2D struct {
	N    int       // matrix order
	W    int       // block size
	NB   int       // number of block rows/columns
	Rows [][]int32 // Rows[J] = sorted block rows I >= J with L block nonzero
	// ColNnz[j] is the scalar column count of L (for flop/size accounting).
	ColNnz []int64
}

// NewBlockPattern2D runs the symbolic analysis. The pattern must be
// symmetric with a full diagonal.
func NewBlockPattern2D(m *Matrix, w int) *BlockPattern2D {
	n := m.N
	nb := (n + w - 1) / w
	parent := EliminationTree(m)
	counts := make([]int64, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	// Rows are swept in ascending order, so each block column meets its
	// block rows in ascending order too: a block row is new to a column
	// exactly when it is not the last one the column took.
	bp := &BlockPattern2D{N: n, W: w, NB: nb, Rows: make([][]int32, nb), ColNnz: counts}
	for j := range bp.Rows {
		bp.Rows[j] = []int32{int32(j)} // diagonal block always present
	}
	for i := 0; i < n; i++ {
		counts[i]++
		mark[i] = int32(i)
		bi := int32(i / w)
		for _, r := range m.Col(i) {
			k := int(r)
			if k >= i {
				continue
			}
			for k != -1 && k < i && mark[k] != int32(i) {
				counts[k]++
				mark[k] = int32(i)
				if rows := bp.Rows[k/w]; rows[len(rows)-1] != bi {
					bp.Rows[k/w] = append(rows, bi)
				}
				k = int(parent[k])
			}
		}
	}
	return bp
}

// BlockDim returns the number of scalar rows/columns in block b (the last
// block may be ragged).
func (bp *BlockPattern2D) BlockDim(b int) int {
	if b == bp.NB-1 {
		if r := bp.N - b*bp.W; r > 0 {
			return r
		}
	}
	return bp.W
}

// HasBlock reports whether block (I, J), I >= J, is present.
func (bp *BlockPattern2D) HasBlock(i, j int) bool {
	rows := bp.Rows[j]
	lo, hi := 0, len(rows)
	for lo < hi {
		mid := (lo + hi) / 2
		if rows[mid] < int32(i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(rows) && rows[lo] == int32(i)
}

// BlockPattern1D computes the column-block (panel) structure for the 1-D
// column-block LU of Fu & Yang SC'96: the static symbolic factorization
// overestimates the fill so the dependence structure is valid for every
// partial-pivoting sequence. Following George & Ng, the L and U patterns of
// P·A = L·U are bounded by the Cholesky factor pattern of AᵀA, so the
// factorization of that symmetric pattern drives the block structure: panel
// K interacts with panel J > K iff block (J, K) of the bound factor is
// nonzero (this covers Schur updates AND pure row interchanges).
type BlockPattern1D struct {
	N  int
	W  int
	NB int
	// Succ[K] = sorted panels J > K updated by panel K.
	Succ [][]int32
	// PanelNnz[K] = scalar factor nonzeros in panel K's columns of L plus
	// the mirrored U rows (2·(L column counts) − diagonal), used as the
	// panel data-object size.
	PanelNnz []int64
	// Heights[K] = scalar rows of the bound factor's nonzero blocks in block
	// column K (the diagonal block included): the structural height of panel
	// K, used for flop estimates.
	Heights []int64
}

// NewBlockPattern1D runs the static symbolic analysis for LU.
func NewBlockPattern1D(a *Matrix, w int) *BlockPattern1D {
	bp2 := NewBlockPattern2D(a.AtAPattern(), w)
	nb := bp2.NB
	succ := make([][]int32, nb)
	for k := 0; k < nb; k++ {
		rows := bp2.Rows[k]
		s := make([]int32, 0, len(rows))
		for _, r := range rows {
			if r > int32(k) {
				s = append(s, r)
			}
		}
		succ[k] = s
	}
	panelNnz := make([]int64, nb)
	heights := make([]int64, nb)
	for k := 0; k < nb; k++ {
		for _, r := range bp2.Rows[k] {
			heights[k] += int64(bp2.BlockDim(int(r)))
		}
		lo, hi := k*w, (k+1)*w
		if hi > bp2.N {
			hi = bp2.N
		}
		var s int64
		for j := lo; j < hi; j++ {
			s += 2*bp2.ColNnz[j] - 1
		}
		panelNnz[k] = s
	}
	return &BlockPattern1D{N: bp2.N, W: w, NB: nb, Succ: succ, PanelNnz: panelNnz, Heights: heights}
}

// BlockDim returns the number of scalar columns in panel b.
func (bp *BlockPattern1D) BlockDim(b int) int {
	if b == bp.NB-1 {
		if r := bp.N - b*bp.W; r > 0 {
			return r
		}
	}
	return bp.W
}
