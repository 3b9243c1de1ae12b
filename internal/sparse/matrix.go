// Package sparse provides the sparse-matrix substrate for the two
// evaluation applications: compressed sparse column matrices, synthetic
// generators standing in for the Harwell-Boeing test matrices (BCSSTK15,
// BCSSTK24, BCSSTK33) and the goodwin fluid-mechanics matrix, reverse
// Cuthill-McKee ordering, elimination trees, symbolic factorization
// (Cholesky, and the static symbolic LU of Fu & Yang SC'96 via the
// symmetrized pattern), and block partitioning (2-D blocks for Cholesky,
// 1-D column blocks for LU).
package sparse

import (
	"cmp"
	"fmt"
	"slices"
)

// Matrix is a compressed sparse column (CSC) matrix. Row indices within a
// column are strictly increasing. Val may be nil for pattern-only matrices.
type Matrix struct {
	N      int
	ColPtr []int32 // len N+1
	RowIdx []int32 // len nnz
	Val    []float64
}

// Nnz returns the number of stored entries.
func (m *Matrix) Nnz() int { return len(m.RowIdx) }

// Bytes returns the size of the stored arrays.
func (m *Matrix) Bytes() int64 {
	return 4*int64(len(m.ColPtr)+len(m.RowIdx)) + 8*int64(len(m.Val))
}

// Col returns the row indices of column j.
func (m *Matrix) Col(j int) []int32 { return m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]] }

// ColVal returns the values of column j (nil for pattern-only matrices).
func (m *Matrix) ColVal(j int) []float64 {
	if m.Val == nil {
		return nil
	}
	return m.Val[m.ColPtr[j]:m.ColPtr[j+1]]
}

// coord is a matrix coordinate used during construction.
type coord struct{ r, c int32 }

// FromCoords builds a pattern matrix from a list of (row, col) coordinates,
// deduplicating and sorting. Values are not set. The coordinates are
// bucketed by column with a counting sort, then each column's rows are
// sorted and deduplicated where they lie.
func FromCoords(n int, coords []coord) *Matrix {
	colPtr := make([]int32, n+1)
	for _, cc := range coords {
		colPtr[cc.c+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int32, len(coords))
	next := slices.Clone(colPtr[:n])
	for _, cc := range coords {
		rowIdx[next[cc.c]] = cc.r
		next[cc.c]++
	}
	// Compact: column j's distinct rows move down to colPtr[j], the new
	// start, which never lies past the old one.
	kept := int32(0)
	for j := 0; j < n; j++ {
		col := rowIdx[colPtr[j]:colPtr[j+1]]
		slices.Sort(col)
		colPtr[j] = kept
		for k, r := range col {
			if k == 0 || r != col[k-1] {
				rowIdx[kept] = r
				kept++
			}
		}
	}
	colPtr[n] = kept
	return &Matrix{N: n, ColPtr: colPtr, RowIdx: rowIdx[:kept]}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		N:      m.N,
		ColPtr: append([]int32(nil), m.ColPtr...),
		RowIdx: append([]int32(nil), m.RowIdx...),
	}
	if m.Val != nil {
		c.Val = append([]float64(nil), m.Val...)
	}
	return c
}

// SymmetrizePattern returns the pattern of A + Aᵀ (no values).
func (m *Matrix) SymmetrizePattern() *Matrix {
	coords := make([]coord, 0, 2*m.Nnz())
	for j := 0; j < m.N; j++ {
		for _, i := range m.Col(j) {
			coords = append(coords, coord{i, int32(j)}, coord{int32(j), i})
		}
	}
	return FromCoords(m.N, coords)
}

// AtAPattern returns the pattern of AᵀA (with a full diagonal): the columns
// of every row of A form a clique. George & Ng showed the Cholesky factor
// pattern of AᵀA bounds the L and U patterns of P·A = L·U for ANY partial
// pivoting sequence, which is what the static symbolic factorization of the
// sparse LU application relies on.
func (m *Matrix) AtAPattern() *Matrix {
	n := m.N
	rows := m.TransposePattern() // column j of rows = row j of m
	coords := make([]coord, 0, 4*m.Nnz())
	for i := 0; i < n; i++ {
		coords = append(coords, coord{int32(i), int32(i)})
		rs := rows.Col(i) // columns with a nonzero in row i of m
		for x := 0; x < len(rs); x++ {
			for y := x + 1; y < len(rs); y++ {
				coords = append(coords, coord{rs[x], rs[y]}, coord{rs[y], rs[x]})
			}
			coords = append(coords, coord{rs[x], rs[x]})
		}
	}
	return FromCoords(n, coords)
}

// IsSymmetricPattern reports whether the nonzero pattern is symmetric.
func (m *Matrix) IsSymmetricPattern() bool {
	t := m.TransposePattern()
	if len(t.RowIdx) != len(m.RowIdx) {
		return false
	}
	for k := range m.RowIdx {
		if m.RowIdx[k] != t.RowIdx[k] {
			return false
		}
	}
	for j := range m.ColPtr {
		if m.ColPtr[j] != t.ColPtr[j] {
			return false
		}
	}
	return true
}

// TransposePattern returns the pattern of Aᵀ (no values).
func (m *Matrix) TransposePattern() *Matrix {
	n := m.N
	colPtr := make([]int32, n+1)
	for _, i := range m.RowIdx {
		colPtr[i+1]++
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	rowIdx := make([]int32, len(m.RowIdx))
	next := append([]int32(nil), colPtr[:n]...)
	for j := 0; j < n; j++ {
		for _, i := range m.Col(j) {
			rowIdx[next[i]] = int32(j)
			next[i]++
		}
	}
	return &Matrix{N: n, ColPtr: colPtr, RowIdx: rowIdx}
}

// PermuteSym returns P·A·Pᵀ for a symmetric-pattern matrix where perm[new] =
// old (i.e. perm is the new ordering listing original indices). Values, if
// present, are carried along.
func (m *Matrix) PermuteSym(perm []int32) *Matrix {
	n := m.N
	if len(perm) != n {
		panic(fmt.Sprintf("sparse: permutation length %d != n %d", len(perm), n))
	}
	inv := make([]int32, n)
	for newI, oldI := range perm {
		inv[oldI] = int32(newI)
	}
	// New column j is old column perm[j] with its rows renamed, so the
	// column pointers come from the old lengths and only each column's rows
	// need sorting.
	out := &Matrix{N: n, ColPtr: make([]int32, n+1), RowIdx: make([]int32, m.Nnz())}
	if m.Val != nil {
		out.Val = make([]float64, m.Nnz())
	}
	type entry struct {
		r int32
		v float64
	}
	var col []entry
	for j, old := range perm {
		vals := m.ColVal(int(old))
		col = col[:0]
		for k, i := range m.Col(int(old)) {
			e := entry{r: inv[i]}
			if vals != nil {
				e.v = vals[k]
			}
			col = append(col, e)
		}
		slices.SortFunc(col, func(a, b entry) int { return cmp.Compare(a.r, b.r) })
		out.ColPtr[j+1] = out.ColPtr[j] + int32(len(col))
		for k, e := range col {
			out.RowIdx[int(out.ColPtr[j])+k] = e.r
			if vals != nil {
				out.Val[int(out.ColPtr[j])+k] = e.v
			}
		}
	}
	return out
}

// ToDense expands the matrix to a dense row-major n×n array. Intended for
// small validation problems only.
func (m *Matrix) ToDense() []float64 {
	d := make([]float64, m.N*m.N)
	for j := 0; j < m.N; j++ {
		vals := m.ColVal(j)
		for k, i := range m.Col(j) {
			v := 1.0
			if vals != nil {
				v = vals[k]
			}
			d[int(i)*m.N+j] = v
		}
	}
	return d
}

// HasEntry reports whether (i, j) is a stored entry.
func (m *Matrix) HasEntry(i, j int) bool {
	col := m.Col(j)
	lo, hi := 0, len(col)
	for lo < hi {
		mid := (lo + hi) / 2
		if col[mid] < int32(i) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(col) && col[lo] == int32(i)
}
