// Package blas provides the small set of dense linear-algebra kernels the
// block sparse factorizations execute inside their tasks: matrix multiply,
// symmetric rank-k update, triangular solve, Cholesky and LU (with partial
// pivoting) factorization of dense panels. Matrices are stored row-major in
// flat float64 slices with an explicit leading dimension, so sub-blocks of
// larger panels can be addressed without copying.
//
// The kernels are pure Go, one implementation each. The paper's tables still
// take their times from the cost model in internal/machine (which stands in
// for the evaluation machine's vendor BLAS), but the repository benchmark's
// factor_* rows are wall-clock of these loops, so the hot ones are
// register-tiled. LU's shapes are row-axpy: GemmMasked, its Schur update,
// multiplies only the rows a row set marks by only the columns a mask marks,
// in one call per update (at n=1496 a panel holds a nonzero in 11–12 % of
// its rows, and a quarter of the flops on those rows fall on nonzero
// columns of the U block), and it and
// TrsmLeftLowerUnit take four rows of the right operand per pass over the
// destination row. Cholesky's shapes are dot products (Gemm, which is N·T,
// Syrk, TrsmRightLowerT) in 2×2 (or 2×1) tiles whose dot products share
// their loads. Tails fall through to the plain loop, so a block smaller than
// a tile pays a few compares and nothing else. Every kernel is a pure
// function of its inputs with one fixed summation order.
package blas

import (
	"errors"
	"math"
	"math/bits"
)

// ErrNotPD is returned by Potrf when the matrix is not positive definite.
var ErrNotPD = errors.New("blas: matrix not positive definite")

// ErrSingular is returned by Getrf when no usable pivot exists.
var ErrSingular = errors.New("blas: matrix is singular to working precision")

// Gemm computes C = C + alpha * A * Bᵀ for row-major matrices: A is m×k, B
// is n×k, C is m×n, with leading dimensions lda, ldb, ldc. It is the one
// dense product of block Cholesky; LU's Schur update is GemmMasked.
func Gemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if alpha == 0 || m == 0 || n == 0 || k == 0 {
		return
	}
	gemmNT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// AllZero reports whether every entry of x == 0: -0 counts as zero, NaN does
// not. It is the one definition of a row, or a column, that a product may
// skip.
func AllZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// rowsPerWord is how many rows one word of a row set covers. A row set is a
// []float64 whose word t holds, as an integer below 2³², bit b for row
// rowsPerWord·t+b: a float64 carries such an integer exactly, so the set
// travels inside a float64 panel buffer like any other entry. MarkRow
// writes it, GemmMasked and HasRow read it, and nothing else knows it.
const rowsPerWord = 32

// RowSetLen returns the length of a row set over m rows.
func RowSetLen(m int) int { return (m + rowsPerWord - 1) / rowsPerWord }

// MarkRow adds row i to the row set rows.
func MarkRow(rows []float64, i int) {
	t := i / rowsPerWord
	rows[t] = float64(uint64(rows[t]) | 1<<(i%rowsPerWord))
}

// HasRow reports whether the row set rows holds row i.
func HasRow(rows []float64, i int) bool {
	return uint64(rows[i/rowsPerWord])>>(i%rowsPerWord)&1 == 1
}

// NonzeroCols returns the columns of the m×n block b (n ≤ 64) in which some
// entry is not AllZero's zero, as a mask: bit j for column j.
func NonzeroCols(m, n int, b []float64, ldb int) uint64 {
	var cols uint64
	for i := 0; i < m; i++ {
		for j, v := range b[i*ldb:][:n] {
			if v != 0 {
				cols |= 1 << j
			}
		}
	}
	return cols
}

// GemmMasked computes C_ij += alpha·Σ_l a_il·b_lj, l < k, for the rows i
// that the row set rows marks and the columns j that cols marks (bit j for
// column j, so at most 64 columns), on row-major A, B and C with leading
// dimensions lda, ldb, ldc. No other entry of C is read or written.
// It is the N·N shape of LU's Schur update, one call per update: the panel's
// row index names its nonzero rows and the U block's NonzeroCols its
// nonzero columns.
//
// Each entry is summed as the plain row-axpy product sums it: l in groups
// of four, c += v0·b0 + v1·b1 + v2·b2 + v3·b3 with v = alpha·a_il, then
// the tail one l at a time. So a masked entry holds the bits a full product
// gives it, and leaving out a zero row or column adds nothing but ±0 terms.
func GemmMasked(rows []float64, cols uint64, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if alpha == 0 || cols == 0 || k == 0 {
		return
	}
	var idx [64]uint8
	js, width := colIndex(&idx, cols)
	for t, word := range rows {
		for m := uint64(word); m != 0; m &= m - 1 {
			i := t*rowsPerWord + bits.TrailingZeros64(m)
			axpyCols(c[i*ldc:][:width], a[i*lda:][:k], alpha, b, ldb, js)
		}
	}
}

// colIndex lists the columns cols marks, ascending, in idx, and returns the
// list and the width of the narrowest row that holds them.
func colIndex(idx *[64]uint8, cols uint64) (js []uint8, width int) {
	n := 0
	for m := cols; m != 0; m &= m - 1 {
		idx[n] = uint8(bits.TrailingZeros64(m))
		n++
	}
	return idx[:n], bits.Len64(cols)
}

// axpyCols adds alpha·Σ_l ai[l]·B_l to ci on the columns js lists, l
// unrolled four deep, so each pass over the row retires eight flops per load
// and store of ci[j]. The b rows are re-sliced to len(ci), which every
// listed column is below.
func axpyCols(ci, ai []float64, alpha float64, b []float64, ldb int, js []uint8) {
	k := len(ai)
	l := 0
	for ; l+4 <= k; l += 4 {
		v0, v1, v2, v3 := alpha*ai[l], alpha*ai[l+1], alpha*ai[l+2], alpha*ai[l+3]
		b0 := b[l*ldb:][:len(ci)]
		b1 := b[(l+1)*ldb:][:len(ci)]
		b2 := b[(l+2)*ldb:][:len(ci)]
		b3 := b[(l+3)*ldb:][:len(ci)]
		for _, j := range js {
			ci[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
		}
	}
	for ; l < k; l++ {
		v := alpha * ai[l]
		bl := b[l*ldb:][:len(ci)]
		for _, j := range js {
			ci[j] += v * bl[j]
		}
	}
}

// gemmNT is the dot-product shape c_ij += alpha·(A_i · B_j) in 2×2 tiles:
// four dot products share two loads of A and two of B per step. Every dot
// product is still summed l = 0..k-1, so each c_ij is the value the plain
// triple loop gives.
func gemmNT(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a[i*lda:][:k]
		a1 := a[(i+1)*lda:][:k]
		c0 := c[i*ldc:][:n]
		c1 := c[(i+1)*ldc:][:n]
		j := 0
		for ; j+2 <= n; j += 2 {
			b0 := b[j*ldb:][:k]
			b1 := b[(j+1)*ldb:][:k]
			var s00, s01, s10, s11 float64
			for l, x0 := range a0 {
				x1, y0, y1 := a1[l], b0[l], b1[l]
				s00 += x0 * y0
				s01 += x0 * y1
				s10 += x1 * y0
				s11 += x1 * y1
			}
			c0[j] += alpha * s00
			c0[j+1] += alpha * s01
			c1[j] += alpha * s10
			c1[j+1] += alpha * s11
		}
		if j < n {
			bj := b[j*ldb:][:k]
			var s0, s1 float64
			for l, y := range bj {
				s0 += a0[l] * y
				s1 += a1[l] * y
			}
			c0[j] += alpha * s0
			c1[j] += alpha * s1
		}
	}
	if i < m {
		ai := a[i*lda:][:k]
		ci := c[i*ldc:][:n]
		for j := range ci {
			bj := b[j*ldb:][:k]
			s := 0.0
			for l, x := range ai {
				s += x * bj[l]
			}
			ci[j] += alpha * s
		}
	}
}

// Syrk computes the lower triangle of C = C + alpha * A * Aᵀ where A is n×k
// row-major with leading dimension lda and C is n×n with leading dimension
// ldc. Only the lower triangle of C is referenced and updated. Two rows of C
// at a time: left of the diagonal they are whole 2×2 tiles of gemmNT, and the
// tile on the diagonal computes three of its four entries.
func Syrk(n, k int, alpha float64, a []float64, lda int, c []float64, ldc int) {
	i := 0
	for ; i+2 <= n; i += 2 {
		gemmNT(2, i, k, alpha, a[i*lda:], lda, a, lda, c[i*ldc:], ldc)
		a0 := a[i*lda:][:k]
		a1 := a[(i+1)*lda:][:k]
		var s00, s10, s11 float64
		for l, x0 := range a0 {
			x1 := a1[l]
			s00 += x0 * x0
			s10 += x1 * x0
			s11 += x1 * x1
		}
		c[i*ldc+i] += alpha * s00
		c[(i+1)*ldc+i] += alpha * s10
		c[(i+1)*ldc+i+1] += alpha * s11
	}
	if i < n {
		gemmNT(1, i+1, k, alpha, a[i*lda:], lda, a, lda, c[i*ldc:], ldc)
	}
}

// TrsmRightLowerT solves X * Lᵀ = B in place for X, where L is an n×n lower
// triangular matrix with unit or non-unit diagonal and B is m×n row-major.
// This is the "scale a subdiagonal block by the Cholesky factor" kernel:
// A_ik ← A_ik · L_kkᵀ⁻¹. Rows of B are independent; two are solved at a time
// so each row of L is loaded once for both.
func TrsmRightLowerT(m, n int, l []float64, ldl int, b []float64, ldb int, unitDiag bool) {
	i := 0
	for ; i+2 <= m; i += 2 {
		b0 := b[i*ldb:][:n]
		b1 := b[(i+1)*ldb:][:n]
		for j := range b0 {
			lj := l[j*ldl:][:j+1]
			s0, s1 := b0[j], b1[j]
			for p, v := range lj[:j] {
				s0 -= b0[p] * v
				s1 -= b1[p] * v
			}
			if !unitDiag {
				s0 /= lj[j]
				s1 /= lj[j]
			}
			b0[j], b1[j] = s0, s1
		}
	}
	if i < m {
		bi := b[i*ldb:][:n]
		for j := range bi {
			lj := l[j*ldl:][:j+1]
			s := bi[j]
			for p, v := range lj[:j] {
				s -= bi[p] * v
			}
			if !unitDiag {
				s /= lj[j]
			}
			bi[j] = s
		}
	}
}

// TrsmLeftLowerUnit solves L * X = B in place for X on the columns of B
// that cols marks (bit j for column j, so at most 64 columns), where L is
// m×m lower triangular with implicit unit diagonal and B is m×· row-major.
// This is the "compute a U block from a factored panel" kernel of LU. Row i
// of X is B_i − Σ_{p<i} l_ip·X_p, summed as GemmMasked sums; a row of L
// whose entries left of the diagonal are AllZero changes nothing. Columns
// are independent, so an unmarked column is left as it is: a solve leaves a
// zero column zero.
func TrsmLeftLowerUnit(m int, cols uint64, l []float64, ldl int, b []float64, ldb int) {
	if cols == 0 {
		return
	}
	var idx [64]uint8
	js, width := colIndex(&idx, cols)
	for i := 1; i < m; i++ {
		li := l[i*ldl:][:i]
		if AllZero(li) {
			continue
		}
		axpyCols(b[i*ldb:][:width], li, -1, b, ldb, js)
	}
}

// Potrf computes the Cholesky factorization A = L·Lᵀ of an n×n symmetric
// positive definite matrix in place, storing L in the lower triangle. The
// strict upper triangle is not referenced.
func Potrf(n int, a []float64, lda int) error {
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		aj := a[j*lda : j*lda+j]
		for _, v := range aj {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return ErrNotPD
		}
		d = math.Sqrt(d)
		a[j*lda+j] = d
		for i := j + 1; i < n; i++ {
			s := a[i*lda+j]
			ai := a[i*lda : i*lda+j]
			for p, v := range aj {
				s -= ai[p] * v
			}
			a[i*lda+j] = s / d
		}
	}
	return nil
}

// Getrf computes an LU factorization with partial pivoting of an m×n panel
// (m >= n) in place: P·A = L·U with unit lower-triangular L stored below the
// diagonal and U on and above it. piv[j] records the row swapped into
// position j at step j (LAPACK-style ipiv, 0-based). Rows are swapped across
// the full panel width n. The pivots are float64 so that a caller can keep
// them in the panel's own buffer, where they travel with the panel.
func Getrf(m, n int, a []float64, lda int, piv []float64) error {
	if len(piv) < n {
		panic("blas: pivot slice too short")
	}
	for j := 0; j < n; j++ {
		// Find pivot.
		p := j
		pv := math.Abs(a[j*lda+j])
		for i := j + 1; i < m; i++ {
			if v := math.Abs(a[i*lda+j]); v > pv {
				pv, p = v, i
			}
		}
		if pv == 0 {
			return ErrSingular
		}
		piv[j] = float64(p)
		if p != j {
			rj := a[j*lda : j*lda+n]
			rp := a[p*lda : p*lda+n]
			for q := range rj {
				rj[q], rp[q] = rp[q], rj[q]
			}
		}
		d := a[j*lda+j]
		for i := j + 1; i < m; i++ {
			l := a[i*lda+j] / d
			a[i*lda+j] = l
			if l == 0 {
				continue
			}
			ri := a[i*lda+j+1 : i*lda+n]
			rj := a[j*lda+j+1 : j*lda+n]
			for q, v := range rj {
				ri[q] -= l * v
			}
		}
	}
	return nil
}

// Laswp applies the row interchanges recorded by Getrf to an m×n matrix:
// for j = 0..len(piv)-1, rows j and piv[j] are swapped.
func Laswp(n int, a []float64, lda int, piv []float64) {
	for j, pf := range piv {
		p := int(pf)
		if p == j {
			continue
		}
		rj := a[j*lda : j*lda+n]
		rp := a[p*lda : p*lda+n]
		for q := range rj {
			rj[q], rp[q] = rp[q], rj[q]
		}
	}
}

// TrsvLower solves L·x = b in place for x (x holds b on entry), where L is
// an n×n non-unit lower triangular matrix.
func TrsvLower(n int, l []float64, ldl int, x []float64) {
	for i := 0; i < n; i++ {
		s := x[i]
		li := l[i*ldl : i*ldl+i]
		for p, v := range li {
			s -= v * x[p]
		}
		x[i] = s / l[i*ldl+i]
	}
}

// TrsvLowerT solves Lᵀ·x = b in place for x, where L is an n×n non-unit
// lower triangular matrix (so Lᵀ is upper triangular).
func TrsvLowerT(n int, l []float64, ldl int, x []float64) {
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for p := i + 1; p < n; p++ {
			s -= l[p*ldl+i] * x[p]
		}
		x[i] = s / l[i*ldl+i]
	}
}

// GemvSub computes y = y - A·x for a row-major m×n matrix A.
func GemvSub(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+n]
		s := 0.0
		for j, v := range ai {
			s += v * x[j]
		}
		y[i] -= s
	}
}

// GemvTSub computes y = y - Aᵀ·x for a row-major m×n matrix A (so y has n
// entries and x has m).
func GemvTSub(m, n int, a []float64, lda int, x, y []float64) {
	for i := 0; i < m; i++ {
		v := x[i]
		if v == 0 {
			continue
		}
		ai := a[i*lda : i*lda+n]
		for j, av := range ai {
			y[j] -= av * v
		}
	}
}

// FrobNorm returns the Frobenius norm of an m×n row-major matrix.
func FrobNorm(m, n int, a []float64, lda int) float64 {
	s := 0.0
	for i := 0; i < m; i++ {
		for _, v := range a[i*lda : i*lda+n] {
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// MaxAbsDiff returns max |a_ij - b_ij| over an m×n region.
func MaxAbsDiff(m, n int, a []float64, lda int, b []float64, ldb int) float64 {
	d := 0.0
	for i := 0; i < m; i++ {
		ra := a[i*lda : i*lda+n]
		rb := b[i*ldb : i*ldb+n]
		for j := range ra {
			if v := math.Abs(ra[j] - rb[j]); v > d {
				d = v
			}
		}
	}
	return d
}
