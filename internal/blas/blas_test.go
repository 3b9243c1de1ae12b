package blas

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/util"
)

func randMat(rng *util.RNG, m, n int) []float64 {
	a := make([]float64, m*n)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	return a
}

// The naive* functions are the plain loops the tiled kernels replaced. They
// are the reference of the differential tests below and the "before" side of
// nothing else: non-test code has one implementation per kernel.

func naiveGemm(transB bool, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				if transB {
					s += a[i*lda+l] * b[j*ldb+l]
				} else {
					s += a[i*lda+l] * b[l*ldb+j]
				}
			}
			c[i*ldc+j] += alpha * s
		}
	}
}

func naiveSyrk(n, k int, alpha float64, a []float64, lda int, c []float64, ldc int) {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := 0.0
			for l := 0; l < k; l++ {
				s += a[i*lda+l] * a[j*lda+l]
			}
			c[i*ldc+j] += alpha * s
		}
	}
}

func naiveTrsmRightLowerT(m, n int, l []float64, ldl int, b []float64, ldb int, unitDiag bool) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := b[i*ldb+j]
			for p := 0; p < j; p++ {
				s -= b[i*ldb+p] * l[j*ldl+p]
			}
			if !unitDiag {
				s /= l[j*ldl+j]
			}
			b[i*ldb+j] = s
		}
	}
}

func naiveTrsmLeftLowerUnit(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for i := 0; i < m; i++ {
		for p := 0; p < i; p++ {
			for j := 0; j < n; j++ {
				b[i*ldb+j] -= l[i*ldl+p] * b[p*ldb+j]
			}
		}
	}
}

// strided returns a rows×cols matrix of normal deviates with leading
// dimension ld >= cols; the padding holds a sentinel no kernel may touch.
const sentinel = 7777.5

func strided(rng *util.RNG, rows, cols, ld int) []float64 {
	a := make([]float64, rows*ld)
	for i := range a {
		a[i] = sentinel
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			a[i*ld+j] = rng.NormFloat64()
		}
	}
	return a
}

// spoil overwrites whole rows of a: about one in three becomes all +0, one
// in ten all -0, and (when withNaN) one row all NaN, so the zero-row skip and
// every tail see them.
func spoil(rng *util.RNG, a []float64, rows, cols, ld int, withNaN bool) {
	negZero := math.Copysign(0, -1)
	for i := 0; i < rows; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			for j := 0; j < cols; j++ {
				a[i*ld+j] = 0
			}
		case r == 3:
			for j := 0; j < cols; j++ {
				a[i*ld+j] = negZero
			}
		}
	}
	if withNaN {
		i := rng.Intn(rows)
		for j := 0; j < cols; j++ {
			a[i*ld+j] = math.NaN()
		}
	}
}

// sameWithin fails unless got and want agree entry by entry to 1e-12
// relative (NaN must meet NaN), padding included.
func sameWithin(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.IsNaN(w) != math.IsNaN(g) {
			t.Fatalf("%s: entry %d is %v, reference %v", what, i, g, w)
		}
		if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
			t.Fatalf("%s: entry %d is %v, reference %v", what, i, g, w)
		}
	}
}

// bitEqual fails unless a and b hold the same bits.
func bitEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: entry %d differs between two runs on the same input: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// TestKernelsAgainstNaive runs every tiled kernel against its naive loop
// over random shapes in [1,33] (every combination of tile tails), padded
// leading dimensions, four alphas, zero, -0 and NaN rows; and runs it twice
// to check the result is a pure function of the input.
func TestKernelsAgainstNaive(t *testing.T) {
	rng := util.NewRNG(20260928)
	alphas := []float64{0, 1, -1, 0.5}
	for trial := 0; trial < 600; trial++ {
		m, n, k := 1+rng.Intn(33), 1+rng.Intn(33), 1+rng.Intn(33)
		pad := rng.Intn(4)
		alpha := alphas[trial%len(alphas)]
		// alpha == 0 makes Gemm a no-op (the BLAS convention), NaN or not.
		withNaN := trial%5 == 0 && alpha != 0

		// Gemm N·N and N·T.
		for _, transB := range []bool{false, true} {
			lda, ldc := k+pad, n+pad
			a := strided(rng, m, k, lda)
			spoil(rng, a, m, k, lda, withNaN)
			var b []float64
			ldb := n + pad
			if transB {
				ldb = k + pad
				b = strided(rng, n, k, ldb)
			} else {
				b = strided(rng, k, n, ldb)
			}
			c := strided(rng, m, n, ldc)
			got, again, want := slices.Clone(c), slices.Clone(c), slices.Clone(c)
			Gemm(transB, m, n, k, alpha, a, lda, b, ldb, got, ldc)
			Gemm(transB, m, n, k, alpha, a, lda, b, ldb, again, ldc)
			naiveGemm(transB, m, n, k, alpha, a, lda, b, ldb, want, ldc)
			what := fmt.Sprintf("Gemm(transB=%v) %dx%dx%d alpha=%v pad=%d", transB, m, n, k, alpha, pad)
			sameWithin(t, what, got, want)
			bitEqual(t, what, got, again)
		}

		// Syrk: the strict upper triangle of C is padding too.
		{
			lda, ldc := k+pad, n+pad
			a := strided(rng, n, k, lda)
			spoil(rng, a, n, k, lda, withNaN)
			c := strided(rng, n, n, ldc)
			got, again, want := slices.Clone(c), slices.Clone(c), slices.Clone(c)
			Syrk(n, k, alpha, a, lda, got, ldc)
			Syrk(n, k, alpha, a, lda, again, ldc)
			naiveSyrk(n, k, alpha, a, lda, want, ldc)
			what := fmt.Sprintf("Syrk %dx%d alpha=%v pad=%d", n, k, alpha, pad)
			sameWithin(t, what, got, want)
			bitEqual(t, what, got, again)
		}

		// Triangular solves: a well-conditioned L, zero and NaN rows in B.
		{
			ldl, ldb := n+pad, n+pad
			l := strided(rng, n, n, ldl)
			for i := 0; i < n; i++ {
				l[i*ldl+i] = 2 + math.Abs(l[i*ldl+i])
				for j := 0; j < i; j++ {
					l[i*ldl+j] /= float64(n)
				}
			}
			b := strided(rng, m, n, ldb)
			spoil(rng, b, m, n, ldb, withNaN)
			unit := trial%2 == 0
			got, again, want := slices.Clone(b), slices.Clone(b), slices.Clone(b)
			TrsmRightLowerT(m, n, l, ldl, got, ldb, unit)
			TrsmRightLowerT(m, n, l, ldl, again, ldb, unit)
			naiveTrsmRightLowerT(m, n, l, ldl, want, ldb, unit)
			what := fmt.Sprintf("TrsmRightLowerT %dx%d unit=%v pad=%d", m, n, unit, pad)
			sameWithin(t, what, got, want)
			bitEqual(t, what, got, again)
		}
		{
			ldl, ldb := m+pad, n+pad
			l := strided(rng, m, m, ldl)
			for i := 0; i < m; i++ {
				for j := 0; j < i; j++ {
					l[i*ldl+j] /= float64(m)
				}
			}
			b := strided(rng, m, n, ldb)
			spoil(rng, b, m, n, ldb, withNaN)
			got, again, want := slices.Clone(b), slices.Clone(b), slices.Clone(b)
			TrsmLeftLowerUnit(m, n, l, ldl, got, ldb)
			TrsmLeftLowerUnit(m, n, l, ldl, again, ldb)
			naiveTrsmLeftLowerUnit(m, n, l, ldl, want, ldb)
			what := fmt.Sprintf("TrsmLeftLowerUnit %dx%d pad=%d", m, n, pad)
			sameWithin(t, what, got, want)
			bitEqual(t, what, got, again)
		}
	}
}

// TestGemmNaNRowPropagates pins the zero-row skip's definition: a row of A
// is skipped iff every entry == 0, so a NaN row reaches C and a -0 row
// leaves C's bits alone.
func TestGemmNaNRowPropagates(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := []float64{
		math.NaN(), 0, 0, 0, 0,
		negZero, negZero, negZero, negZero, negZero,
		0, 0, 0, 0, 1,
	}
	b := make([]float64, 5*3)
	for i := range b {
		b[i] = float64(i + 1)
	}
	c := []float64{1, 2, 3, negZero, negZero, negZero, 0, 0, 0}
	Gemm(false, 3, 3, 5, 1, a, 5, b, 3, c, 3)
	for j := 0; j < 3; j++ {
		if !math.IsNaN(c[j]) {
			t.Fatalf("NaN row of A was skipped: c[0][%d] = %v", j, c[j])
		}
		if math.Float64bits(c[3+j]) != math.Float64bits(negZero) {
			t.Fatalf("-0 row of A was not skipped: c[1][%d] = %v", j, c[3+j])
		}
		if c[6+j] != b[4*3+j] {
			t.Fatalf("row with a nonzero in the k%%4 tail: c[2][%d] = %v, want %v", j, c[6+j], b[4*3+j])
		}
	}
}

func TestGemmSubBlockLeadingDim(t *testing.T) {
	// Multiply sub-blocks of a larger panel to exercise lda != n.
	rng := util.NewRNG(2)
	big := randMat(rng, 8, 8)
	a := big[2*8+1:] // 3x2 sub-block at (2,1), lda 8
	b := randMat(rng, 2, 4)
	c := make([]float64, 3*4)
	Gemm(false, 3, 4, 2, 1, a, 8, b, 4, c, 4)
	want := make([]float64, 3*4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 2; l++ {
				want[i*4+j] += big[(2+i)*8+1+l] * b[l*4+j]
			}
		}
	}
	if d := MaxAbsDiff(3, 4, c, 4, want, 4); d > 1e-13 {
		t.Fatalf("sub-block Gemm diff %v", d)
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	rng := util.NewRNG(3)
	n, k := 6, 4
	a := randMat(rng, n, k)
	c1 := make([]float64, n*n)
	c2 := make([]float64, n*n)
	Syrk(n, k, -1, a, k, c1, n)
	naiveGemm(true, n, n, k, -1, a, k, a, k, c2, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(c1[i*n+j]-c2[i*n+j]) > 1e-12 {
				t.Fatalf("Syrk mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func spdMatrix(rng *util.RNG, n int) []float64 {
	b := randMat(rng, n, n)
	a := make([]float64, n*n)
	Gemm(true, n, n, n, 1, b, n, b, n, a, n)
	for i := 0; i < n; i++ {
		a[i*n+i] += float64(n)
	}
	return a
}

func TestPotrfReconstructs(t *testing.T) {
	rng := util.NewRNG(4)
	n := 12
	a := spdMatrix(rng, n)
	l := append([]float64(nil), a...)
	if err := Potrf(n, l, n); err != nil {
		t.Fatal(err)
	}
	// Zero the strict upper triangle of L, then compute L·Lᵀ.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	rec := make([]float64, n*n)
	Gemm(true, n, n, n, 1, l, n, l, n, rec, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(rec[i*n+j]-a[i*n+j]) > 1e-9 {
				t.Fatalf("LLᵀ != A at (%d,%d): %v vs %v", i, j, rec[i*n+j], a[i*n+j])
			}
		}
	}
}

func TestPotrfNotPD(t *testing.T) {
	a := []float64{1, 2, 2, 1} // indefinite
	if err := Potrf(2, a, 2); err != ErrNotPD {
		t.Fatalf("want ErrNotPD, got %v", err)
	}
}

func TestGetrfReconstructs(t *testing.T) {
	rng := util.NewRNG(5)
	m, n := 9, 6
	a := randMat(rng, m, n)
	f := append([]float64(nil), a...)
	piv := make([]float64, n)
	if err := Getrf(m, n, f, n, piv); err != nil {
		t.Fatal(err)
	}
	// Reconstruct L·U and compare with P·A.
	pa := append([]float64(nil), a...)
	Laswp(n, pa, n, piv)
	lu := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			kmax := j
			if i < kmax {
				kmax = i
			}
			for k := 0; k < kmax; k++ {
				s += f[i*n+k] * f[k*n+j]
			}
			if i <= j {
				s += f[i*n+j] // diagonal of L is 1
			} else {
				s += f[i*n+j] * f[j*n+j]
			}
			lu[i*n+j] = s
		}
	}
	if d := MaxAbsDiff(m, n, lu, n, pa, n); d > 1e-10 {
		t.Fatalf("LU != PA, diff %v", d)
	}
}

func TestGetrfPivotsAreUsed(t *testing.T) {
	// First pivot is tiny; partial pivoting must select row 1.
	a := []float64{1e-20, 1, 1, 1}
	piv := make([]float64, 2)
	if err := Getrf(2, 2, a, 2, piv); err != nil {
		t.Fatal(err)
	}
	if piv[0] != 1 {
		t.Fatalf("pivot not selected: %v", piv)
	}
}

func TestGetrfSingular(t *testing.T) {
	a := []float64{0, 0, 0, 0}
	piv := make([]float64, 2)
	if err := Getrf(2, 2, a, 2, piv); err != ErrSingular {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestTrsmRightLowerT(t *testing.T) {
	rng := util.NewRNG(6)
	m, n := 5, 4
	l := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		l[i*n+i] = 2 + math.Abs(l[i*n+i])
		for j := i + 1; j < n; j++ {
			l[i*n+j] = 0
		}
	}
	b := randMat(rng, m, n)
	x := append([]float64(nil), b...)
	TrsmRightLowerT(m, n, l, n, x, n, false)
	// Check X·Lᵀ == B.
	rec := make([]float64, m*n)
	Gemm(true, m, n, n, 1, x, n, l, n, rec, n)
	if d := MaxAbsDiff(m, n, rec, n, b, n); d > 1e-10 {
		t.Fatalf("X·Lᵀ != B, diff %v", d)
	}
}

func TestTrsmLeftLowerUnit(t *testing.T) {
	rng := util.NewRNG(7)
	m, n := 4, 6
	l := randMat(rng, m, m)
	for i := 0; i < m; i++ {
		l[i*m+i] = 1
		for j := i + 1; j < m; j++ {
			l[i*m+j] = 0
		}
	}
	b := randMat(rng, m, n)
	x := append([]float64(nil), b...)
	TrsmLeftLowerUnit(m, n, l, m, x, n)
	rec := make([]float64, m*n)
	Gemm(false, m, n, m, 1, l, m, x, n, rec, n)
	if d := MaxAbsDiff(m, n, rec, n, b, n); d > 1e-10 {
		t.Fatalf("L·X != B, diff %v", d)
	}
}

func TestFrobNorm(t *testing.T) {
	a := []float64{3, 4, 0, 0}
	if v := FrobNorm(2, 2, a, 2); math.Abs(v-5) > 1e-15 {
		t.Fatalf("FrobNorm = %v, want 5", v)
	}
}
