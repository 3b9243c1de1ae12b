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

// gemmNN is the row-axpy product C += alpha·A·B over every row and column,
// l unrolled four deep: the summation order GemmMasked and TrsmLeftLowerUnit
// keep for each entry they touch, and their bit-for-bit reference. A row of
// A that is AllZero is skipped, as the full product LU ran before its
// updates were masked skipped it.
func gemmNN(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		ai := a[i*lda : i*lda+k]
		if AllZero(ai) {
			continue
		}
		ci := c[i*ldc : i*ldc+n]
		l := 0
		for ; l+4 <= k; l += 4 {
			v0, v1, v2, v3 := alpha*ai[l], alpha*ai[l+1], alpha*ai[l+2], alpha*ai[l+3]
			b0 := b[l*ldb:][:len(ci)]
			b1 := b[(l+1)*ldb:][:len(ci)]
			b2 := b[(l+2)*ldb:][:len(ci)]
			b3 := b[(l+3)*ldb:][:len(ci)]
			for j := range ci {
				ci[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
		for ; l < k; l++ {
			v := alpha * ai[l]
			bl := b[l*ldb:][:len(ci)]
			for j := range ci {
				ci[j] += v * bl[j]
			}
		}
	}
}

// fullTrsmLeftLowerUnit is TrsmLeftLowerUnit on every column, row i a
// one-row gemmNN against the rows already solved.
func fullTrsmLeftLowerUnit(m, n int, l []float64, ldl int, b []float64, ldb int) {
	for i := 1; i < m; i++ {
		gemmNN(1, n, i, -1, l[i*ldl:], ldl, b, ldb, b[i*ldb:], ldb)
	}
}

// randomSets draws a row set over m rows and a column mask over n ≤ 64
// columns, each row and column marked with probability 1/2, and returns
// them with a lookup of whether row i, column j is marked.
func randomSets(rng *util.RNG, m, n int) (rows []float64, cols uint64, marked func(i, j int) bool) {
	rows = make([]float64, RowSetLen(m))
	for i := 0; i < m; i++ {
		if rng.Intn(2) == 0 {
			MarkRow(rows, i)
		}
	}
	for j := 0; j < n; j++ {
		if rng.Intn(2) == 0 {
			cols |= 1 << j
		}
	}
	return rows, cols, func(i, j int) bool {
		return HasRow(rows, i) && cols>>j&1 == 1
	}
}

// maskedBits fails unless got holds want's bits on the marked entries of the
// m×n region with leading dimension ld and orig's everywhere else, padding
// included.
func maskedBits(t *testing.T, what string, got, want, orig []float64, ld int, marked func(i, j int) bool) {
	t.Helper()
	for x := range got {
		i, j := x/ld, x%ld
		ref := orig
		if marked(i, j) {
			ref = want
		}
		if math.Float64bits(got[x]) != math.Float64bits(ref[x]) {
			t.Fatalf("%s: entry (%d,%d) is %v, want %v", what, i, j, got[x], ref[x])
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

		// GemmMasked (N·N): the marked entries hold the full product's
		// bits, every other entry and the padding keep theirs.
		{
			lda, ldb, ldc := k+pad, n+pad, n+pad
			a := strided(rng, m, k, lda)
			spoil(rng, a, m, k, lda, withNaN)
			b := strided(rng, k, n, ldb)
			c := strided(rng, m, n, ldc)
			rows, cols, marked := randomSets(rng, m, n)
			got, again, full, want := slices.Clone(c), slices.Clone(c), slices.Clone(c), slices.Clone(c)
			GemmMasked(rows, cols, k, alpha, a, lda, b, ldb, got, ldc)
			GemmMasked(rows, cols, k, alpha, a, lda, b, ldb, again, ldc)
			gemmNN(m, n, k, alpha, a, lda, b, ldb, full, ldc)
			naiveGemm(false, m, n, k, alpha, a, lda, b, ldb, want, ldc)
			what := fmt.Sprintf("GemmMasked %dx%dx%d alpha=%v pad=%d", m, n, k, alpha, pad)
			sameWithin(t, what+" (reference)", full, want)
			maskedBits(t, what, got, full, c, ldc, marked)
			bitEqual(t, what, got, again)
		}

		// Gemm N·T.
		{
			lda, ldb, ldc := k+pad, k+pad, n+pad
			a := strided(rng, m, k, lda)
			spoil(rng, a, m, k, lda, withNaN)
			b := strided(rng, n, k, ldb)
			c := strided(rng, m, n, ldc)
			got, again, want := slices.Clone(c), slices.Clone(c), slices.Clone(c)
			Gemm(m, n, k, alpha, a, lda, b, ldb, got, ldc)
			Gemm(m, n, k, alpha, a, lda, b, ldb, again, ldc)
			naiveGemm(true, m, n, k, alpha, a, lda, b, ldb, want, ldc)
			what := fmt.Sprintf("Gemm %dx%dx%d alpha=%v pad=%d", m, n, k, alpha, pad)
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
			_, cols, _ := randomSets(rng, 0, n)
			got, again, full, want := slices.Clone(b), slices.Clone(b), slices.Clone(b), slices.Clone(b)
			TrsmLeftLowerUnit(m, cols, l, ldl, got, ldb)
			TrsmLeftLowerUnit(m, cols, l, ldl, again, ldb)
			fullTrsmLeftLowerUnit(m, n, l, ldl, full, ldb)
			naiveTrsmLeftLowerUnit(m, n, l, ldl, want, ldb)
			what := fmt.Sprintf("TrsmLeftLowerUnit %dx%d pad=%d", m, n, pad)
			sameWithin(t, what+" (reference)", full, want)
			maskedBits(t, what, got, full, b, ldb, func(i, j int) bool { return cols>>j&1 == 1 })
			bitEqual(t, what, got, again)
		}
	}
}

// TestGemmNaNRowPropagates pins what GemmMasked skips: a NaN row of A that
// the row set marks reaches C, a row it leaves out leaves C's bits alone
// (-0 included), and so does a column the mask leaves out, NaN in B or not.
// NonzeroCols counts NaN as nonzero and -0 as zero.
func TestGemmNaNRowPropagates(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := []float64{
		math.NaN(), 0, 0, 0, 0,
		math.NaN(), 1, 1, 1, 1,
		0, 0, 0, 0, 1,
	}
	b := make([]float64, 5*4)
	for i := range b {
		b[i] = float64(i + 1)
	}
	for l := 0; l < 5; l++ {
		b[l*4+3] = math.NaN()
	}
	b[2*4+2] = negZero
	c := []float64{1, 2, 3, negZero, negZero, negZero, negZero, negZero, 0, 0, 0, negZero}
	rows := []float64{1 + 4} // rows 0 and 2
	if cols := NonzeroCols(5, 4, b, 4); cols != 0b1111 {
		t.Fatalf("NonzeroCols = %b, want 1111", cols)
	}
	b2 := []float64{0, negZero, math.NaN(), 0, 0, 0}
	if cols := NonzeroCols(2, 3, b2, 3); cols != 0b100 {
		t.Fatalf("NonzeroCols = %b, want 100 (-0 is zero, NaN is not)", cols)
	}
	GemmMasked(rows, 0b0111, 5, 1, a, 5, b, 4, c, 4)
	for j := 0; j < 3; j++ {
		if !math.IsNaN(c[j]) {
			t.Fatalf("marked NaN row of A was skipped: c[0][%d] = %v", j, c[j])
		}
		if math.Float64bits(c[4+j]) != math.Float64bits(negZero) {
			t.Fatalf("row left out of the set was touched: c[1][%d] = %v", j, c[4+j])
		}
		if c[8+j] != b[4*4+j] {
			t.Fatalf("row with a nonzero in the k%%4 tail: c[2][%d] = %v, want %v", j, c[8+j], b[4*4+j])
		}
	}
	if math.Float64bits(c[3]) != math.Float64bits(negZero) || math.Float64bits(c[11]) != math.Float64bits(negZero) {
		t.Fatalf("column left out of the mask was touched: %v, %v", c[3], c[11])
	}
}

func TestGemmSubBlockLeadingDim(t *testing.T) {
	// Multiply sub-blocks of a larger panel to exercise lda != k.
	rng := util.NewRNG(2)
	big := randMat(rng, 8, 8)
	a := big[2*8+1:] // 3x2 sub-block at (2,1), lda 8
	b := randMat(rng, 4, 2)
	c := make([]float64, 3*4)
	Gemm(3, 4, 2, 1, a, 8, b, 2, c, 4)
	want := make([]float64, 3*4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for l := 0; l < 2; l++ {
				want[i*4+j] += big[(2+i)*8+1+l] * b[j*2+l]
			}
		}
	}
	if d := MaxAbsDiff(3, 4, c, 4, want, 4); d > 1e-13 {
		t.Fatalf("sub-block Gemm diff %v", d)
	}
	// The same block through GemmMasked, every row and column marked.
	bt := make([]float64, 2*4)
	for j := 0; j < 4; j++ {
		for l := 0; l < 2; l++ {
			bt[l*4+j] = b[j*2+l]
		}
	}
	clear(c)
	GemmMasked([]float64{7}, 0b1111, 2, 1, a, 8, bt, 4, c, 4)
	if d := MaxAbsDiff(3, 4, c, 4, want, 4); d > 1e-13 {
		t.Fatalf("sub-block GemmMasked diff %v", d)
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
	Gemm(n, n, n, 1, b, n, b, n, a, n)
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
	Gemm(n, n, n, 1, l, n, l, n, rec, n)
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
	Gemm(m, n, n, 1, x, n, l, n, rec, n)
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
	TrsmLeftLowerUnit(m, 1<<n-1, l, m, x, n)
	rec := make([]float64, m*n)
	naiveGemm(false, m, n, m, 1, l, m, x, n, rec, n)
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
