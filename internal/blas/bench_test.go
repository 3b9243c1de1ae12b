package blas

import (
	"testing"

	"repro/internal/util"
)

// The shapes are the ones the factorizations call: LU's Schur update
// multiplies the few nonzero rows of a tall panel by the few nonzero columns
// of a 16×16 U block (GemmMasked) after a 16×16 solve; block Cholesky at the
// served size runs 8×8 to 12×12 blocks (N·T, Syrk, TrsmRightLowerT); the
// n×n residual check is the one large product.

func reportFlops(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFlop/s")
}

// BenchmarkGemmMasked_LU is one update's product at factor_lu's shape
// (n=1496, panels of 16): a 704-row panel in which about 12 % of the rows
// hold a nonzero, in runs of about two, times a 16×16 U block with four
// nonzero columns. It reports MFlop/s over the marked rows × columns only:
// the rest is work there is not.
func BenchmarkGemmMasked_LU(b *testing.B) {
	const m, n, k = 704, 16, 16
	rng := util.NewRNG(1)
	a := randMat(rng, m, k)
	rows := make([]float64, RowSetLen(m))
	marked := 0
	for i := 0; i < m; i++ {
		// A run starts at about one row in 16 and covers two rows.
		if rng.Intn(16) == 0 {
			for r := i; r < min(i+2, m); r++ {
				MarkRow(rows, r)
				marked++
			}
			i++
		}
	}
	bb := randMat(rng, k, n)
	const cols = 1<<1 | 1<<6 | 1<<7 | 1<<12
	c := randMat(rng, m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmMasked(rows, cols, k, -1, a, k, bb, n, c, n)
	}
	reportFlops(b, 2*float64(marked)*4*k)
}

func benchGemmNT(b *testing.B, n int) {
	rng := util.NewRNG(2)
	a := randMat(rng, n, n)
	bb := randMat(rng, n, n)
	c := randMat(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(n, n, n, -1, a, n, bb, n, c, n)
	}
	reportFlops(b, 2*float64(n)*float64(n)*float64(n))
}

func BenchmarkGemmNT_8(b *testing.B)   { benchGemmNT(b, 8) }
func BenchmarkGemmNT_12(b *testing.B)  { benchGemmNT(b, 12) }
func BenchmarkGemmNT_400(b *testing.B) { benchGemmNT(b, 400) }

func BenchmarkSyrk_12(b *testing.B) {
	const n = 12
	rng := util.NewRNG(3)
	a := randMat(rng, n, n)
	c := randMat(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Syrk(n, n, -1, a, n, c, n)
	}
	reportFlops(b, float64(n)*float64(n+1)*float64(n))
}

// unitLower returns an n×n lower-triangular matrix with a unit diagonal and
// small off-diagonal entries, so repeated in-place solves stay finite.
func unitLower(rng *util.RNG, n int) []float64 {
	l := randMat(rng, n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case j < i:
				l[i*n+j] /= float64(4 * n)
			case j == i:
				l[i*n+j] = 1
			default:
				l[i*n+j] = 0
			}
		}
	}
	return l
}

func BenchmarkTrsmRightLowerT_12(b *testing.B) {
	const n = 12
	rng := util.NewRNG(4)
	l := unitLower(rng, n)
	x := randMat(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrsmRightLowerT(n, n, l, n, x, n, false)
	}
	reportFlops(b, float64(n)*float64(n)*float64(n))
}

func BenchmarkTrsmLeftLowerUnit_16(b *testing.B) {
	const n = 16
	rng := util.NewRNG(5)
	l := unitLower(rng, n)
	x := randMat(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrsmLeftLowerUnit(n, 1<<n-1, l, n, x, n)
	}
	reportFlops(b, float64(n)*float64(n-1)*float64(n))
}
