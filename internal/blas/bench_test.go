package blas

import (
	"testing"

	"repro/internal/util"
)

// The shapes are the ones the factorizations call: LU's Schur update is a
// tall rows×16 panel times a 16×16 block (N·N) in which most panel rows are
// zero; block Cholesky at the served size runs 8×8 to 12×12 blocks (N·T,
// Syrk, TrsmRightLowerT); the n×n residual check is the one large product.

func reportFlops(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e6, "MFlop/s")
}

func benchGemmNN(b *testing.B, zeroRowsPct int) {
	const m, n, k = 700, 16, 16
	rng := util.NewRNG(1)
	a := randMat(rng, m, k)
	nonzero := 0
	for i := 0; i < m; i++ {
		if rng.Intn(100) < zeroRowsPct {
			clear(a[i*k : (i+1)*k])
		} else {
			nonzero++
		}
	}
	bb := randMat(rng, k, n)
	c := randMat(rng, m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, m, n, k, -1, a, k, bb, n, c, n)
	}
	reportFlops(b, 2*float64(nonzero)*n*k)
}

// BenchmarkGemmNN_LU reports MFlop/s over the nonzero rows only: the zero
// rows are work there is not.
func BenchmarkGemmNN_LU(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchGemmNN(b, 0) })
	b.Run("zero89", func(b *testing.B) { benchGemmNN(b, 89) })
}

func benchGemmNT(b *testing.B, n int) {
	rng := util.NewRNG(2)
	a := randMat(rng, n, n)
	bb := randMat(rng, n, n)
	c := randMat(rng, n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(true, n, n, n, -1, a, n, bb, n, c, n)
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
		TrsmLeftLowerUnit(n, n, l, n, x, n)
	}
	reportFlops(b, float64(n)*float64(n-1)*float64(n))
}
