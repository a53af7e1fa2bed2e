package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"gsfl/internal/parallel"
)

// Micro-benchmarks for the numerical kernels the NN framework spends its
// time in. These guide optimization of the simulation's wall-clock cost
// (they do not correspond to paper figures).

// benchWorkers are the pool widths the serial-vs-parallel benchmarks
// sweep; workers=1 is the serial baseline the speedups are measured
// against.
var benchWorkers = []int{1, 2, 4, 8}

// BenchmarkMatMulWorkers measures the row-partitioned MatMul across pool
// widths on a layer-sized matrix product.
func BenchmarkMatMulWorkers(b *testing.B) {
	x, y := benchMatrices(256, 256, 256)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			parallel.SetWorkers(w)
			defer parallel.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
		})
	}
}

// BenchmarkIm2ColBatchWorkers measures the batched unroll across pool
// widths on a training-batch-sized input.
func BenchmarkIm2ColBatchWorkers(b *testing.B) {
	g := ConvGeom{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const n = 16
	src := make([]float64, n*g.ImageSize())
	dst := make([]float64, n*g.ColSize())
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			parallel.SetWorkers(w)
			defer parallel.SetWorkers(0)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Im2ColBatch(dst, src, n, g)
			}
		})
	}
}

func benchMatrices(m, k, n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewSource(1))
	return New(m, k).RandNormal(rng, 0, 1), New(k, n).RandNormal(rng, 0, 1)
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchMatrices(64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	x, y := benchMatrices(256, 256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulInto64(b *testing.B) {
	x, y := benchMatrices(64, 64, 64)
	dst := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkGEMMExact256 times the packed engine's exact micro-kernel on
// the hot-path shape (the 256³ matmul BenchmarkGEMMRatio256 gates).
func BenchmarkGEMMExact256(b *testing.B) {
	x, y := benchMatrices(256, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkGEMMRatio256 is CI's GEMM perf gate. It times the serial
// packed exact GEMM and the naiveMatMul contract reference at 256³,
// alternating between them so that both see the same host load, and
// reports how many times faster the packed engine is as naive/packed:
// the ratio of the two fastest iterations, since the minimum estimates
// what the code can do and load only ever adds to it. A ratio measured
// in one process does not depend on the host's absolute speed, only on
// the engine's lead over a fixed reference. The recorded ratio assumes
// the vector exact kernel, so the benchmark skips on CPUs without it.
func BenchmarkGEMMRatio256(b *testing.B) {
	if !exactVector {
		b.Skip("no vector exact GEMM kernel on this CPU")
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	const n = 256
	x, y := benchMatrices(n, n, n)
	packed, naive := New(n, n), New(n, n)
	packedMin, naiveMin := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		MatMulInto(packed, x, y)
		mid := time.Now()
		naiveMatMul(naive.Data, x.Data, y.Data, n, n, n)
		packedMin = min(packedMin, mid.Sub(start))
		naiveMin = min(naiveMin, time.Since(mid))
	}
	b.ReportMetric(float64(packedMin.Nanoseconds()), "packed-min-ns")
	b.ReportMetric(float64(naiveMin.Nanoseconds()), "naive-min-ns")
	b.ReportMetric(float64(naiveMin)/float64(packedMin), "naive/packed")
}

// BenchmarkGEMMFast256 times the same shape under the reassociating
// (FMA) kernel the "fast" numeric mode selects.
func BenchmarkGEMMFast256(b *testing.B) {
	release, err := AcquireNumericMode("fast")
	if err != nil {
		b.Fatal(err)
	}
	defer release()
	x, y := benchMatrices(256, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

// BenchmarkConvMatMul times the fused implicit-GEMM conv forward (never
// materializing the column matrix) on a conv-layer-shaped operand.
func BenchmarkConvMatMul(b *testing.B) {
	g := ConvGeom{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	rng := rand.New(rand.NewSource(4))
	img := make([]float64, g.ImageSize())
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	w := New(16, g.InC*g.KH*g.KW).RandNormal(rng, 0, 1)
	dst := New(16, g.OutH()*g.OutW())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ConvMatMulInto(dst, w, img, g)
	}
}

func BenchmarkMatMulTransA(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := New(128, 64).RandNormal(rng, 0, 1)
	y := New(128, 32).RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulTransA(x, y)
	}
}

func BenchmarkIm2Col32(b *testing.B) {
	g := ConvGeom{InC: 8, InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	src := make([]float64, 8*32*32)
	dst := make([]float64, 8*9*32*32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2Col(dst, src, g)
	}
}

func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(1<<16).RandNormal(rng, 0, 1)
	y := New(1<<16).RandNormal(rng, 0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AddScaled(0.001, y)
	}
}
