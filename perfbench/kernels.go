package main

import (
	"time"

	"superoffload/internal/fp16"
	"superoffload/internal/tensor"
)

// kernelBudget is how long each direct kernel measurement runs.
const kernelBudget = 300 * time.Millisecond

// timeCalls runs f repeatedly for the budget (at least 5 calls) and
// returns the median call time in nanoseconds.
func timeCalls(f func()) float64 {
	var ns []float64
	start := time.Now()
	for len(ns) < 5 || time.Since(start) < kernelBudget {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}

// matmulGFLOPS times tensor.MatMulInto on an (m×k)·(k×n) product.
func matmulGFLOPS(m, k, n int) float64 {
	rng := tensor.NewRNG(7)
	a := tensor.Randn(rng, 1, m, k)
	b := tensor.Randn(rng, 1, k, n)
	out := tensor.New(m, n)
	ns := timeCalls(func() { tensor.MatMulInto(out, a, b) })
	return 2 * float64(m) * float64(k) * float64(n) / ns
}

// castNsPerElem times fp16.Cast over n elements.
func castNsPerElem(n int) float64 {
	src := tensor.Randn(tensor.NewRNG(9), 1, n).Data
	dst := make([]fp16.Num, n)
	return timeCalls(func() { fp16.Cast(dst, src) }) / float64(n)
}
