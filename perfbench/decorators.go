package main

import (
	"sync/atomic"
	"time"

	"superoffload/internal/optim"
	"superoffload/internal/stv"
)

// timedStore decorates a bucket store on traced runs: it times each
// Acquire (the wait before a bucket's state is resident) and Release,
// and forwards everything else unchanged. Counters are atomic because
// the benchmark reads them while rank goroutines own the store.
type timedStore struct {
	inner     stv.BucketStore
	acquires  atomic.Int64
	acquireNs atomic.Int64
	releaseNs atomic.Int64
}

var _ stv.TelemetrySource = (*timedStore)(nil)

func (s *timedStore) Seed(idx int, master []float32) { s.inner.Seed(idx, master) }

func (s *timedStore) Acquire(idx int) *stv.BucketState {
	t0 := time.Now()
	st := s.inner.Acquire(idx)
	s.acquireNs.Add(int64(time.Since(t0)))
	s.acquires.Add(1)
	return st
}

func (s *timedStore) Release(idx int, mode stv.ReleaseMode) {
	t0 := time.Now()
	s.inner.Release(idx, mode)
	s.releaseNs.Add(int64(time.Since(t0)))
}

func (s *timedStore) Close() error { return s.inner.Close() }

// NVMeTelemetry forwards stv.TelemetrySource, which the engines probe
// for on their stores, so decorating a flash store hides none of its
// accounting.
func (s *timedStore) NVMeTelemetry() (stv.StoreTelemetry, bool) {
	if src, ok := s.inner.(stv.TelemetrySource); ok {
		return src.NVMeTelemetry()
	}
	return stv.StoreTelemetry{}, false
}

// timedAdam decorates the Adam kernel (optim.Impl) on traced runs,
// counting calls, elements and time. Ranks call it concurrently.
type timedAdam struct {
	impl  optim.Impl
	calls atomic.Int64
	elems atomic.Int64
	ns    atomic.Int64
}

func (a *timedAdam) step(cfg optim.Config, p, g []float32, s *optim.State, t int) {
	t0 := time.Now()
	a.impl(cfg, p, g, s, t)
	a.ns.Add(int64(time.Since(t0)))
	a.calls.Add(1)
	a.elems.Add(int64(len(p)))
}
