// Command perfbench is the repository's training benchmark. Each run
// trains one workload as a closed loop (one trainer; the next step starts
// when the previous one returns) for a given time, checks the result
// against the workload's bit-exact reference engine, and prints one JSON
// line: end-to-end metrics with -trace 0, or the traced per-layer
// breakdown with -trace 1. README.md describes the workloads and
// metrics; run.sh builds and runs it from the repository root:
//
//	bash perfbench/run.sh --workload zero-3d --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"superoffload/internal/stv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// problems explains why Correct is false.
	problems []string
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is %v", name, v)
		v = 0
	}
	r.Metrics[name] = metric{v, unit}
}

// check records a failed correctness condition.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// write prints every metric by name with its unit, then the JSON
// result as the last line.
func (r *result) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dense-1rank, offload-flash or zero-3d")
	seed := fs.Uint64("seed", 1, "seed for the model init and the corpus")
	seconds := fs.Float64("seconds", 10, "seconds the timed loop runs (at least 100 steps, at most 120 s)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer metrics")
	scratch := fs.String("scratch", ".bench_build/scratch", "directory for flash backing files and checkpoints")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *trace, *seconds)
		fs.Usage()
		return 2
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*scratch, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d trace=%d seconds=%g GOMAXPROCS=%d nproc=%d go=%s\n",
		w.name, *seed, *trace, *seconds, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	var res *result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, *seconds, dir, stdout)
	} else {
		res, err = traced(w, *seed, *seconds, dir, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func newResult(l *runLog) *result {
	r := &result{Correct: true, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	for _, err := range l.errs {
		r.check(false, "%v", err)
	}
	return r
}

// setups is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setups = 9

// endToEnd measures the user-visible metrics with tracing off.
func endToEnd(w workload, seed uint64, seconds float64, dir string, out io.Writer) (*result, error) {
	var setupS []float64
	var r *rig
	for i := 0; i < setups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = build(w, seed, dir, options{}); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	l := r.measure(loopLimits{seconds: seconds, minSteps: minSteps})
	rss, rssErr := peakRSSBytes()
	r.finish(l)

	res := newResult(l)
	res.check(rssErr == nil, "peak RSS: %v", rssErr)
	steps := float64(len(l.stepMs))
	// Time the host gave to other guests is not the program's, so the
	// step figures come from the steps it stole least from (README.md,
	// "Host steal"). Throughput adds the time spent between steps:
	// batches, checkpoints and bookkeeping.
	quiet := leastStolen(l.stepMs, l.stepSteal, minSteps)
	betweenMs := ratio(float64(l.wall)/float64(time.Millisecond)-sum(l.stepMs), steps)
	fmt.Fprintf(out, "timed %d steps in %.2f s (%d tokens/step, %d checkpoints, %.3g ms between steps); host steal in steps: %.0f clock ticks\n",
		len(l.stepMs), l.wall.Seconds(), w.tokensPerStep(), len(l.ckptMs), betweenMs, sum(l.stepSteal))
	fmt.Fprintf(out, "over all steps: %.5g tokens/s, p50 %.4g ms, p90 %.4g ms; reported over %d steps\n",
		ratio(steps*float64(w.tokensPerStep()), l.wall.Seconds()), quantile(l.stepMs, 0.5), quantile(l.stepMs, 0.9), len(quiet))
	res.add("tokens_per_s", ratio(float64(w.tokensPerStep())*1000, mean(quiet)+betweenMs), "tokens/s")
	res.add("step_ms_p50", quantile(quiet, 0.5), "ms")
	res.add("step_ms_p90", quantile(quiet, 0.9), "ms")
	res.add("setup_s", median(setupS), "s")
	res.add("peak_rss_mb", rss/1e6, "MB")
	res.add("alloc_bytes_per_step", median(l.stepBytes), "B")
	res.add("allocs_per_step", median(l.stepAllocs), "count")
	fmt.Fprintf(out, "mean per step incl. checkpoints: %.0f B, %.0f allocs\n",
		ratio(float64(l.mem1.TotalAlloc-l.mem0.TotalAlloc), steps), ratio(float64(l.mem1.Mallocs-l.mem0.Mallocs), steps))
	var lossFinal float64
	if len(r.losses) >= prefixSteps {
		lossFinal = mean(r.losses[prefixSteps-lossTail : prefixSteps])
		fmt.Fprintf(out, "loss digest (steps 1-%d): %s\n", prefixSteps, digest(r.losses[:prefixSteps]))
	}
	res.check(lossFinal > 0, "fewer than %d steps trained", prefixSteps)
	res.add("loss_final", lossFinal, "nats")
	checkReference(res, w, seed, dir, r, l)
	return res, nil
}

// lossTail is how many steps at the end of the fixed prefix loss_final
// averages: the loss of one 16-token batch is too noisy to compare.
const lossTail = 50

// checkReference trains the workload's bit-exact reference for the
// first refSteps steps and requires the measured run's losses and
// validation stats to match it exactly.
func checkReference(res *result, w workload, seed uint64, dir string, r *rig, l *runLog) {
	if len(r.losses) < refSteps {
		res.check(false, "fewer than %d steps trained; nothing to check against the reference", refSteps)
		return
	}
	var stats stv.Stats
	ref, err := buildReference(w, seed, dir)
	if err == nil {
		err = ref.train(refSteps - 1)
		stats = ref.eng.Stats()
		if cerr := ref.close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		res.check(false, "reference run: %v", err)
		return
	}
	res.check(sameBits(r.losses[:refSteps], ref.losses), "loss trajectory diverges from the reference engine in the first %d steps", refSteps)
	res.check(l.statsRef == stats, "validation stats %+v differ from the reference's %+v", l.statsRef, stats)
}

// maxTraceEvents bounds the traced loop so the tracer's memory stays
// small.
const maxTraceEvents = 200000

// traced runs the workload untraced and then traced, each for half the
// time, and reports the per-layer breakdown of the traced loop.
func traced(w workload, seed uint64, seconds float64, dir string, out io.Writer) (*result, error) {
	r0, err := build(w, seed, dir, options{})
	if err != nil {
		return nil, err
	}
	l0 := r0.measure(loopLimits{seconds: seconds / 2, minSteps: refSteps})
	r0.finish(l0)
	runtime.GC()

	r, err := build(w, seed, dir, options{traced: true})
	if err != nil {
		return nil, err
	}
	before := r.snapshot()
	l := r.measure(loopLimits{seconds: seconds / 2, minSteps: refSteps, maxEvents: maxTraceEvents})
	after := r.snapshot()
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	acc := account(r.tracer.Events())
	r.finish(l)

	res := newResult(l)
	res.Attempted += l0.attempted
	res.Failed += l0.failed
	for _, err := range l0.errs {
		res.check(false, "untraced: %v", err)
	}
	steps := float64(len(l.stepMs))
	fmt.Fprintf(out, "untraced %d steps in %.2f s; traced %d steps in %.2f s, %d events, %d phase tracks\n",
		len(l0.stepMs), l0.wall.Seconds(), len(l.stepMs), l.wall.Seconds(), acc.events, acc.phaseTracks)
	if len(r.losses) >= refSteps {
		fmt.Fprintf(out, "loss digest (steps 1-%d): %s\n", refSteps, digest(r.losses[:refSteps]))
	}
	res.check(len(r0.losses) >= refSteps && len(r.losses) >= refSteps &&
		sameBits(r.losses[:refSteps], r0.losses[:refSteps]), "traced run diverges from the untraced run")
	res.check(acc.steps == len(l.stepMs), "trace holds %d step spans for %d timed steps", acc.steps, len(l.stepMs))
	res.check(acc.coverageMin >= minCoverage, "phase spans cover only %.3f of a traced step", acc.coverageMin)
	res.check(after.pathEvents == 0, "flash store logged %d path degradation events", after.pathEvents)

	perStep := func(v float64) float64 { return ratio(v, steps) }
	perRankStep := func(kind, name string) float64 {
		return ratio(acc.selfMs(kind, name), steps*float64(acc.phaseTracks))
	}
	d := after.sub(before)
	res.add("nn.forward_ms", perRankStep("phase", "forward"), "ms")
	res.add("nn.backward_ms", perRankStep("phase", "backward"), "ms")
	res.add("tensor.matmul_gflops", matmulGFLOPS(w.batch*w.seq, w.hidden, 4*w.hidden), "GFLOP/s")
	res.add("stv.speculate_ms", perRankStep("phase", "speculate"), "ms")
	res.add("stv.resolve_ms", perRankStep("phase", "resolve"), "ms")
	res.add("stv.rollback_ratio", ratio(float64(d.stats.Rollbacks()), float64(d.stats.Steps)), "ratio")
	res.add("stv.redo_ratio", ratio(float64(d.stats.Redos), float64(d.stats.Steps)), "ratio")
	res.add("optim.adam_ms", perStep(d.adamNs/1e6), "ms")
	res.add("optim.adam_calls_per_step", perStep(d.adamCalls), "count")
	res.add("optim.adam_ns_per_elem", ratio(d.adamNs, d.adamElems), "ns/elem")
	res.add("fp16.cast_ns_per_elem", castNsPerElem(w.bucketElems), "ns/elem")
	res.add("stv.store.acquire_wait_ms", perStep(d.acquireNs/1e6), "ms")
	res.add("stv.store.release_wait_ms", perStep(d.releaseNs/1e6), "ms")
	res.add("stv.store.read_busy_ms", perStep(acc.selfMs("path", "read")), "ms")
	res.add("stv.store.write_busy_ms", perStep(acc.selfMs("path", "write")), "ms")
	res.add("stv.store.read_bytes_per_step", perStep(d.storeRead), "B")
	res.add("stv.store.write_bytes_per_step", perStep(d.storeWritten), "B")
	res.add("stv.store.cache_hit_ratio", ratio(d.cacheHits, d.acquires), "ratio")
	res.add("stv.store.path_events", float64(after.pathEvents), "count")
	res.add("stv.ckpt_save_ms", median(append(l0.ckptMs, l.ckptMs...)), "ms")
	res.add("act.spill_bytes_per_step", perStep(d.actSpilled), "B")
	res.add("act.fetch_bytes_per_step", perStep(d.actFetched), "B")
	res.add("act.io_busy_ms", perStep(acc.selfMs("act", "read")+acc.selfMs("act", "write")), "ms")
	res.add("act.stalls_per_step", perStep(float64(acc.instants["act/stall"])), "count")
	res.add("dp.reduce_wait_ms", perRankStep("phase", "reduce"), "ms")
	res.add("dp.bubble_ratio", ratio(acc.self["phase/recvAct"]+acc.self["phase/recvGrad"], acc.stepWall*float64(acc.phaseTracks)), "ratio")
	res.add("dp.a2a_floats_per_step", perStep(d.a2aFloats), "floats")
	res.add("dp.ring_floats_per_step", perStep(d.ringFloats), "floats")
	res.add("dp.stage_floats_per_step", perStep(d.stageFloats), "floats")
	res.add("runtime.gc_cycles_per_step", ratio(float64(l0.mem1.NumGC-l0.mem0.NumGC), float64(len(l0.stepMs))), "count")
	res.add("obs.overhead_ratio", ratio(median(l.stepMs), median(l0.stepMs)), "ratio")
	res.add("obs.events_per_step", perStep(float64(acc.events)), "count")
	res.add("obs.heap_bytes_per_step", perStep(float64(heap.HeapAlloc)-float64(l.mem0.HeapAlloc)), "B")
	res.add("obs.phase_coverage_min", acc.coverageMin, "ratio")
	checkReference(res, w, seed, dir, r0, l0)
	return res, nil
}

// minCoverage is the share of each traced step's wall time the phase
// spans must account for.
const minCoverage = 0.9
