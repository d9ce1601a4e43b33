package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"superoffload/internal/dp"
	"superoffload/internal/hw"
	"superoffload/internal/stv"
	"superoffload/internal/stv/stvtest"
)

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// trained runs a rig for n steps after its warm-up, flushes it and
// returns its stats and final masters; the rig stays open for the caller.
func trained(t *testing.T, r *rig, n int) (stv.Stats, []float32) {
	t.Helper()
	if err := r.train(n); err != nil {
		t.Fatal(err)
	}
	if _, err := r.eng.Flush(); err != nil {
		t.Fatal(err)
	}
	return r.eng.Stats(), r.eng.MasterWeights()
}

// assertSameRun requires bit-identical losses, stats and masters.
func assertSameRun(t *testing.T, what string, a, b *rig, sa, sb stv.Stats, ma, mb []float32) {
	t.Helper()
	if !sameBits(a.losses, b.losses) {
		t.Errorf("%s: loss trajectories differ:\n%v\n%v", what, a.losses, b.losses)
	}
	if sa != sb {
		t.Errorf("%s: stats differ: %+v vs %+v", what, sa, sb)
	}
	if len(ma) != len(mb) {
		t.Fatalf("%s: master sizes differ: %d vs %d", what, len(ma), len(mb))
	}
	for i := range ma {
		if math.Float32bits(ma[i]) != math.Float32bits(mb[i]) {
			t.Fatalf("%s: masters differ at %d: %v vs %v", what, i, ma[i], mb[i])
		}
	}
}

func closeRig(t *testing.T, r *rig) {
	t.Helper()
	if err := r.close(); err != nil {
		t.Error(err)
	}
}

// TestWorkloadsMatchReference pins each workload to its DESIGN.md
// exactness contract over a short run with checkpoints in it:
// offload-flash equals a DRAM-resident trainer, zero-3d equals
// single-rank R-way row accumulation, and dense-1rank equals the R×S×P
// engine at (1,1,1).
func TestWorkloadsMatchReference(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.ckptEvery = 4
			dir := t.TempDir()
			r, err := build(w, 3, dir, options{})
			if err != nil {
				t.Fatal(err)
			}
			defer closeRig(t, r)
			ref, err := buildReference(w, 3, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer closeRig(t, ref)
			s, m := trained(t, r, 9)
			rs, rm := trained(t, ref, 9)
			assertSameRun(t, w.name+" vs reference", r, ref, s, rs, m, rm)
		})
	}
}

// TestWorkloadShapes checks the partition sizes the workloads are
// defined by.
func TestWorkloadShapes(t *testing.T) {
	want := map[string]int{"dense-1rank": 3, "offload-flash": 27}
	for _, w := range workloads {
		m := w.newModel(1)
		n := len(stv.PartitionGroups(m.Params(), w.bucketElems))
		if b, ok := want[w.name]; ok && n != b {
			t.Errorf("%s: %d buckets, want %d", w.name, n, b)
		}
		if w.name == "offload-flash" && (m.NumParams() < 1.3e6 || m.NumParams() > 1.35e6) {
			t.Errorf("offload-flash: %d params, want about 1.33M", m.NumParams())
		}
	}
}

// TestTracedEqualsUntraced shows the tracer and the timing decorators
// are invisible to the numerics.
func TestTracedEqualsUntraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.ckptEvery = 3
			plain, err := build(w, 5, t.TempDir(), options{})
			if err != nil {
				t.Fatal(err)
			}
			defer closeRig(t, plain)
			tr, err := build(w, 5, t.TempDir(), options{traced: true})
			if err != nil {
				t.Fatal(err)
			}
			defer closeRig(t, tr)
			s, m := trained(t, plain, 6)
			ts, tm := trained(t, tr, 6)
			assertSameRun(t, w.name+" traced vs untraced", plain, tr, s, ts, m, tm)
			if tr.tracer.Len() == 0 || tr.adam.calls.Load() == 0 || tr.stores[0].acquires.Load() == 0 {
				t.Errorf("traced run recorded nothing: %d events, %d adam calls", tr.tracer.Len(), tr.adam.calls.Load())
			}
		})
	}
}

// TestStoreDecoratorForwardsTelemetry: the engines probe their stores
// for stv.TelemetrySource, so the decorator must pass it through.
func TestStoreDecoratorForwardsTelemetry(t *testing.T) {
	mlp := func(t *testing.T) stv.BucketStore {
		s, err := stv.NewMLPStore(stv.MLPStoreConfig{Dir: t.TempDir(), Paths: hw.NodeIOPaths(2)})
		if err != nil {
			t.Fatal(err)
		}
		return &timedStore{inner: s}
	}
	if _, ok := (&timedStore{inner: stv.NewDRAMStore()}).NVMeTelemetry(); ok {
		t.Error("decorated DRAM store claims flash telemetry")
	}
	w := mustWorkload(t, "zero-3d")
	eng, err := dp.NewPipe(w.newModel(1), dp.Config{
		Ranks: 2, BucketElems: 16384, ClipNorm: w.clip,
		NewStore: func(int) (stv.BucketStore, error) { return mlp(t), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := w.newCorpus(1)
	for i := 0; i < 2; i++ {
		if _, err := eng.Step(c.NextBatch(2, 32)); err != nil {
			t.Fatal(err)
		}
	}
	tel, ok := eng.StoreTelemetry()
	if !ok || tel.Writes == 0 {
		t.Errorf("engine sees no flash telemetry through the decorator: ok=%v %+v", ok, tel)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedPathFaultIsReported drives offload-flash over a store
// whose path 1 starts failing: the run must count the failure and the
// degradation event, not panic and not pass.
func TestInjectedPathFaultIsReported(t *testing.T) {
	w := mustWorkload(t, "offload-flash")
	inj := stvtest.NewInjector(stvtest.Fault{Path: 1, Kind: stvtest.FaultError, AfterOps: 40})
	r, err := build(w, 1, t.TempDir(), options{traced: true, wrapPath: inj.WrapPath})
	if err != nil {
		t.Fatal(err)
	}
	l := r.measure(loopLimits{minSteps: 10})
	events := r.snapshot().pathEvents
	r.finish(l)
	res := newResult(l)
	if l.failed == 0 || res.Correct {
		t.Errorf("fault not counted: attempted %d, failed %d, correct %v", l.attempted, l.failed, res.Correct)
	}
	if events == 0 {
		t.Error("no path degradation event reported")
	}
	if inj.PathOps(1) <= 40 {
		t.Fatalf("fault never fired: path 1 saw %d ops", inj.PathOps(1))
	}
}

// TestSeedDerivesInputs: the same seed gives the same trajectory, and a
// different seed gives different batches and a different trajectory.
func TestSeedDerivesInputs(t *testing.T) {
	w := mustWorkload(t, "dense-1rank")
	traj := func(seed uint64) string {
		r, err := build(w, seed, t.TempDir(), options{})
		if err != nil {
			t.Fatal(err)
		}
		defer closeRig(t, r)
		if err := r.train(4); err != nil {
			t.Fatal(err)
		}
		return digest(r.losses)
	}
	if a, b := traj(7), traj(7); a != b {
		t.Errorf("seed 7 digests differ: %s vs %s", a, b)
	}
	if a, b := traj(7), traj(8); a == b {
		t.Errorf("seeds 7 and 8 share digest %s", a)
	}
	b7, b8 := w.newCorpus(7).NextBatch(w.batch, w.seq), w.newCorpus(8).NextBatch(w.batch, w.seq)
	same := true
	for i := range b7.Tokens {
		same = same && b7.Tokens[i] == b8.Tokens[i]
	}
	if same {
		t.Error("seeds 7 and 8 draw the same first batch")
	}
}

func TestSelfTimes(t *testing.T) {
	// parent [0,10) holds children [1,3) and [4,8), which holds [5,6).
	spans := []span{{"parent", 0, 10}, {"a", 1, 3}, {"b", 4, 8}, {"c", 5, 6}, {"next", 10, 12}}
	got := selfTimes(spans)
	want := map[string]float64{"parent": 4, "a": 2, "b": 3, "c": 1, "next": 2}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
	if c := coveredBy(spans, span{"step", 2, 11}); c != 9 {
		t.Errorf("covered = %v, want 9", c)
	}
	if c := coveredBy([]span{{"x", 0, 2}, {"y", 5, 6}}, span{"step", 1, 7}); c != 2 {
		t.Errorf("covered with a gap = %v, want 2", c)
	}
}

func TestLeastStolen(t *testing.T) {
	ms := []float64{10, 90, 11, 80, 12, 70}
	steal := []float64{0, 3, 0, 1, 0, 2}
	for _, c := range []struct {
		min  int
		want []float64
	}{
		{0, []float64{10, 11, 12}},             // every steal-free step
		{4, []float64{10, 11, 12, 80}},         // topped up with the least-stolen
		{9, []float64{10, 11, 12, 80, 70, 90}}, // never more than there are
	} {
		if got := leastStolen(ms, steal, c.min); !sameBits(got, c.want) {
			t.Errorf("leastStolen(min %d) = %v, want %v", c.min, got, c.want)
		}
	}
}

func TestStealTicks(t *testing.T) {
	a, ok := stealTicks()
	if !ok {
		t.Skip("kernel reports no steal time")
	}
	if b, _ := stealTicks(); b < a {
		t.Errorf("steal went back from %d to %d", a, b)
	}
}

func TestTrackKind(t *testing.T) {
	for name, want := range map[string]string{
		"trainer": "phase", "rank 3": "phase", "rank 3 act": "act", "act": "act",
		"mlp": "mlp", "mlp path 1": "path", "coordinator": "coordinator", "comm": "comm",
	} {
		if got := trackKind(name); got != want {
			t.Errorf("trackKind(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestAccountingCoversSteps: on a real traced run of each workload the
// phase spans account for at least minCoverage of every timed step, and
// every timed step has its bench span.
func TestAccountingCoversSteps(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := build(w, 2, t.TempDir(), options{traced: true})
			if err != nil {
				t.Fatal(err)
			}
			l := r.measure(loopLimits{minSteps: 6})
			r.finish(l)
			if l.failed > 0 {
				t.Fatal(l.errs)
			}
			a := account(r.tracer.Events())
			if a.steps != len(l.stepMs) {
				t.Errorf("%d step spans for %d steps", a.steps, len(l.stepMs))
			}
			if a.coverageMin < minCoverage {
				t.Errorf("phase spans cover %.3f of a step, want >= %v", a.coverageMin, minCoverage)
			}
			if a.selfMs("phase", "forward") <= 0 || a.selfMs("phase", "backward") <= 0 {
				t.Errorf("no forward/backward self time: %v", a.self)
			}
		})
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestCommandPrintsDeclaredMetrics runs the command end to end and
// checks its last line carries exactly the metrics BENCHMARK.json
// declares for each mode.
func TestCommandPrintsDeclaredMetrics(t *testing.T) {
	e2e, layers := benchmarkNames(t)
	for trace, want := range map[string][]string{"0": e2e, "1": layers} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "dense-1rank", "--seed", "4", "--seconds", "0.5",
			"--trace", trace, "-scratch", t.TempDir()}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d\n%s%s", trace, code, out.String(), errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		var got []string
		for n := range res.Metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("trace %s metrics:\n got %v\nwant %v", trace, got, want)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("trace %s: %+v", trace, res)
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dense-1rank", "--trace", "2"},
		{"--workload", "dense-1rank", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
