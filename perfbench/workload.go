package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"superoffload/internal/act"
	"superoffload/internal/data"
	"superoffload/internal/dp"
	"superoffload/internal/hw"
	"superoffload/internal/model"
	"superoffload/internal/nn"
	"superoffload/internal/obs"
	"superoffload/internal/optim"
	"superoffload/internal/stv"
	"superoffload/internal/tensor"
)

// Every workload trains with 4 attention heads and default Adam, on a
// fresh corpus batch each step.
const heads = 4

// workload is one benchmark input: a model, an engine shape and the
// storage tiers the optimizer state and activations live in. README.md
// records why each one exists.
type workload struct {
	name   string
	layers int
	hidden int
	vocab  int
	// batch rows × seq positions form one micro-batch; micros of them
	// make one optimizer step.
	batch, seq, micros int
	bucketElems        int
	// clip is the global gradient-norm clipping threshold. offload-flash
	// clips at 30, not 4: on its 16-token batches lower thresholds roll
	// back a seed-dependent share of steps (9-46% at 4, 1-5% at 12), and
	// a rollback step costs ~1.8x, so throughput and p90 would measure
	// the seed (README.md, "Choices, and why").
	clip float64
	// ranks, seqRanks and pipeRanks shape the R×S×P engine; ranks == 0
	// selects the single-rank stv.Trainer.
	ranks, seqRanks, pipeRanks int
	// flash keeps optimizer state in a 2-path MLPStore (resident window
	// 2, DRAM cache 8) and spills activations to the NVMe tier
	// (window 2).
	flash bool
	// ckptEvery is the number of steps between Flush+Save checkpoints
	// (0: none).
	ckptEvery int
}

var workloads = []workload{
	{
		name:   "dense-1rank",
		layers: 4, hidden: 64, vocab: 256, batch: 4, seq: 32, micros: 1, bucketElems: 90000, clip: 4,
	},
	{
		name:   "offload-flash",
		layers: 4, hidden: 128, vocab: 2048, batch: 1, seq: 16, micros: 1, bucketElems: 32768, clip: 30,
		flash: true, ckptEvery: 50,
	},
	{
		name:   "zero-3d",
		layers: 4, hidden: 64, vocab: 256, batch: 2, seq: 32, micros: 4, bucketElems: 16384, clip: 4,
		ranks: 2, seqRanks: 2, pipeRanks: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) tokensPerStep() int { return w.batch * w.seq * w.micros }

// Seed streams: the run seed derives the model-init RNG and the corpus
// independently, so neither input repeats the other's random sequence.
const (
	modelStream = 1
	dataStream  = 2
)

// derive mixes the run seed with a stream id (splitmix64 finalizer).
func derive(seed, stream uint64) uint64 {
	z := seed + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (w workload) newModel(seed uint64) *nn.GPT {
	cfg := model.Config{Name: w.name, Layers: w.layers, Hidden: w.hidden, Heads: heads, Vocab: w.vocab}
	return nn.NewGPT(cfg, w.seq, tensor.NewRNG(derive(seed, modelStream)))
}

func (w workload) newCorpus(seed uint64) *data.Corpus {
	return data.NewCorpus(w.vocab, derive(seed, dataStream))
}

// engine is what the step loop drives; stv.Trainer and dp.PipeEngine
// both provide it.
type engine interface {
	StepAccum(batches []data.Batch) (float64, error)
	Flush() (bool, error)
	Save(w io.Writer) error
	Stats() stv.Stats
	MasterWeights() []float32
	Close() error
}

// options are the per-run switches. Only tests set wrapPath.
type options struct {
	// traced passes an obs.Tracer through the engines' Tracer fields and
	// wraps the bucket stores and the Adam kernel in timing decorators.
	traced bool
	// wrapPath is the MLPStore fault-injection hook.
	wrapPath func(path int, f stv.PathFile) stv.PathFile
}

// rig is one constructed training setup.
type rig struct {
	w       workload
	eng     engine
	trainer *stv.Trainer   // single-rank workloads
	pipe    *dp.PipeEngine // the R×S×P workload
	mlp     *stv.MLPStore  // offload-flash
	stores  []*timedStore  // traced runs: every bucket store, decorated
	adam    *timedAdam     // traced runs
	tracer  *obs.Tracer    // traced runs
	bench   *obs.Track     // the benchmark's own step/ckpt spans
	corpus  *data.Corpus
	// split, when set, rewrites each step's micro-batches before the
	// engine sees them (the reference's R-way row decomposition).
	split  func([]data.Batch) []data.Batch
	dir    string
	losses []float64 // every step's loss, the warm-up step first
}

// build constructs a workload's engine from the seed and runs its
// warm-up step: everything setup_s times. dir holds the flash tier's
// backing files and the checkpoint.
func build(w workload, seed uint64, dir string, opt options) (*rig, error) {
	r := &rig{w: w, corpus: w.newCorpus(seed), dir: dir}
	m := w.newModel(seed)
	var impl optim.Impl = optim.GraceAdam
	if opt.traced {
		r.tracer = obs.NewTracer()
		r.bench = r.tracer.Track("bench")
		r.adam = &timedAdam{impl: impl}
		impl = r.adam.step
	}
	decorate := func(s stv.BucketStore) stv.BucketStore {
		if !opt.traced {
			return s
		}
		ts := &timedStore{inner: s}
		r.stores = append(r.stores, ts)
		return ts
	}
	adam := optim.DefaultConfig()
	if w.ranks == 0 {
		cfg := stv.Config{
			Adam: adam, Impl: impl, ClipNorm: w.clip, BucketElems: w.bucketElems,
			Mode: stv.STV, Tracer: r.tracer,
		}
		var store stv.BucketStore = stv.NewDRAMStore()
		if w.flash {
			mlp, err := stv.NewMLPStore(stv.MLPStoreConfig{
				Dir: dir, Paths: hw.NodeIOPaths(2), ResidentBuckets: 2, CacheBuckets: 8,
				WrapPath: opt.wrapPath, Tracer: r.tracer,
			})
			if err != nil {
				return nil, err
			}
			a, err := act.NewStore(act.Config{
				Tier: act.NVMe, Dir: dir, ResidentLayers: 2,
				Hidden: w.hidden, Params: int64(m.NumParams()), Tracer: r.tracer,
			})
			if err != nil {
				mlp.Close()
				return nil, err
			}
			r.mlp, store, cfg.Act = mlp, mlp, a
		}
		cfg.Store = decorate(store)
		r.trainer = stv.NewTrainer(m, cfg)
		r.eng = r.trainer
	} else {
		cfg := dp.Config{
			Ranks: w.ranks, SeqRanks: w.seqRanks, PipeRanks: w.pipeRanks,
			Adam: adam, Impl: impl, ClipNorm: w.clip, BucketElems: w.bucketElems,
			Tracer: r.tracer,
		}
		if opt.traced {
			cfg.NewStore = func(int) (stv.BucketStore, error) { return decorate(stv.NewDRAMStore()), nil }
		}
		p, err := dp.NewPipe(m, cfg)
		if err != nil {
			return nil, err
		}
		r.pipe, r.eng = p, p
	}
	if err := r.warmUp(); err != nil {
		return nil, err
	}
	return r, nil
}

// warmUp runs the first step; on failure it closes the engine.
func (r *rig) warmUp() error {
	if err := r.step(); err != nil {
		r.eng.Close()
		return fmt.Errorf("warm-up step: %w", err)
	}
	return nil
}

// buildReference constructs the workload's bit-exact reference on the
// same seed (DESIGN.md exactness contracts): dense-1rank against the
// R×S×P engine at (1,1,1), offload-flash against a DRAM-resident
// stv.Trainer with no activation tier, and zero-3d against a
// single-rank stv.Trainer accumulating the same R-way row decomposition.
func buildReference(w workload, seed uint64, dir string) (*rig, error) {
	r := &rig{w: w, corpus: w.newCorpus(seed), dir: dir}
	m := w.newModel(seed)
	adam := optim.DefaultConfig()
	if w.ranks == 0 && !w.flash {
		p, err := dp.NewPipe(m, dp.Config{
			Ranks: 1, Adam: adam, Impl: optim.GraceAdam, ClipNorm: w.clip, BucketElems: w.bucketElems,
		})
		if err != nil {
			return nil, err
		}
		r.pipe, r.eng = p, p
	} else {
		r.trainer = stv.NewTrainer(m, stv.Config{
			Adam: adam, Impl: optim.GraceAdam, ClipNorm: w.clip, BucketElems: w.bucketElems, Mode: stv.STV,
		})
		r.eng = r.trainer
	}
	if w.ranks > 1 {
		r.split = func(bs []data.Batch) []data.Batch { return splitRows(bs, w.ranks) }
	}
	if err := r.warmUp(); err != nil {
		return nil, err
	}
	return r, nil
}

// splitRows decomposes each micro-batch into n row slices, in (micro,
// group) order: the order the R×S×P engine folds its groups' gradients.
func splitRows(bs []data.Batch, n int) []data.Batch {
	var out []data.Batch
	for _, b := range bs {
		per := b.BatchSize / n
		for g := 0; g < n; g++ {
			lo, hi := g*per*b.Seq, (g+1)*per*b.Seq
			out = append(out, data.Batch{Tokens: b.Tokens[lo:hi], Targets: b.Targets[lo:hi], BatchSize: per, Seq: b.Seq})
		}
	}
	return out
}

func (r *rig) nextBatches() []data.Batch {
	bs := make([]data.Batch, r.w.micros)
	for i := range bs {
		bs[i] = r.corpus.NextBatch(r.w.batch, r.w.seq)
	}
	return bs
}

// step trains one step on fresh batches and records its loss. A
// non-finite loss or a latched store error fails the step.
func (r *rig) step() error {
	return r.stepOn(r.nextBatches())
}

func (r *rig) stepOn(batches []data.Batch) error {
	if r.split != nil {
		batches = r.split(batches)
	}
	loss, err := r.eng.StepAccum(batches)
	if err != nil {
		return err
	}
	r.losses = append(r.losses, loss)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		return fmt.Errorf("step %d: non-finite loss %v", len(r.losses), loss)
	}
	if r.mlp != nil {
		if err := r.mlp.Err(); err != nil {
			return fmt.Errorf("flash store degraded: %w", err)
		}
	}
	return nil
}

// ckptDue reports whether a checkpoint follows the step just taken:
// every ckptEvery steps after the warm-up step.
func (r *rig) ckptDue() bool {
	n := len(r.losses) - 1
	return r.w.ckptEvery > 0 && n > 0 && n%r.w.ckptEvery == 0
}

// train runs n more steps, with the workload's checkpoints, outside
// any timing: the reference runs and the tests use it.
func (r *rig) train(n int) error {
	for i := 0; i < n; i++ {
		if err := r.step(); err != nil {
			return err
		}
		if r.ckptDue() {
			if err := r.checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close resolves the in-flight validation and closes the engine.
func (r *rig) close() error {
	_, ferr := r.eng.Flush()
	cerr := r.eng.Close()
	if ferr != nil {
		return fmt.Errorf("flush: %w", ferr)
	}
	if cerr != nil {
		return fmt.Errorf("close: %w", cerr)
	}
	return nil
}

// checkpoint resolves the in-flight validation and saves the full
// training state, overwriting the previous checkpoint file.
func (r *rig) checkpoint() error {
	if _, err := r.eng.Flush(); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.dir, "ckpt.bin"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := r.eng.Save(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLog is what one timed loop measured.
type runLog struct {
	stepMs []float64 // per-step latency, checkpoints excluded
	// stepSteal is the host's steal time, in clock ticks, across each
	// step (zero everywhere where the kernel reports none).
	stepSteal []float64
	// stepBytes and stepAllocs are each step's heap allocation, read
	// from runtime.MemStats around the step (outside its latency).
	stepBytes  []float64
	stepAllocs []float64
	ckptMs     []float64
	attempted  int
	failed     int
	errs       []error
	statsRef   stv.Stats // engine stats once refSteps losses exist
	wall       time.Duration
	mem0       runtime.MemStats
	mem1       runtime.MemStats
}

func (l *runLog) fail(err error) {
	l.failed++
	l.errs = append(l.errs, err)
}

// Loop limits. A run times at least minSteps steps so that ten lie
// beyond p90; maxWall bounds a run on a slow machine.
const (
	minSteps = 100
	// prefixSteps is the fixed trajectory prefix, warm-up step included,
	// that loss_final and the loss digest cover whatever the run length.
	prefixSteps = 100
	// refSteps is how many steps a run checks against its reference engine.
	refSteps = 20
	maxWall  = 120 * time.Second
)

// loopLimits says when a timed loop ends: after seconds and at least
// minSteps steps, or once the tracer holds maxEvents events (after
// minSteps), or at maxWall regardless.
type loopLimits struct {
	seconds   float64
	minSteps  int
	maxEvents int
}

// measure runs the closed training loop: each step starts when the
// previous one returns. A failed step ends the loop, since the engine's
// state is then unknown.
func (r *rig) measure(lim loopLimits) *runLog {
	l := &runLog{}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&l.mem0)
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= maxWall {
			break
		}
		if len(l.stepMs) >= lim.minSteps {
			if el.Seconds() >= lim.seconds || (lim.maxEvents > 0 && r.tracer.Len() >= lim.maxEvents) {
				break
			}
		}
		batches := r.nextBatches()
		l.attempted++
		steal0, _ := stealTicks()
		runtime.ReadMemStats(&m0)
		sp := r.bench.Begin("step")
		t0 := time.Now()
		err := r.stepOn(batches)
		dt := time.Since(t0)
		sp.End()
		runtime.ReadMemStats(&m1)
		steal1, _ := stealTicks()
		if err != nil {
			l.fail(err)
			break
		}
		l.stepMs = append(l.stepMs, float64(dt)/float64(time.Millisecond))
		l.stepSteal = append(l.stepSteal, float64(steal1-steal0))
		l.stepBytes = append(l.stepBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		l.stepAllocs = append(l.stepAllocs, float64(m1.Mallocs-m0.Mallocs))
		if len(r.losses) == refSteps {
			l.statsRef = r.eng.Stats()
		}
		if r.ckptDue() {
			l.attempted++
			sp := r.bench.Begin("ckpt")
			t0 := time.Now()
			err := r.checkpoint()
			sp.End()
			if err != nil {
				l.fail(fmt.Errorf("checkpoint: %w", err))
				break
			}
			l.ckptMs = append(l.ckptMs, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	l.wall = time.Since(start)
	runtime.ReadMemStats(&l.mem1)
	return l
}

// finish resolves the last step's validation and closes the engine; a
// latched store error or a failed close counts as a failed operation.
func (r *rig) finish(l *runLog) {
	l.attempted++
	if err := r.close(); err != nil {
		l.fail(err)
	}
}

// counters snapshots every cumulative counter a traced run reads.
type counters struct {
	stats                              stv.Stats
	adamNs, adamCalls, adamElems       float64
	acquires, acquireNs, releaseNs     float64
	storeRead, storeWritten            float64
	cacheHits                          float64
	pathEvents                         int
	actSpilled, actFetched             float64
	a2aFloats, ringFloats, stageFloats float64
}

func (r *rig) snapshot() counters {
	c := counters{stats: r.eng.Stats()}
	if r.adam != nil {
		c.adamNs = float64(r.adam.ns.Load())
		c.adamCalls = float64(r.adam.calls.Load())
		c.adamElems = float64(r.adam.elems.Load())
	}
	for _, s := range r.stores {
		c.acquires += float64(s.acquires.Load())
		c.acquireNs += float64(s.acquireNs.Load())
		c.releaseNs += float64(s.releaseNs.Load())
	}
	if r.mlp != nil {
		t := r.mlp.Telemetry()
		c.storeRead, c.storeWritten = float64(t.BytesRead), float64(t.BytesWritten)
		c.cacheHits = float64(t.CacheHits)
		c.pathEvents = len(t.Events)
	}
	var at act.Telemetry
	if r.trainer != nil {
		at, _ = r.trainer.ActTelemetry()
	}
	if r.pipe != nil {
		at, _ = r.pipe.ActTelemetry()
		cs := r.pipe.CommStats()
		c.a2aFloats, c.ringFloats, c.stageFloats = float64(cs.A2AFloats), float64(cs.RingFloats), float64(cs.StageFloats)
	}
	c.actSpilled, c.actFetched = float64(at.BytesSpilled), float64(at.BytesFetched)
	return c
}

// sub is the change since an earlier snapshot (pathEvents stays the
// running total).
func (c counters) sub(o counters) counters {
	return counters{
		stats: stv.Stats{
			Steps: c.stats.Steps - o.stats.Steps, Commits: c.stats.Commits - o.stats.Commits,
			ClipRolls: c.stats.ClipRolls - o.stats.ClipRolls, SkipRolls: c.stats.SkipRolls - o.stats.SkipRolls,
			Redos: c.stats.Redos - o.stats.Redos,
		},
		adamNs: c.adamNs - o.adamNs, adamCalls: c.adamCalls - o.adamCalls, adamElems: c.adamElems - o.adamElems,
		acquires: c.acquires - o.acquires, acquireNs: c.acquireNs - o.acquireNs, releaseNs: c.releaseNs - o.releaseNs,
		storeRead: c.storeRead - o.storeRead, storeWritten: c.storeWritten - o.storeWritten,
		cacheHits: c.cacheHits - o.cacheHits, pathEvents: c.pathEvents,
		actSpilled: c.actSpilled - o.actSpilled, actFetched: c.actFetched - o.actFetched,
		a2aFloats: c.a2aFloats - o.a2aFloats, ringFloats: c.ringFloats - o.ringFloats, stageFloats: c.stageFloats - o.stageFloats,
	}
}
