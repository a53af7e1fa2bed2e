package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gsfl/cliutil"
	"gsfl/env"
	"gsfl/internal/simnet"
	"gsfl/obs"
	"gsfl/sim"
	"gsfl/sweep"
)

// unit is one closed-loop piece of work a workload repeats until the
// run's time is up: set up a fresh instance, run it to completion,
// digest its outputs. Every unit of a run starts from the same seed, so
// every unit must produce the same digest.
type unit struct {
	setup    float64   // seconds before the first timed operation
	rounds   []float64 // host seconds of each timed round
	makespan float64   // seconds from the first timed operation to the last output
	samples  float64   // training samples that completed a split step
	ops      int       // operations attempted: rounds, wire turns or sweep jobs
	failed   int       // operations lost (wire turns that straggled or were skipped)
	digest   string
	mem      memDelta
	// layers holds per-layer totals from a traced unit (nil otherwise).
	layers map[string]float64
}

// memDelta is the Go runtime's process-wide allocation and GC-pause
// traffic across a unit's timed window.
type memDelta struct {
	mallocs, bytes, gcNs uint64
}

func measureMem(f func()) memDelta {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return memDelta{
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		gcNs:    m1.PauseTotalNs - m0.PauseTotalNs,
	}
}

// config is what every workload is sized from.
type config struct {
	seed  int64
	short bool   // the small shapes the tests run
	procs int    // nproc: pool workers, scheduler jobs, wire connections
	dir   string // scratch directory for sweep stores
}

// workload is one benchmark workload: run executes one unit, and
// reference returns the digest every unit must reproduce and where it
// came from (see referenceDigest).
type workload interface {
	run(ctx context.Context, traced bool) (*unit, error)
	reference(ctx context.Context) (digest, source string, err error)
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "paper-gsfl":
		// One unit is one evaluation period of the paper scale, so the
		// timed rounds carry the program's own evaluation cadence.
		sc, err := cliutil.ParseScale("paper")
		if err != nil {
			return nil, err
		}
		spec, rounds := sc.Spec, sc.EvalEvery
		if cfg.short {
			spec, rounds = env.TestSpec(), 2
		}
		spec.Seed = cfg.seed
		return &simWorkload{name: name, cfg: cfg, spec: spec, rounds: rounds, evalEvery: rounds}, nil
	case "pop-churn":
		// The population benchmark never evaluates; one evaluation at the
		// end of a unit gives the digest a curve point.
		rounds := 40
		if cfg.short {
			rounds = 4
		}
		return &simWorkload{name: name, cfg: cfg, spec: popChurnSpec(cfg), rounds: rounds, evalEvery: rounds}, nil
	case "wire":
		rounds := 500
		if cfg.short {
			rounds = 20
		}
		return &wireWorkload{cfg: cfg, rounds: rounds, steps: 16, batch: 64}, nil
	case "figures":
		return &figuresWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames)
}

const workloadNames = "paper-gsfl|pop-churn|wire|figures"

// popChurnSpec is the population-engine world: a million-member
// churning, profile-mixed population feeding 200 client slots, with an
// 8x8 MLP small enough to stay under the GEMM threshold.
func popChurnSpec(cfg config) env.Spec {
	spec := env.TestSpec()
	spec.Clients = 200
	spec.Groups = 20
	spec.Arch = "mlp"
	spec.ImageSize = 8
	spec.TrainPerClient = 32
	spec.TestPerClass = 2
	spec.Hyper.Batch = 8
	spec.Hyper.StepsPerClient = 1
	spec.Device.N = spec.Clients
	spec.Population = 1_000_000
	if cfg.short {
		spec.Population = 20_000
	}
	spec.SampleFraction = float64(spec.Clients) / float64(spec.Population) // cohort = every slot
	spec.AvailTrace = "onoff"
	spec.DeviceProfileMix = "low-end:0.25,baseline:0.5,high-end:0.25"
	spec.Seed = cfg.seed
	return spec
}

// simWorkload trains GSFL through sim.Runner; one unit is env.Build +
// sim.New (set-up) followed by a fixed number of rounds, evaluated
// every evalEvery rounds.
type simWorkload struct {
	name              string
	cfg               config
	spec              env.Spec
	rounds, evalEvery int
}

func (w *simWorkload) run(ctx context.Context, traced bool) (*unit, error) {
	return w.unit(ctx, traced, w.cfg.procs)
}

// reference is the recorded digest for the seed or, failing that, a
// replay of one unit on a serial pool: the determinism contract makes
// its curve and ledgers bit-identical to any worker count.
func (w *simWorkload) reference(ctx context.Context) (string, string, error) {
	return referenceDigest(w.name, w.cfg, func() (*unit, error) { return w.unit(ctx, false, 1) })
}

func (w *simWorkload) unit(ctx context.Context, traced bool, workers int) (*unit, error) {
	start := time.Now()
	world, err := env.Build(w.spec)
	if err != nil {
		return nil, err
	}
	var p *probes
	if traced {
		p = &probes{}
		p.instrument(world)
	}
	opts, err := w.spec.SchemeOptions()
	if err != nil {
		return nil, err
	}
	tr, err := sim.New("gsfl", world, opts)
	if err != nil {
		return nil, err
	}
	u := &unit{setup: time.Since(start).Seconds(), ops: w.rounds}

	// The digest covers every round's latency ledger bits and every
	// curve point's bits.
	h := sha256.New()
	runner := sim.NewRunner(tr,
		sim.WithRounds(w.rounds),
		sim.WithEvalEvery(w.evalEvery),
		sim.WithWorkers(workers),
		sim.WithObserver(sim.ObserverFunc(func(e sim.RoundEvent) {
			u.rounds = append(u.rounds, e.HostSeconds)
			for _, c := range simnet.Components() {
				putFloat(h, e.Ledger.Get(c))
			}
		})))
	var curve *sim.Curve
	u.mem = measureMem(func() {
		t0 := time.Now()
		curve, err = runner.Run(ctx)
		u.makespan = time.Since(t0).Seconds()
	})
	if err != nil {
		return nil, err
	}
	for _, pt := range curve.Points {
		putFloat(h, float64(pt.Round))
		putFloat(h, pt.LatencySeconds)
		putFloat(h, pt.Loss)
		putFloat(h, pt.Accuracy)
	}
	u.digest = sum(h)
	hp := w.spec.Hyper
	u.samples = float64(w.rounds * w.spec.Clients * hp.StepsPerClient * hp.Batch)
	if traced {
		u.layers = p.layerTotals()
	}
	return u, nil
}

// wireWorkload drives env.RunLoadGen over loopback: nproc synthetic
// clients in nproc groups, no faults. One unit is one load run.
type wireWorkload struct {
	cfg                  config
	rounds, steps, batch int
}

func (w *wireWorkload) turns() int { return w.cfg.procs * w.rounds }

// reference is the only fault-free outcome: every slot contributes a
// fresh turn every round.
func (w *wireWorkload) reference(context.Context) (string, string, error) {
	return wireDigest(w.turns(), 0, 0), "invariant", nil
}

func wireDigest(participants, stragglers, skipped int) string {
	return fmt.Sprintf("participants=%d stragglers=%d skipped=%d", participants, stragglers, skipped)
}

func (w *wireWorkload) run(_ context.Context, traced bool) (*unit, error) {
	var tracer *obs.Tracer
	if traced {
		tracer = obs.New(obs.ClockWall)
	}
	u := &unit{ops: w.turns()}
	var firstRound time.Time
	cfg := env.LoadGenConfig{
		Clients: w.cfg.procs, Groups: w.cfg.procs, Rounds: w.rounds,
		StepsPerClient: w.steps, Batch: w.batch,
		Seed:   w.cfg.seed,
		Tracer: tracer,
		OnRound: func(s env.RoundStats) {
			if len(u.rounds) == 0 {
				firstRound = time.Now().Add(-s.Duration)
			}
			u.rounds = append(u.rounds, s.Duration.Seconds())
		},
	}
	var (
		rep *env.LoadGenReport
		err error
	)
	start := time.Now()
	u.mem = measureMem(func() { rep, err = env.RunLoadGen(cfg) })
	if err != nil {
		return nil, err
	}
	u.setup = firstRound.Sub(start).Seconds()
	u.makespan = rep.WallSeconds
	u.failed = u.ops - rep.ParticipantsTotal
	u.samples = float64(rep.ParticipantsTotal * w.steps * w.batch)
	u.digest = wireDigest(rep.ParticipantsTotal, rep.StragglersTotal, rep.SkippedTotal)
	if traced {
		if u.layers, err = wireSpans(tracer); err != nil {
			return nil, err
		}
		u.layers["wire.bytes"] = float64(rep.BytesRead + rep.BytesWritten)
	}
	return u, nil
}

// figuresWorkload regenerates the test-scale paper catalogue through
// sweep.Scheduler into a fresh store with in-flight checkpoints. One
// unit is one whole sweep.
type figuresWorkload struct {
	cfg config
	n   int // units run, for fresh store directories
}

func (w *figuresWorkload) run(ctx context.Context, traced bool) (*unit, error) {
	return w.sweep(ctx, traced, w.cfg.procs)
}

// reference is the recorded digest for the seed or, failing that, the
// store regenerated one job at a time on a serial pool: compacted store
// bytes are independent of the schedule by contract.
func (w *figuresWorkload) reference(ctx context.Context) (string, string, error) {
	return referenceDigest("figures", w.cfg, func() (*unit, error) { return w.sweep(ctx, false, 1) })
}

func (w *figuresWorkload) sweep(ctx context.Context, traced bool, jobs int) (*unit, error) {
	w.n++
	dir := filepath.Join(w.cfg.dir, fmt.Sprintf("figures-%d-%d", os.Getpid(), w.n))
	defer os.RemoveAll(dir)
	var tracer *obs.Tracer
	if traced {
		tracer = obs.New(obs.ClockWall)
	}

	start := time.Now()
	sc, err := cliutil.ParseScale("test")
	if err != nil {
		return nil, err
	}
	spec := sc.Spec
	spec.Seed = w.cfg.seed
	exp, rounds := "all", sc.Rounds
	if w.cfg.short {
		exp, rounds = "fig2b", 2
	}
	sel, err := sweep.SelectGridExperiments(sweep.GridExperiments(spec, rounds, sc.EvalEvery, sc.Target), exp)
	if err != nil {
		return nil, err
	}
	store, err := sweep.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	u := &unit{setup: time.Since(start).Seconds()}

	seen := map[string]bool{}
	for _, j := range sel.Jobs {
		if !seen[j.ID] {
			seen[j.ID] = true
			u.ops++
			hp := j.Spec.Hyper
			u.samples += float64(j.Rounds * j.Spec.Clients * hp.StepsPerClient * hp.Batch)
		}
	}
	sched := &sweep.Scheduler{
		Jobs:            jobs,
		Workers:         jobs,
		CheckpointEvery: 1,
		Tracer:          tracer,
		// Observer calls are serialized by the scheduler.
		Observers: []sweep.Observer{sweep.ObserverFunc(func(e sweep.Event) {
			if e.Kind == sweep.JobRound {
				u.rounds = append(u.rounds, e.HostSeconds)
			}
		})},
	}
	var t0, t1 time.Time
	u.mem = measureMem(func() {
		t0 = time.Now()
		_, err = sched.Run(ctx, sel.Jobs, store)
		t1 = time.Now()
	})
	if err != nil {
		return nil, err
	}
	u.makespan = t1.Sub(t0).Seconds()
	if u.digest, err = storeDigest(dir); err != nil {
		return nil, err
	}
	if traced {
		if u.layers, err = sweepSpans(tracer, tracer.Since(t0), tracer.Since(t1), jobs); err != nil {
			return nil, err
		}
		// The store's cost is what the same traced sweep saves without a
		// store: checkpoint writes run inside the round spans and world
		// building inside the job spans, so no span isolates it.
		bare := &sweep.Scheduler{Jobs: jobs, Workers: jobs, Tracer: obs.New(obs.ClockWall)}
		t0 = time.Now()
		if _, err := bare.Run(ctx, sel.Jobs, nil); err != nil {
			return nil, err
		}
		u.layers["sweep.store_s"] = u.makespan - time.Since(t0).Seconds()
	}
	return u, nil
}

// referenceDigest looks the workload's digest for cfg.seed up in the
// recorded table and, for a seed (or scale, or architecture) it does not
// hold, computes it with replay.
func referenceDigest(name string, cfg config, replay func() (*unit, error)) (string, string, error) {
	if d, ok := recordedDigests[name][cfg.seed]; ok && !cfg.short && runtime.GOARCH == recordedArch {
		return d, "recorded", nil
	}
	u, err := replay()
	if err != nil {
		return "", "replay", err
	}
	return u.digest, "replay", nil
}

// storeDigest hashes the compacted manifest and every curve file, by
// name, in sorted order.
func storeDigest(dir string) (string, error) {
	h := sha256.New()
	files := []string{"manifest.jsonl"}
	curves, err := filepath.Glob(filepath.Join(dir, "curves", "*"))
	if err != nil {
		return "", err
	}
	sort.Strings(curves)
	for _, c := range curves {
		rel, err := filepath.Rel(dir, c)
		if err != nil {
			return "", err
		}
		files = append(files, rel)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return sum(h), nil
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
