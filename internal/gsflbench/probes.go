package main

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"gsfl/env"
	"gsfl/internal/data"
	"gsfl/internal/nn"
	"gsfl/internal/schemes"
	"gsfl/internal/tensor"
	"gsfl/internal/wireless"
)

// The probes below time the simulator's layers from outside: a traced
// unit replaces the public fields of the world env.Build returns with
// decorators that forward every call unchanged and add its wall time
// to shared atomic counters. Nothing in the program gains a hook, and
// the decorators preserve operation order, so a traced unit's curve is
// bit-identical to an untraced one (the unit digests check this).

// Layer kinds the nn probe attributes time to; every other layer
// (flatten, batchnorm, dropout, …) still counts toward calls and the
// client/server split.
const (
	kindConv = iota
	kindPool
	kindReLU
	kindDense
	kindOther
	numKinds
)

// kindNames names the reported kinds (every kind but kindOther).
var kindNames = [kindOther]string{"conv", "pool", "relu", "dense"}

func layerKind(name string) int {
	switch {
	case strings.HasPrefix(name, "conv"):
		return kindConv
	case strings.HasPrefix(name, "maxpool"), strings.HasPrefix(name, "avgpool"):
		return kindPool
	case name == "relu":
		return kindReLU
	case strings.HasPrefix(name, "dense"):
		return kindDense
	}
	return kindOther
}

// probes accumulates per-layer busy time (nanoseconds, summed over
// goroutines) and call counts for one traced unit.
type probes struct {
	fwd, bwd       [numKinds]atomic.Int64
	nnCalls        atomic.Int64
	client, server atomic.Int64

	sampleNs, samples    atomic.Int64
	allocNs, allocCalls  atomic.Int64
	beginNs, beginRounds atomic.Int64
	online               atomic.Int64
}

// instrument swaps the world's layer builder, datasets, allocator and
// population for timing decorators feeding p. Call it before sim.New:
// schemes build their model replicas through Arch.Build.
func (p *probes) instrument(world *env.Env) {
	build, cut := world.Arch.Build, world.Cut
	world.Arch.Build = func(rng *rand.Rand) []nn.Layer {
		ls := build(rng)
		for i, l := range ls {
			ls[i] = p.wrapLayer(l, i >= cut)
		}
		return ls
	}
	for i, d := range world.Train {
		world.Train[i] = timedDataset{d, p}
	}
	world.Test = timedDataset{world.Test, p}
	world.Alloc = timedAlloc{world.Alloc, p}
	if world.Pop != nil {
		world.Pop = timedCohort{world.Pop, p}
	}
}

// timedLayer decorates one nn.Layer; the embedded interface forwards
// Name, Params, Grads, OutShape and FwdFLOPs untouched.
type timedLayer struct {
	nn.Layer
	kind   int
	server bool
	p      *probes
}

// timedNoDecayLayer additionally forwards nn.NoDecay, which
// nn.Sequential discovers by type assertion: without it a wrapped
// BatchNorm would start decaying its parameters and change the curve.
type timedNoDecayLayer struct {
	*timedLayer
	nd nn.NoDecay
}

func (l timedNoDecayLayer) NoDecayParams() []bool { return l.nd.NoDecayParams() }

func (p *probes) wrapLayer(l nn.Layer, server bool) nn.Layer {
	t := &timedLayer{Layer: l, kind: layerKind(l.Name()), server: server, p: p}
	if nd, ok := l.(nn.NoDecay); ok {
		return timedNoDecayLayer{t, nd}
	}
	return t
}

func (l *timedLayer) record(acc *[numKinds]atomic.Int64, start time.Time) {
	ns := int64(time.Since(start))
	acc[l.kind].Add(ns)
	l.p.nnCalls.Add(1)
	if l.server {
		l.p.server.Add(ns)
	} else {
		l.p.client.Add(ns)
	}
}

func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	start := time.Now()
	y := l.Layer.Forward(x, train)
	l.record(&l.p.fwd, start)
	return y
}

func (l *timedLayer) Backward(dy *tensor.Tensor) *tensor.Tensor {
	start := time.Now()
	dx := l.Layer.Backward(dy)
	l.record(&l.p.bwd, start)
	return dx
}

type timedDataset struct {
	data.Dataset
	p *probes
}

func (d timedDataset) Sample(i int) ([]float64, int) {
	start := time.Now()
	x, y := d.Dataset.Sample(i)
	d.p.sampleNs.Add(int64(time.Since(start)))
	d.p.samples.Add(1)
	return x, y
}

type timedAlloc struct {
	wireless.Allocator
	p *probes
}

func (a timedAlloc) Allocate(ch *wireless.Channel, clients []int, budgetHz float64, uplink bool) []float64 {
	start := time.Now()
	out := a.Allocator.Allocate(ch, clients, budgetHz, uplink)
	a.p.allocNs.Add(int64(time.Since(start)))
	a.p.allocCalls.Add(1)
	return out
}

type timedCohort struct {
	schemes.Cohort
	p *probes
}

func (c timedCohort) BeginRound(round int) ([]schemes.SlotBinding, error) {
	start := time.Now()
	b, err := c.Cohort.BeginRound(round)
	c.p.beginNs.Add(int64(time.Since(start)))
	c.p.beginRounds.Add(1)
	if o, ok := c.Cohort.(interface{ Online() int }); ok {
		c.p.online.Add(int64(o.Online()))
	}
	return b, err
}

// layerTotals folds the counters into seconds and counts, keyed by the
// per-layer metric they feed (before per-round normalization).
func (p *probes) layerTotals() map[string]float64 {
	s := func(v *atomic.Int64) float64 { return float64(v.Load()) / 1e9 }
	m := map[string]float64{
		"nn.calls":             float64(p.nnCalls.Load()),
		"nn.client_s":          s(&p.client),
		"nn.server_s":          s(&p.server),
		"data.sample_s":        s(&p.sampleNs),
		"data.samples":         float64(p.samples.Load()),
		"wireless.alloc_s":     s(&p.allocNs),
		"wireless.alloc_calls": float64(p.allocCalls.Load()),
		"pop.begin_round_s":    s(&p.beginNs),
	}
	for k, name := range kindNames {
		m["nn."+name+".fwd_s"] = s(&p.fwd[k])
		m["nn."+name+".bwd_s"] = s(&p.bwd[k])
	}
	m["pop.online_sum"] = float64(p.online.Load())
	m["pop.begin_rounds"] = float64(p.beginRounds.Load())
	return m
}
