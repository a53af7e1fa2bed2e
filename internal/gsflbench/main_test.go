package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gsfl/env"
	"gsfl/internal/nn"
)

// TestLayerWrapperForwardsNoDecay: nn.Sequential finds NoDecay by type
// assertion, so the timing decorator must keep exposing it, and a
// traced deepthin-cnn (BatchNorm, dropout) run must keep its curve.
func TestLayerWrapperForwardsNoDecay(t *testing.T) {
	spec := env.TestSpec()
	spec.Arch = "deepthin-cnn"
	spec.Cut = 4
	world, err := env.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	plain := world.Arch.Build(rand.New(rand.NewSource(1)))
	var p probes
	p.instrument(world)
	wrapped := world.Arch.Build(rand.New(rand.NewSource(1)))
	for i, l := range wrapped {
		if _, ok := l.(*timedLayer); !ok {
			if _, ok := l.(timedNoDecayLayer); !ok {
				t.Fatalf("layer %d (%s) is not wrapped", i, l.Name())
			}
		}
	}
	want := nn.NewSequential(plain...).DecayMask()
	got := nn.NewSequential(wrapped...).DecayMask()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decay mask through the wrapper = %v, want %v", got, want)
	}

	w := &simWorkload{name: "paper-gsfl", cfg: config{seed: 1, procs: 2}, spec: spec, rounds: 2, evalEvery: 1}
	a, err := w.unit(context.Background(), false, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.unit(context.Background(), true, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest != b.digest {
		t.Fatalf("traced digest %s, untraced %s", b.digest, a.digest)
	}
	if b.layers["nn.conv.fwd_s"] <= 0 || b.layers["nn.calls"] <= 0 {
		t.Fatalf("traced unit recorded no conv time: %v", b.layers)
	}
}

// goldenShort pins the short-mode output digests for seed 1: a change
// means the program's outputs changed. (The wire reference is the
// fault-free invariant itself, which depends on nproc.)
var goldenShort = map[string]string{
	"paper-gsfl": "78e71f3e0867eb2c",
	"pop-churn":  "6813a1761212d5c0",
	"figures":    "965c1c4886581385",
}

// TestRecordedDigestsMatch runs one full-scale figures sweep and checks
// it against the recorded digest for its seed, so the table keeps
// describing the program's outputs.
func TestRecordedDigestsMatch(t *testing.T) {
	if testing.Short() || runtime.GOARCH != recordedArch {
		t.Skip("full-scale sweep; digests recorded on " + recordedArch)
	}
	ctx := context.Background()
	w, err := newWorkload("figures", config{seed: 1, procs: runtime.NumCPU(), dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	u, err := w.run(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	want, source, err := w.reference(ctx)
	if err != nil || source != "recorded" {
		t.Fatalf("reference for seed 1: source %q, err %v", source, err)
	}
	if u.digest != want {
		t.Fatalf("figures seed 1 digest %s, recorded %s", u.digest, want)
	}
}

// TestShortWorkloads runs every workload's short mode end to end, with
// tracing off and on, and checks the printed metric names.
func TestShortWorkloads(t *testing.T) {
	for _, name := range []string{"paper-gsfl", "pop-churn", "wire", "figures"} {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 1, seconds: 0.01, trace: trace, short: true, dir: t.TempDir()}
			res, rec, err := bench(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(rec.Errors) > 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d errors=%v digests=%v reference=%s",
					name, trace, res.Correct, res.Attempted, res.Failed, rec.Errors, rec.Digests, rec.Reference)
			}
			if g, ok := goldenShort[name]; ok && rec.Reference != g {
				t.Errorf("%s: reference digest %s, golden %s", name, rec.Reference, g)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Fatalf("%s trace=%v: metric %s = %+v", name, trace, d.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, v.Value)
				}
			}
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metrics in step
// with the repository's BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metric, got []struct{ Name, Unit string }) {
		var want, have []string
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		for _, g := range got {
			have = append(have, g.Name+" "+g.Unit)
		}
		if !reflect.DeepEqual(have, want) {
			t.Errorf("%s metrics in BENCHMARK.json:\n  %s\nprinted:\n  %s", kind,
				strings.Join(have, "\n  "), strings.Join(want, "\n  "))
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, config{seed: 1, procs: 1}); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
}

// TestResultLine checks the output contract: the last line of standard
// output is the result object with exactly its four keys.
func TestResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	o := options{workload: "wire", seed: 2, seconds: 0.01, short: true, dir: t.TempDir()}
	if err := emit(context.Background(), o, "gsflbench", &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	if len(keys) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("result keys %v", keys)
	}
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); pct != 90 || v != 90 {
		t.Fatalf("tail of 1..100 = %g at p%d, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:20]); pct != 50 || v != 10 {
		t.Fatalf("tail of 1..20 = %g at p%d, want 10 at p50", v, pct)
	}
}
