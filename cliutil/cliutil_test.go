package cliutil

import (
	"flag"
	"strings"
	"testing"

	"gsfl/env"
)

func TestParseScale(t *testing.T) {
	for _, name := range []string{"test", "medium", "paper"} {
		sc, err := ParseScale(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Spec.Clients <= 0 || sc.Rounds <= 0 || sc.EvalEvery <= 0 || sc.Target <= 0 {
			t.Fatalf("%s: nonsense scale %+v", name, sc)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Fatal("expected error for unknown scale")
	}
}

func TestEnvFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var e EnvFlags
	e.Register(fs)
	if err := fs.Parse([]string{"-alloc", "latmin", "-strategy", "balanced", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	spec := env.TestSpec()
	if err := e.Apply(&spec); err != nil {
		t.Fatal(err)
	}
	// Apply canonicalizes aliases, so hashes and CSVs record one name.
	if spec.Alloc != "latency-min" || spec.Strategy != "compute-balanced" || spec.Arch != env.DefaultArch || e.Workers != 3 {
		t.Fatalf("flags not applied: alloc=%s strategy=%s arch=%s workers=%d", spec.Alloc, spec.Strategy, spec.Arch, e.Workers)
	}
	if err := e.Apply(&spec); err != nil {
		t.Fatal(err)
	}
	bad := EnvFlags{Alloc: "nope", Strategy: "roundrobin", Arch: env.DefaultArch}
	if err := bad.Apply(&spec); err == nil {
		t.Fatal("expected allocator error")
	}
	bad = EnvFlags{Alloc: "uniform", Strategy: "nope", Arch: env.DefaultArch}
	if err := bad.Apply(&spec); err == nil {
		t.Fatal("expected strategy error")
	}
	bad = EnvFlags{Alloc: "uniform", Strategy: "roundrobin", Arch: "nope"}
	if err := bad.Apply(&spec); err == nil {
		t.Fatal("expected architecture error")
	}
	bad = EnvFlags{Alloc: "uniform", Strategy: "roundrobin", Arch: env.DefaultArch, Workers: -1}
	if err := bad.Apply(&spec); err == nil || !strings.Contains(err.Error(), "-workers") {
		t.Fatalf("negative -workers: got %v, want a -workers error", err)
	}
}

func TestPopFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	var p PopFlags
	p.Register(fs)
	if err := fs.Parse([]string{
		"-population", "24", "-sample-fraction", "0.25",
		"-avail-trace", "onoff", "-profile-mix", "low-end:0.5,baseline:0.5",
	}); err != nil {
		t.Fatal(err)
	}
	spec := env.TestSpec()
	if err := p.Apply(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Population != 24 || spec.SampleFraction != 0.25 ||
		spec.AvailTrace != "onoff" || spec.DeviceProfileMix != "low-end:0.5,baseline:0.5" {
		t.Fatalf("flags not applied: %+v", spec)
	}
	// Zero-valued flags leave the classic world intact.
	spec = env.TestSpec()
	if err := new(PopFlags).Apply(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.Population != 0 || spec.AvailTrace != "" {
		t.Fatalf("zero flags must not configure a population: %+v", spec)
	}
	// Field-specific errors surface the flag at fault.
	bad := PopFlags{Population: 24, SampleFraction: 0.25, AvailTrace: "nope"}
	spec = env.TestSpec()
	if err := bad.Apply(&spec); err == nil || !strings.Contains(err.Error(), "AvailTrace") {
		t.Fatalf("want an AvailTrace error, got %v", err)
	}
}

func TestPrintRegistries(t *testing.T) {
	var sb strings.Builder
	PrintRegistries(&sb)
	out := sb.String()
	// One source of truth: every built-in registry name must appear.
	for _, want := range []string{
		"gsfl", "sl", "fl", "cl", "sfl", // schemes
		"uniform", "proportional-fair", "latency-min", // allocators
		"round-robin", "random", "compute-balanced", // strategies
		"gtsrb-cnn", "deepthin-cnn", "mlp", // archs
		"gtsrb-synth",        // datasets
		"drop", "reuse-last", // straggler policies
		"always-on", "onoff", "diurnal", // availability traces
		"baseline", "low-end", "high-end", // device profiles
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q:\n%s", want, out)
		}
	}
}
