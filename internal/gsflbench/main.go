// Command gsflbench is the repository's benchmark. It runs one of four
// closed-loop workloads for a fixed time from a single process, checks
// the outputs of every unit it ran against a reference digest for the
// seed, and prints a run record line followed by one JSON result line:
//
//	go run ./internal/gsflbench --workload paper-gsfl --seed 1 --seconds 20 --trace 0
//
// Workloads (all sized for nproc: pool workers, sweep jobs and wire
// connections never exceed it):
//
//   - paper-gsfl: env.PaperSpec through sim.Runner — the paper's
//     configuration, compute-bound in conv.
//   - pop-churn: a million-member churning population through
//     sim.Runner with a tiny MLP — dominated by pop.BeginRound.
//   - wire: env.RunLoadGen over loopback, nproc synthetic clients —
//     framing, socket I/O and AP turn orchestration.
//   - figures: the test-scale paper catalogue through sweep.Scheduler
//     into a fresh checkpointing store.
//
// --trace 0 reports the end-to-end metrics with tracing off. --trace 1
// alternates untraced and traced units and reports the per-layer
// metrics: the traced units time internal/nn, internal/data,
// internal/wireless and pop through decorators swapped into the built
// world, and read the wall-clock obs spans of internal/transport and
// sweep. run.sh builds the program inside the checkout and runs it.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct{ name, unit string }

// endToEnd and perLayer are the metrics --trace 0 and --trace 1 print,
// in BENCHMARK.json's order (a test keeps the two in step).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"round_s.p50", "s"},
	{"round_s.tail", "s"},
	{"samples_per_s", "1/s"},
	{"makespan_s", "s"},
	{"rss_peak_mb", "MB"},
	{"success_rate", "share"},
}

var perLayer = []metric{
	{"nn.conv.fwd_s", "s"}, {"nn.conv.bwd_s", "s"},
	{"nn.pool.fwd_s", "s"}, {"nn.pool.bwd_s", "s"},
	{"nn.relu.fwd_s", "s"}, {"nn.relu.bwd_s", "s"},
	{"nn.dense.fwd_s", "s"}, {"nn.dense.bwd_s", "s"},
	{"nn.calls", "count"}, {"nn.client_s", "s"}, {"nn.server_s", "s"},
	{"cpu.busy_share", "share"},
	{"data.sample_s", "s"}, {"data.samples", "count"},
	{"wireless.alloc_s", "s"}, {"wireless.alloc_calls", "count"},
	{"pop.begin_round_s", "s"}, {"pop.begin_round_share", "share"}, {"pop.online", "count"},
	{"wire.write_train_s", "s"}, {"wire.read_smashed_s", "s"}, {"wire.server_compute_s", "s"},
	{"wire.write_gradient_s", "s"}, {"wire.read_return_s", "s"}, {"wire.turn_self_s", "s"},
	{"wire.bytes_per_round", "B"},
	{"sweep.job_s", "s"}, {"sweep.store_s", "s"}, {"sweep.idle_share", "share"},
	{"sweep.tail_s", "s"}, {"sweep.jobs", "count"},
	{"go.allocs_per_round", "count"}, {"go.bytes_per_round", "B"}, {"go.gc_s", "s"},
	{"trace.overhead", "share"},
}

// minUnits is how many untraced units a --trace 0 run completes even
// past its deadline, so set-up time is always a median of several.
const minUnits = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool // the small shapes the tests run
	dir      string
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the run's provenance and sample detail, printed on the line
// before the result.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Command   string            `json:"command"`
	Host      host              `json:"host"`
	Commit    string            `json:"commit"`
	Units     int               `json:"units"`
	Traced    int               `json:"traced_units"`
	Rounds    int               `json:"rounds"`
	TailPct   int               `json:"round_s_tail_percentile"`
	ErrorRate float64           `json:"error_rate"`
	Spreads   map[string]spread `json:"spreads"`
	Digests   []string          `json:"digests"`
	Reference string            `json:"reference_digest"`
	RefSource string            `json:"reference_source"` // recorded, replay or invariant
	Errors    []string          `json:"errors,omitempty"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Flags      string `json:"cpu_flags"`
	Go         string `json:"go"`
	Platform   string `json:"platform"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gsflbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	fs.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "stores"), "scratch directory for sweep stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "gsflbench: --trace %d: want 0 or 1\n", traceFlag)
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "gsflbench: --seconds %g: want > 0\n", o.seconds)
		return 2
	}
	o.trace = traceFlag == 1
	// A unit that hangs (a wedged socket, say) must not hold the run
	// forever: give up without a result well after the last unit is due.
	watchdog := time.AfterFunc(time.Duration(o.seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintln(stderr, "gsflbench: run overran its time; giving up")
		os.Exit(1)
	})
	defer watchdog.Stop()
	command := strings.Join(os.Args, " ")
	if wrapper := os.Getenv("GSFLBENCH_COMMAND"); wrapper != "" {
		command = wrapper
	}
	if err := emit(context.Background(), o, command, stdout); err != nil {
		fmt.Fprintf(stderr, "gsflbench: %v\n", err)
		return 1
	}
	return 0
}

// emit runs the benchmark and prints the run record line and, last, the
// result line.
func emit(ctx context.Context, o options, command string, stdout io.Writer) error {
	res, rec, err := bench(ctx, o)
	if err != nil {
		return err
	}
	rec.Command = command
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// bench runs the workload's closed loop for o.seconds, verifies every
// unit against the reference digest, and folds the units into metrics.
func bench(ctx context.Context, o options) (result, record, error) {
	cfg := config{seed: o.seed, short: o.short, procs: runtime.NumCPU(), dir: o.dir}
	w, err := newWorkload(o.workload, cfg)
	if err != nil {
		return result{}, record{}, err
	}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, record{}, err
	}
	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: hostInfo(), Commit: commit()}

	var plain, traced []*unit
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		enough := len(plain) >= minUnits
		if o.trace {
			enough = len(plain) >= 1 && len(traced) >= 1
		}
		if time.Now().After(deadline) && (enough || len(rec.Errors) > 0) {
			break
		}
		tracedUnit := o.trace && i%2 == 1
		runtime.GC() // every unit starts from a collected heap
		u, err := w.run(ctx, tracedUnit)
		if err != nil {
			rec.Errors = append(rec.Errors, err.Error())
			continue
		}
		if tracedUnit {
			traced = append(traced, u)
		} else {
			plain = append(plain, u)
		}
	}
	rssMB := peakRSSMB()

	// A unit or reference that returned an error counts as one failed
	// operation of its own.
	ref, source, err := w.reference(ctx)
	if err != nil {
		rec.Errors = append(rec.Errors, "reference: "+err.Error())
	}
	rec.Reference, rec.RefSource = ref, source
	res := result{Failed: len(rec.Errors), Attempted: len(rec.Errors)}
	for _, u := range append(append([]*unit(nil), plain...), traced...) {
		res.Attempted += u.ops
		res.Failed += u.failed
		if u.digest != ref {
			res.Failed += u.ops - u.failed // every operation of a wrong unit failed
		}
		rec.Digests = append(rec.Digests, u.digest)
	}
	res.Correct = res.Failed == 0
	rec.Units, rec.Traced = len(plain), len(traced)
	rec.ErrorRate = float64(res.Failed) / float64(res.Attempted)

	if o.trace {
		rounds := roundsOf(traced)
		rec.Rounds, rec.Spreads = len(rounds), map[string]spread{"round_s": spreadOf(rounds)}
		res.Metrics = values(perLayer, layerMetrics(plain, traced, cfg.procs))
	} else {
		rec.Spreads = map[string]spread{}
		res.Metrics = values(endToEnd, endToEndMetrics(plain, rssMB, res, &rec))
	}
	return res, rec, nil
}

func values(defs []metric, m map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // no unit completed: the result reports the failures
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out
}

func roundsOf(us []*unit) []float64 {
	var r []float64
	for _, u := range us {
		r = append(r, u.rounds...)
	}
	return r
}

func total(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func endToEndMetrics(plain []*unit, rssMB float64, res result, rec *record) map[string]float64 {
	var setups, makespans, rates []float64
	samples, busy := 0.0, 0.0
	for _, u := range plain {
		setups = append(setups, u.setup)
		makespans = append(makespans, u.makespan)
		rates = append(rates, u.samples/u.makespan)
		samples += u.samples
		busy += u.makespan
	}
	rounds := roundsOf(plain)
	tailV, pct := tail(rounds)
	rec.Rounds, rec.TailPct = len(rounds), pct
	rec.Spreads["setup_s"] = spreadOf(setups)
	rec.Spreads["round_s"] = spreadOf(rounds)
	rec.Spreads["makespan_s"] = spreadOf(makespans)
	rec.Spreads["samples_per_s"] = spreadOf(rates)
	return map[string]float64{
		"setup_s":       median(setups),
		"round_s.p50":   median(rounds),
		"round_s.tail":  tailV,
		"samples_per_s": samples / busy,
		"makespan_s":    median(makespans),
		"rss_peak_mb":   rssMB,
		"success_rate":  float64(res.Attempted-res.Failed) / float64(res.Attempted),
	}
}

// layerMetrics normalizes the traced units' totals per round (per sweep
// for the sweep layer); the Go runtime figures come from the untraced
// units, which the tracing decorators cannot inflate.
func layerMetrics(plain, traced []*unit, procs int) map[string]float64 {
	tot := map[string]float64{}
	for _, u := range traced {
		for k, v := range u.layers {
			tot[k] += v
		}
	}
	tRounds := roundsOf(traced)
	n, wall := float64(len(tRounds)), total(tRounds)
	m := map[string]float64{}
	for _, d := range perLayer {
		if strings.HasPrefix(d.name, "sweep.") {
			m[d.name] = tot[d.name] / float64(len(traced))
		} else {
			m[d.name] = tot[d.name] / n
		}
	}
	m["wire.bytes_per_round"] = tot["wire.bytes"] / n
	m["cpu.busy_share"] = (tot["nn.client_s"] + tot["nn.server_s"]) / (wall * float64(procs))
	m["pop.begin_round_share"] = tot["pop.begin_round_s"] / wall
	m["pop.online"] = 0
	if tot["pop.begin_rounds"] > 0 {
		m["pop.online"] = tot["pop.online_sum"] / tot["pop.begin_rounds"]
	}

	var mallocs, bytes, gcNs uint64
	for _, u := range plain {
		mallocs += u.mem.mallocs
		bytes += u.mem.bytes
		gcNs += u.mem.gcNs
	}
	pRounds := roundsOf(plain)
	pn := float64(len(pRounds))
	m["go.allocs_per_round"] = float64(mallocs) / pn
	m["go.bytes_per_round"] = float64(bytes) / pn
	m["go.gc_s"] = float64(gcNs) / 1e9 / pn
	m["trace.overhead"] = median(tRounds)/median(pRounds) - 1
	return m
}

// peakRSSMB is the process's peak resident set (VmHWM), from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func hostInfo() host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() && (h.CPU == "" || h.Flags == "") {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			h.CPU = strings.TrimSpace(v)
		case "flags":
			h.Flags = strings.TrimSpace(v)
		}
	}
	return h
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built in a git work tree, otherwise a hash of the
// module's Go sources and go.mod under the working directory.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return "unknown"
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return "source-sha256:" + sum(h)
}
