package pop

import (
	"math"
	"strings"
	"testing"

	"gsfl/internal/schemes"
)

func testConfig() Config {
	return Config{
		Members:    5000,
		Slots:      50,
		Cohort:     20,
		Trace:      "onoff",
		ProfileMix: "low-end:0.3,baseline:0.5,high-end:0.2",
		Seed:       42,
	}
}

// TestDeterminism pins the core contract: two populations built from
// the same config produce identical binding sequences, and a third
// that jumps straight to round R via replay lands on the same cohort.
func TestDeterminism(t *testing.T) {
	a, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	var lastA []schemes.SlotBinding
	for r := 1; r <= rounds; r++ {
		ba, err := a.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(ba) == 0 {
			t.Fatalf("round %d: empty cohort from a 2/3-available population", r)
		}
		if len(ba) != len(bb) {
			t.Fatalf("round %d: cohort sizes differ: %d vs %d", r, len(ba), len(bb))
		}
		for i := range ba {
			if ba[i] != bb[i] {
				t.Fatalf("round %d binding %d: %+v vs %+v", r, i, ba[i], bb[i])
			}
		}
		lastA = append(lastA[:0], ba...)
	}

	// Replay: a fresh population asked directly for round `rounds`.
	c, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bc, err := c.BeginRound(rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc) != len(lastA) {
		t.Fatalf("replay cohort size %d, want %d", len(bc), len(lastA))
	}
	for i := range bc {
		if bc[i] != lastA[i] {
			t.Fatalf("replay binding %d: %+v, want %+v", i, bc[i], lastA[i])
		}
	}
	if a.Online() != c.Online() {
		t.Fatalf("replay online count %d, want %d", c.Online(), a.Online())
	}
}

// TestBindingInvariants checks the structural promises schemes rely
// on: dense slots in order, unique members, shards within range,
// positive speeds, and no member sampled twice in one round.
func TestBindingInvariants(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 20; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(binds) > p.CohortTarget() {
			t.Fatalf("round %d: %d bindings exceed cohort target %d", r, len(binds), p.CohortTarget())
		}
		seen := map[int64]bool{}
		for i, b := range binds {
			if b.Slot != i {
				t.Fatalf("round %d: binding %d has slot %d, want dense order", r, i, b.Slot)
			}
			if seen[b.Member] {
				t.Fatalf("round %d: member %d sampled twice", r, b.Member)
			}
			seen[b.Member] = true
			if b.Shard < 0 || b.Shard >= 50 {
				t.Fatalf("round %d: shard %d outside [0,50)", r, b.Shard)
			}
			if b.Shard != int(b.Member)%50 {
				t.Fatalf("round %d: member %d mapped to shard %d, want %d", r, b.Member, b.Shard, int(b.Member)%50)
			}
			if b.Speed <= 0 {
				t.Fatalf("round %d: non-positive speed %v", r, b.Speed)
			}
		}
	}
}

// TestRoundsMustAdvance pins the monotonic-round contract.
func TestRoundsMustAdvance(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginRound(3); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginRound(3); err == nil {
		t.Fatal("repeated round accepted")
	}
	if _, err := p.BeginRound(2); err == nil {
		t.Fatal("rewound round accepted")
	}
}

// TestAlwaysOnKeepsEveryoneOnline: the default trace never churns and
// fills the full cohort every round.
func TestAlwaysOnKeepsEveryoneOnline(t *testing.T) {
	cfg := testConfig()
	cfg.Trace = ""
	cfg.ProfileMix = ""
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 5; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(binds) != cfg.Cohort {
			t.Fatalf("round %d: cohort %d, want full %d", r, len(binds), cfg.Cohort)
		}
		for _, b := range binds {
			if b.Speed != 1.0 {
				t.Fatalf("baseline mix produced speed %v", b.Speed)
			}
		}
	}
	if p.Online() != cfg.Members {
		t.Fatalf("always-on population has %d online, want %d", p.Online(), cfg.Members)
	}
}

// TestLoaderSeedAdvances: a member that participates twice gets a
// different loader seed each time (fresh batch orders on return).
func TestLoaderSeedAdvances(t *testing.T) {
	cfg := testConfig()
	cfg.Members = 50 // tiny population: members recur quickly
	cfg.Slots = 50
	cfg.Cohort = 40
	cfg.Trace = ""
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[int64][]int64{}
	for r := 1; r <= 4; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range binds {
			seeds[b.Member] = append(seeds[b.Member], b.LoaderSeed)
		}
	}
	recurred := 0
	for m, s := range seeds {
		for i := 1; i < len(s); i++ {
			recurred++
			if s[i] == s[i-1] {
				t.Fatalf("member %d reused loader seed %d across participations", m, s[i])
			}
		}
	}
	if recurred == 0 {
		t.Fatal("test vacuous: no member participated twice")
	}
}

// TestProfileMixShares checks the member→profile assignment tracks the
// mix weights.
func TestProfileMixShares(t *testing.T) {
	cfg := testConfig()
	cfg.Members = 100000
	cfg.ProfileMix = "low-end:0.25,baseline:0.75"
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	low := 0
	for _, id := range p.profile {
		if p.mix[id].Profile.Name == "low-end" {
			low++
		}
	}
	got := float64(low) / float64(cfg.Members)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("low-end share %v, want ~0.25", got)
	}
}

// TestSamplerUniformUnderChurn: the uniform sampler under churn yields
// cohorts that can come up short (non-respondents) but never include
// an offline member.
func TestSamplerUniformUnderChurn(t *testing.T) {
	cfg := testConfig()
	cfg.Sampler = SamplerUniform
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	short := 0
	for r := 1; r <= 30; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range binds {
			if p.isOffline(b.Member) {
				t.Fatalf("round %d: offline member %d bound", r, b.Member)
			}
		}
		if len(binds) < cfg.Cohort {
			short++
		}
	}
	if short == 0 {
		t.Fatal("uniform sampling under 2/3 availability never came up short — non-response not modelled?")
	}
}

// TestSteadyStateAllocFree pins the tentpole's memory contract: after
// construction, BeginRound performs no per-call heap allocation (the
// metrics gauges are atomics, the event queue reuses its array, and
// the bindings slice is recycled).
func TestSteadyStateAllocFree(t *testing.T) {
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := 0
	warm := func() {
		r++
		if _, err := p.BeginRound(r); err != nil {
			t.Fatal(err)
		}
	}
	warm()
	allocs := testing.AllocsPerRun(100, warm)
	if allocs > 0 {
		t.Fatalf("BeginRound allocated %v times per round", allocs)
	}
}

// TestMemoryBound pins the record-array footprint: a million-member
// population feeding a cohort of 200 stays under 64 MiB and 64 B/member
// of resident record storage, both after the first round and after 50
// rounds of onoff churn (the event queue's capacity counts toward
// MemoryBytes, so growth in steady state would show here).
func TestMemoryBound(t *testing.T) {
	cfg := testConfig()
	cfg.Members = 1_000_000
	cfg.Slots = 200
	cfg.Cohort = 200
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 50; r++ {
		binds, err := p.BeginRound(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(binds) > cfg.Cohort {
			t.Fatalf("round %d: cohort of %d, want ≤ %d", r, len(binds), cfg.Cohort)
		}
		if r != 1 && r != 50 {
			continue
		}
		got := p.MemoryBytes()
		if got > 64<<20 {
			t.Fatalf("round %d: 1M-member population uses %d bytes of record storage, budget 64 MiB", r, got)
		}
		if perMember := float64(got) / float64(cfg.Members); perMember > 64 {
			t.Fatalf("round %d: %.1f bytes/member, want ≤ 64", r, perMember)
		}
	}
}

// TestConfigValidation covers the constructor's eager checks.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
		want string
	}{
		{"zero members", func(c *Config) { c.Members = 0 }, "members"},
		{"members below slots", func(c *Config) { c.Members = 10; c.Slots = 50 }, "smaller than slots"},
		{"zero cohort", func(c *Config) { c.Cohort = 0 }, "cohort"},
		{"cohort above slots", func(c *Config) { c.Cohort = 51 }, "cohort"},
		{"unknown trace", func(c *Config) { c.Trace = "nope" }, "unknown availability trace"},
		{"unknown profile", func(c *Config) { c.ProfileMix = "nope:1" }, "unknown device profile"},
		{"bad mix weight", func(c *Config) { c.ProfileMix = "baseline:-1" }, "positive"},
		{"bad mix form", func(c *Config) { c.ProfileMix = "baseline" }, "name:weight"},
		{"dup mix entry", func(c *Config) { c.ProfileMix = "baseline:1,baseline:1" }, "twice"},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.edit(&cfg)
		_, err := New(cfg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestTraceRegistry exercises the registry plumbing end to end.
func TestTraceRegistry(t *testing.T) {
	for _, want := range []string{"always-on", "diurnal", "onoff"} {
		if _, err := TraceByName(want); err != nil {
			t.Errorf("builtin trace %q missing: %v", want, err)
		}
	}
	if _, err := TraceByName("absent"); err == nil {
		t.Error("unknown trace resolved")
	}
	for _, want := range []string{"baseline", "high-end", "low-end"} {
		if _, err := ProfileByName(want); err != nil {
			t.Errorf("builtin profile %q missing: %v", want, err)
		}
	}
}

// TestParseMixNormalizes: weights are scaled to sum to one, order
// preserved.
func TestParseMixNormalizes(t *testing.T) {
	mix, err := ParseMix("high-end:2,low-end:6")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 2 || mix[0].Profile.Name != "high-end" || mix[1].Profile.Name != "low-end" {
		t.Fatalf("mix order/contents wrong: %+v", mix)
	}
	if math.Abs(mix[0].Weight-0.25) > 1e-12 || math.Abs(mix[1].Weight-0.75) > 1e-12 {
		t.Fatalf("weights not normalized: %+v", mix)
	}
}
