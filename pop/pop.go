package pop

import (
	"fmt"
	"math"
	"net/http"

	"gsfl/internal/device"
	"gsfl/internal/metrics"
	"gsfl/internal/schemes"
	"gsfl/internal/simnet"
)

// Sampler selects how the per-round cohort is drawn.
type Sampler int

const (
	// SamplerAvailability draws uniformly from the currently-online
	// members: every sampled member participates. This is what the env
	// layer wires in (under the always-on trace it coincides with
	// SamplerUniform).
	SamplerAvailability Sampler = iota
	// SamplerUniform draws uniformly from the whole population,
	// ignoring availability; sampled members that happen to be offline
	// are counted as non-respondents and yield no binding — the
	// classic FedAvg sampling assumption under churn.
	SamplerUniform
)

// Config describes a population.
type Config struct {
	// Members is the population size P.
	Members int
	// Slots is the number of physical client slots (fleet entries,
	// channel indices, data shards) sampled members mount onto.
	Slots int
	// Cohort is the per-round sampling target K, 1 ≤ K ≤ Slots. A
	// round may bind fewer members when availability is scarce.
	Cohort int
	// Trace names a registered availability trace ("" = always-on).
	Trace string
	// ProfileMix is a ParseMix expression ("" = all baseline).
	ProfileMix string
	// Sampler selects the cohort-draw policy.
	Sampler Sampler
	// Seed derives every stream the population consumes: initial
	// states, dwell durations, sampling draws, loader seeds.
	Seed int64
	// Fleet, when non-nil, receives the per-round device-profile speed
	// multipliers: BeginRound rescales Clients[slot].FLOPS for each
	// bound slot and restores unbound slots to their base capacity.
	Fleet *device.Fleet
}

// Population is a persistent client population held as record arrays:
// ~29 bytes of fixed-width state per member (shard ref, profile id,
// two RNG cursors, sample stamp, availability bit) plus one 16-byte
// entry in the toggle event queue — never a live model, loader, or
// per-member object. A million members fit in well under 64 MB, and
// the steady-state path (BeginRound) allocates nothing. Its per-round
// work is O(cohort + toggles · log P), and under a churning trace the
// toggles due per round grow with P.
//
// Determinism: every draw comes from a counter-based splitmix64 stream
// keyed by (seed, salt, member-or-round, cursor), so the cohort of
// round r is a pure function of (Config, r) — identical across worker
// counts, and replayable from scratch, which is how resumed runs
// rejoin the stream without any population state in the checkpoint.
type Population struct {
	cfg   Config
	trace Trace
	mix   []MixEntry
	// cum holds the mix's cumulative weights for member assignment.
	cum []float64

	// Record arrays, indexed by member id.
	shard   []uint32 // data shard (slot whose Train entry the member holds)
	profile []uint8  // index into mix
	pcur    []uint32 // participation cursor (advances per sampled round)
	tcur    []uint32 // toggle cursor (advances per availability flip)
	stamp   []uint32 // last round the member was drawn (dedup within a round)
	offline []uint64 // availability bitset (1 = offline)

	online int // current online member count
	events *simnet.EventQueue
	clock  int // last completed BeginRound

	binds     []schemes.SlotBinding // reused across rounds
	baseFLOPS []float64             // fleet capacities before profile scaling

	reg                              *metrics.Registry
	gMembers, gOnline, gOff, gCohort *metrics.Gauge
	cSampled, cRounds                *metrics.Counter
}

// Stream salts separating the population's independent draw purposes.
const (
	saltInit    = 0x9E3779B97F4A7C15
	saltToggle  = 0xC2B2AE3D27D4EB4F
	saltProfile = 0x165667B19E3779F9
	saltSample  = 0x27D4EB2F165667C5
	saltLoader  = 0x85EBCA77C2B2AE63
)

// minDwell bounds dwell durations away from zero so the event loop
// always makes progress.
const minDwell = 1e-3

// New builds a population and plays in its initial availability state.
// Construction is the only O(P) allocation moment; everything after is
// O(cohort + toggles) per round.
func New(cfg Config) (*Population, error) {
	if cfg.Members <= 0 {
		return nil, fmt.Errorf("pop: members %d must be positive", cfg.Members)
	}
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("pop: slots %d must be positive", cfg.Slots)
	}
	if cfg.Members < cfg.Slots {
		return nil, fmt.Errorf("pop: members %d smaller than slots %d", cfg.Members, cfg.Slots)
	}
	if cfg.Cohort < 1 || cfg.Cohort > cfg.Slots {
		return nil, fmt.Errorf("pop: cohort %d outside [1,%d]", cfg.Cohort, cfg.Slots)
	}
	if cfg.Sampler != SamplerAvailability && cfg.Sampler != SamplerUniform {
		return nil, fmt.Errorf("pop: unknown sampler %d", int(cfg.Sampler))
	}
	traceName := cfg.Trace
	if traceName == "" {
		traceName = DefaultTrace
		cfg.Trace = traceName
	}
	trace, err := TraceByName(traceName)
	if err != nil {
		return nil, err
	}
	mix, err := ParseMix(cfg.ProfileMix)
	if err != nil {
		return nil, err
	}
	if cfg.Fleet != nil && cfg.Fleet.N() < cfg.Slots {
		return nil, fmt.Errorf("pop: fleet has %d clients, need %d slots", cfg.Fleet.N(), cfg.Slots)
	}

	p := &Population{
		cfg:     cfg,
		trace:   trace,
		mix:     mix,
		cum:     make([]float64, len(mix)),
		shard:   make([]uint32, cfg.Members),
		profile: make([]uint8, cfg.Members),
		pcur:    make([]uint32, cfg.Members),
		tcur:    make([]uint32, cfg.Members),
		stamp:   make([]uint32, cfg.Members),
		offline: make([]uint64, (cfg.Members+63)/64),
		binds:   make([]schemes.SlotBinding, 0, cfg.Cohort),
	}
	acc := 0.0
	for i, e := range mix {
		acc += e.Weight
		p.cum[i] = acc
	}
	p.cum[len(p.cum)-1] = 1 // guard against float round-off at the top

	evs := make([]simnet.Event, 0, cfg.Members)
	for m := 0; m < cfg.Members; m++ {
		p.shard[m] = uint32(m % cfg.Slots)
		p.profile[m] = p.pickProfile(unitOf(p.draw(saltProfile, uint64(m), 0)))
		online := trace.InitialOnline(unitOf(p.draw(saltInit, uint64(m), 0)))
		if online {
			p.online++
		} else {
			p.offline[m/64] |= 1 << (m % 64)
		}
		dwell := trace.NextDuration(online, 0, unitOf(p.draw(saltToggle, uint64(m), 0)))
		if !math.IsInf(dwell, 1) {
			evs = append(evs, simnet.Event{Time: math.Max(dwell, minDwell), ID: int64(m)})
		}
	}
	p.events = simnet.NewEventQueue(evs)

	if cfg.Fleet != nil {
		p.baseFLOPS = make([]float64, cfg.Slots)
		for i := range p.baseFLOPS {
			p.baseFLOPS[i] = cfg.Fleet.Clients[i].FLOPS
		}
	}

	p.reg = metrics.NewRegistry()
	p.gMembers = p.reg.Gauge("gsfl_pop_members", "population size")
	p.gOnline = p.reg.Gauge("gsfl_pop_online", "members currently online")
	p.gOff = p.reg.Gauge("gsfl_pop_offline", "members currently offline")
	p.gCohort = p.reg.Gauge("gsfl_pop_sampled_round", "members sampled in the last round")
	p.cSampled = p.reg.Counter("gsfl_pop_sampled_total", "cumulative sampled members")
	p.cRounds = p.reg.Counter("gsfl_pop_rounds_total", "rounds the population has served")
	p.gMembers.Set(int64(cfg.Members))
	p.gOnline.Set(int64(p.online))
	p.gOff.Set(int64(cfg.Members - p.online))
	return p, nil
}

// splitmix64 is the mixing function behind every population draw.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// draw produces the (salt, a, b) member of the population's stream —
// a pure function of the seed, so any draw can be replayed in
// isolation.
func (p *Population) draw(salt, a, b uint64) uint64 {
	z := splitmix64(uint64(p.cfg.Seed) ^ salt)
	z = splitmix64(z ^ a)
	return splitmix64(z ^ b)
}

// unitOf maps a 64-bit draw to [0,1).
func unitOf(u uint64) float64 { return float64(u>>11) / (1 << 53) }

func (p *Population) pickProfile(u float64) uint8 {
	for i, c := range p.cum {
		if u < c {
			return uint8(i)
		}
	}
	return uint8(len(p.cum) - 1)
}

func (p *Population) isOffline(m int64) bool {
	return p.offline[m/64]&(1<<(m%64)) != 0
}

// advanceTo processes every availability toggle due by time t.
func (p *Population) advanceTo(t float64) {
	for p.events.Len() > 0 && p.events.Peek().Time <= t {
		ev := p.events.Pop()
		m := ev.ID
		bit := uint64(1) << (m % 64)
		nowOnline := p.offline[m/64]&bit != 0 // was offline → coming online
		p.offline[m/64] ^= bit
		if nowOnline {
			p.online++
		} else {
			p.online--
		}
		p.tcur[m]++
		dwell := p.trace.NextDuration(nowOnline, p.tcur[m], unitOf(p.draw(saltToggle, uint64(m), uint64(p.tcur[m]))))
		if !math.IsInf(dwell, 1) {
			p.events.Push(simnet.Event{Time: ev.Time + math.Max(dwell, minDwell), ID: m})
		}
	}
}

// sample draws round r's cohort into p.binds. Draw order is a pure
// function of (seed, r): member indices come from the counter-based
// stream keyed by the round and the try number, with the stamp array
// rejecting duplicates. maxTries bounds the rejection walk when
// availability is scarce; the cohort may come up short, never wrong.
func (p *Population) sample(r int) {
	p.binds = p.binds[:0]
	target := p.cfg.Cohort
	if p.cfg.Sampler == SamplerAvailability {
		if p.online == 0 {
			return
		}
		if p.online < target {
			target = p.online
		}
	}
	maxTries := 64*p.cfg.Cohort + 256
	drawn := 0
	for try := 0; try < maxTries; try++ {
		if p.cfg.Sampler == SamplerUniform {
			// Uniform counts distinct drawn members: an offline draw is a
			// non-respondent, consuming one of the K invitations.
			if drawn >= target {
				break
			}
		} else if len(p.binds) >= target {
			break
		}
		m := int64(p.draw(saltSample, uint64(r), uint64(try)) % uint64(p.cfg.Members))
		if p.stamp[m] == uint32(r) {
			continue // already drawn this round
		}
		p.stamp[m] = uint32(r)
		drawn++
		if p.isOffline(m) {
			// Availability-aware: reject and redraw another member.
			continue
		}
		slot := len(p.binds)
		p.pcur[m]++
		p.binds = append(p.binds, schemes.SlotBinding{
			Slot:       slot,
			Member:     m,
			Shard:      int(p.shard[m]),
			LoaderSeed: int64(p.draw(saltLoader, uint64(m), uint64(p.pcur[m]))),
			Speed:      p.mix[p.profile[m]].Profile.Speed,
		})
	}
	p.cSampled.Add(int64(len(p.binds)))
	p.cRounds.Inc()
}

// BeginRound implements schemes.Cohort: it advances availability to
// round r (1-based, strictly increasing), draws the cohort, applies
// device-profile speeds to the fleet, and returns the slot bindings.
// A request that skips ahead — a resumed run whose trainer continues
// at round ckpt+1 — replays every intermediate round's toggles and
// draws, so the population lands exactly where the original run had
// it. The returned slice is reused by the next call.
func (p *Population) BeginRound(round int) ([]schemes.SlotBinding, error) {
	if round <= p.clock {
		return nil, fmt.Errorf("pop: round %d not after completed round %d (rounds must advance)", round, p.clock)
	}
	for r := p.clock + 1; r <= round; r++ {
		p.advanceTo(float64(r))
		p.sample(r)
	}
	p.clock = round

	if f := p.cfg.Fleet; f != nil {
		for i, base := range p.baseFLOPS {
			f.Clients[i].FLOPS = base
		}
		for i := range p.binds {
			b := &p.binds[i]
			f.Clients[b.Slot].FLOPS = p.baseFLOPS[b.Slot] * b.Speed
		}
	}
	p.gOnline.Set(int64(p.online))
	p.gOff.Set(int64(p.cfg.Members - p.online))
	p.gCohort.Set(int64(len(p.binds)))
	return p.binds, nil
}

// Identity implements schemes.Cohort; it is folded into checkpoint env
// fingerprints so resuming under a different population is rejected.
func (p *Population) Identity() string {
	return fmt.Sprintf("pop{members=%d slots=%d cohort=%d trace=%s mix=%q sampler=%d seed=%d}",
		p.cfg.Members, p.cfg.Slots, p.cfg.Cohort, p.cfg.Trace, p.cfg.ProfileMix, int(p.cfg.Sampler), p.cfg.Seed)
}

// BaseCapacities returns a copy of the fleet's FLOPS before
// device-profile scaling (nil when no fleet is attached). Checkpoint
// fingerprints use it instead of the live fleet, whose capacities
// carry the current round's profile multipliers.
func (p *Population) BaseCapacities() []float64 {
	if p.baseFLOPS == nil {
		return nil
	}
	return append([]float64(nil), p.baseFLOPS...)
}

// Members returns the population size.
func (p *Population) Members() int { return p.cfg.Members }

// CohortTarget returns the per-round sampling target K.
func (p *Population) CohortTarget() int { return p.cfg.Cohort }

// Online returns the number of currently-online members.
func (p *Population) Online() int { return p.online }

// Round returns the last round BeginRound completed.
func (p *Population) Round() int { return p.clock }

// MetricsHandler serves the population's operational gauges and
// counters (gsfl_pop_*) in Prometheus text-exposition format — the
// payload behind gsfl-sim's -metrics endpoint.
func (p *Population) MetricsHandler() http.Handler { return p.reg.Handler() }

// MemoryBytes reports the population's resident record storage: the
// per-member arrays plus the event queue and binding buffer. It is the
// quantity BENCH_pop.json bounds.
func (p *Population) MemoryBytes() int64 {
	perMember := int64(cap(p.shard))*4 + int64(cap(p.profile)) +
		int64(cap(p.pcur))*4 + int64(cap(p.tcur))*4 + int64(cap(p.stamp))*4 +
		int64(cap(p.offline))*8
	return perMember + int64(p.events.Cap())*16 + int64(cap(p.binds))*40
}
