// Package pop is the client-population engine: the layer that turns
// the paper's fixed N-client world into production-scale cross-device
// federated learning, where each round samples a small cohort from a
// population of up to millions of devices.
//
// A Population holds every member as fixed-width record-array state —
// data-shard ref, device-profile id, RNG cursors, sample stamp,
// availability bit — plus one pending toggle event in a deterministic
// min-heap (internal/simnet's event queue). No member ever owns a live
// model or loader: sampled members mount onto the environment's
// physical client slots for one round (schemes.SlotBinding), so memory
// is O(population · ~30 bytes) + O(slots · model). Per-round work is
// O(cohort + toggles · log P): every availability toggle due in the
// round costs one heap pop and push, and under a churning trace the
// number of toggles per round grows with the population size P.
//
// Availability follows registered churn traces (RegisterTrace:
// "always-on", "onoff", "diurnal") and compute heterogeneity follows
// registered device profiles (RegisterProfile: "baseline", "low-end",
// "high-end") combined through a weighted mix. Every stochastic choice
// comes from a counter-based splitmix64 stream keyed on (seed, salt,
// member/round, cursor), making the cohort of round r a pure function
// of (Config, r): identical across worker counts, and replayable from
// the spec alone — resumed runs call BeginRound with the target round
// and the population fast-forwards through the skipped rounds' toggles
// and draws, with no population state in the checkpoint.
//
// Most programs reach this package through gsfl/env: setting
// Spec.Population (with SampleFraction, AvailTrace, DeviceProfileMix)
// builds and attaches a Population, and the cohort-based schemes
// (gsfl, fl, sfl) draw their per-round client set from it.
package pop
