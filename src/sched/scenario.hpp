// Scenario descriptors for adversarial scheduling & fault injection (S27).
//
// The paper's Theorem 2 claims *almost self-stabilisation*, but every
// guarantee in earlier sections is stated over the one benign uniform
// scheduler. A Scenario names the stress model a run executes under: a
// scheduler strategy (which ordered agent pair meets next — uniform, a
// graph-restricted topology, adversarially biased, or fairness-quota
// aging) plus a fault plan (transient state corruption, agent
// arrival/departure churn, scheduled burst corruption). Both halves are
// pure functions of the trial's derived seed, so a trial outcome remains a
// pure function of (trial, derive_trial_seed(master_seed, trial)) and all
// of the repo's determinism machinery — thread-count-independent ensemble
// stats, shard-layout-independent certificate digests — carries over to
// every scenario unchanged.
//
// The canonical string descriptor (`to_string`) is the single token that
// travels everywhere: it is the CLI flag value (--scheduler= / --fault=),
// the serve wire field (QueryParams.scenario), and the digest-scoping
// field of the certificate payload. Digest-scoping rule: the DEFAULT
// scenario (uniform scheduler, no faults) emits no scenario field at all,
// so uniform certificates are byte-identical to every certificate minted
// before this subsystem existed; any other scenario adds exactly one
// `"scenario":"<canonical descriptor>"` field, so certificates for
// different stress models can never collide.
//
// Grammar (case-sensitive; numbers canonicalised on parse):
//
//   scheduler := uniform | clique | ring | grid[:W] | regular[:D]
//              | biased[:G] | aging
//   fault     := none | corrupt:RATE[,K] | churn:RATE[,CAP]
//              | burst:AT,K[;AT,K...]
//   scenario  := <scheduler> | <scheduler>+<fault>
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ppde::sched {

enum class SchedKind {
  kUniform,  ///< the classic scheduler: uniform ordered pair of distinct agents
  kClique,   ///< complete graph through the adjacency-sampler machinery
             ///< (same meeting law as uniform — the differential anchor)
  kRing,     ///< agents on a cycle; meetings only between ring neighbours
  kGrid,     ///< circulant width-W grid (offsets ±1, ±W), a twisted torus
  kRegular,  ///< random D-regular multigraph from seed-derived permutations
  kBiased,   ///< adversarial weighting: accepting agents drawn with weight G
  kAging,    ///< fairness quota: initiator is always the least recently met
};

enum class FaultKind {
  kNone,
  kCorrupt,  ///< per-meeting probability RATE of K uniform state overwrites
  kChurn,    ///< per-meeting probability RATE of one arrival or departure
  kBurst,    ///< K uniform state overwrites at each scheduled meeting index
};

struct SchedulerSpec {
  SchedKind kind = SchedKind::kUniform;
  /// Grid row width; 0 = floor(sqrt(population)), chosen at load time.
  std::uint64_t width = 0;
  /// Regular-graph degree (even, >= 2).
  std::uint64_t degree = 4;
  /// Biased: relative selection weight of accepting-state agents (> 0,
  /// != 1). G < 1 starves accepting agents (delays consensus on ACCEPT);
  /// G > 1 over-selects them.
  double bias = 4.0;

  bool operator==(const SchedulerSpec&) const = default;
};

/// One scheduled burst: overwrite `agents` uniformly chosen agents with
/// uniformly random states immediately before meeting index `at`.
struct BurstEvent {
  std::uint64_t at = 0;
  std::uint64_t agents = 0;

  bool operator==(const BurstEvent&) const = default;
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  /// Per-meeting event probability (corrupt/churn), in (0, 1].
  double rate = 0.0;
  /// Corrupt: agents overwritten per event (>= 1).
  std::uint64_t agents = 1;
  /// Churn: max agents above the initial population (0 = initial
  /// population, i.e. the population may at most double).
  std::uint64_t cap = 0;
  /// Burst schedule, sorted by `at` (parse sorts; ties fire in order).
  std::vector<BurstEvent> bursts;

  bool operator==(const FaultSpec&) const = default;
};

/// Fixed stream tags splitting one trial seed into independent RNG
/// streams via support::derive_trial_seed(seed, tag): the meeting stream
/// keeps the raw seed (bit-compatible with the pre-S27 simulators), the
/// topology stream drives graph sampling, the fault stream drives every
/// fault draw. Faults therefore never perturb the scheduler's draws —
/// the same meeting sequence replays under different fault rates until
/// the first fault actually changes a state.
inline constexpr std::uint64_t kTopologyStream = 0x53323774UL;  // "S27t"
inline constexpr std::uint64_t kFaultStream = 0x53323766UL;     // "S27f"

struct Scenario {
  SchedulerSpec scheduler;
  FaultSpec fault;

  bool operator==(const Scenario&) const = default;

  /// True for the pre-S27 execution model: uniform scheduler, no faults.
  /// Default scenarios take the untouched fast paths everywhere (per-agent
  /// legacy draw loop, count-engine flat-weight sampling) and emit
  /// no scenario field in certificates or wire messages.
  bool is_default() const {
    return scheduler.kind == SchedKind::kUniform &&
           fault.kind == FaultKind::kNone;
  }

  /// Canonical descriptor: "<scheduler>" or "<scheduler>+<fault>", with
  /// every number re-rendered in its shortest round-trippable form.
  /// parse(to_string()) == *this for every valid scenario.
  std::string to_string() const;

  /// Inverse of to_string, accepting any valid (not necessarily
  /// canonical) descriptor. Throws std::invalid_argument with a
  /// descriptive message on malformed input.
  static Scenario parse(const std::string& text);
};

/// Parse just the scheduler half (the CLI --scheduler= value).
SchedulerSpec parse_scheduler(const std::string& text);
/// Parse just the fault half (the CLI --fault= value).
FaultSpec parse_fault(const std::string& text);

std::string to_string(const SchedulerSpec& spec);
std::string to_string(const FaultSpec& spec);

}  // namespace ppde::sched
