// Robustness harness for almost self-stabilisation (paper Section 8).
//
// Definition 7: a protocol PP = (Q, delta, I, O) with |I| = 1 deciding phi
// is *almost self-stabilising* if every fair run from any configuration C
// with C(I) >= |Q| stabilises to phi(|C|): the adversary may add an
// arbitrary noise multiset C_N on top of the intended input, and the
// protocol must still count every agent. (The construction actually
// tolerates the weaker bound C(I) >= |F|, which is what its proof via
// Lemma 15 uses; the harness lets callers pick the floor.)
//
// The harness generates noise configurations — uniform random states, plus
// adversarially chosen ones like duplicated pointer agents or agents
// planted in accepting states — and checks the verdict exactly (bottom-SCC
// verifier) or statistically (random scheduler).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "engine/ensemble.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"
#include "smc/certify.hpp"
#include "support/rng.hpp"

namespace ppde::analysis {

/// Predicate on the *total* agent count the protocol is supposed to decide.
using TotalPredicate = std::function<bool(std::uint64_t)>;

struct RobustnessResult {
  std::uint64_t trials = 0;
  std::uint64_t correct = 0;
  std::uint64_t wrong = 0;
  std::uint64_t unresolved = 0;  ///< verifier limit / simulation budget hit

  bool all_correct() const { return wrong == 0 && unresolved == 0; }
};

/// Uniformly random noise: `agents` agents in independently uniform states,
/// drawn from `pool` if given (e.g. register states only) or from all
/// states.
pp::Config random_noise(const pp::Protocol& protocol, std::uint32_t agents,
                        support::Rng& rng,
                        const std::vector<pp::State>* pool = nullptr);

/// Exact Definition-7 sweep: for `trials` draws of up to `max_noise` noise
/// agents added to `base`, verify (bottom-SCC) that every fair run
/// stabilises to predicate(total agents).
RobustnessResult sweep_exact(
    const pp::Protocol& protocol, const pp::Config& base,
    std::uint32_t max_noise, std::uint64_t trials,
    const TotalPredicate& predicate, const pp::VerifierOptions& options,
    std::uint64_t seed, const std::vector<pp::State>* noise_pool = nullptr);

/// Statistical sweep with the random scheduler (for instances beyond the
/// exact verifier's reach). Noise configurations are drawn sequentially
/// from `seed` (so the sweep is reproducible), then the trials run on the
/// engine's thread-pool fleet with per-trial seeds derived from `seed` —
/// the result is identical for every `threads` value. `engine` selects the
/// per-trial simulator: per-agent is fastest for small populations with
/// long stability windows; count+null-skip wins once populations are large
/// and meetings are mostly null (see DESIGN.md S21).
RobustnessResult sweep_simulated(
    const pp::Protocol& protocol, const pp::Config& base,
    std::uint32_t max_noise, std::uint64_t trials,
    const TotalPredicate& predicate, const pp::SimulationOptions& options,
    std::uint64_t seed, unsigned threads = 1,
    engine::EngineKind engine = engine::EngineKind::kPerAgent);

/// SMC-certified statistical sweep (S23): instead of a fixed trial count,
/// the sweep runs Wald's SPRT on the statement "a run from base + random
/// noise stabilises to predicate(total agents) with probability
/// >= 1 - delta" — the probability is over both the noise draw and the
/// scheduler. Trial i derives its noise configuration AND its scheduler
/// seed from derive_trial_seed(options.seed, i), so the certificate (and
/// its digest) is identical at every thread count. The trial budget cap in
/// `options` downgrades the verdict to kInconclusive rather than
/// overstating the evidence. certificate.population reports the *base*
/// population (each trial adds up to max_noise agents on top). Trials run
/// on `options.engine` under `options.scenario`, like certify()'s.
smc::Certificate sweep_certified(
    const pp::Protocol& protocol, const pp::Config& base,
    std::uint32_t max_noise, const TotalPredicate& predicate,
    const smc::CertifyOptions& options,
    const std::vector<pp::State>* noise_pool = nullptr);

}  // namespace ppde::analysis
