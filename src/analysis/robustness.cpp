#include "analysis/robustness.hpp"

#include <optional>

#include "engine/executor.hpp"
#include "sched/fault.hpp"

namespace ppde::analysis {

pp::Config random_noise(const pp::Protocol& protocol, std::uint32_t agents,
                        support::Rng& rng,
                        const std::vector<pp::State>* pool) {
  // Per-agent draws go through the S27 noise primitive — the same one the
  // corrupt/burst fault plans use — with one below() call per agent, so
  // every sweep output is bit-identical to the pre-S27 inline loop (the
  // differential test in test_sched pins this).
  pp::Config noise(protocol.num_states());
  for (std::uint32_t i = 0; i < agents; ++i)
    noise.add(sched::uniform_noise_state(
        static_cast<std::uint32_t>(protocol.num_states()), rng, pool));
  return noise;
}

namespace {

pp::Config with_noise(const pp::Config& base, const pp::Config& noise) {
  pp::Config combined = base;
  for (pp::State q = 0; q < noise.num_states(); ++q)
    if (noise[q] != 0) combined.add(q, noise[q]);
  return combined;
}

}  // namespace

RobustnessResult sweep_exact(const pp::Protocol& protocol,
                             const pp::Config& base, std::uint32_t max_noise,
                             std::uint64_t trials,
                             const TotalPredicate& predicate,
                             const pp::VerifierOptions& options,
                             std::uint64_t seed,
                             const std::vector<pp::State>* noise_pool) {
  RobustnessResult result;
  support::Rng rng(seed);
  const pp::Verifier verifier(protocol);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const auto agents =
        static_cast<std::uint32_t>(rng.below(max_noise + 1));
    const pp::Config config =
        with_noise(base, random_noise(protocol, agents, rng, noise_pool));
    const pp::VerificationResult verdict = verifier.verify(config, options);
    ++result.trials;
    if (!verdict.stabilises())
      ++result.unresolved;
    else if (verdict.output() == predicate(config.total()))
      ++result.correct;
    else
      ++result.wrong;
  }
  return result;
}

RobustnessResult sweep_simulated(const pp::Protocol& protocol,
                                 const pp::Config& base,
                                 std::uint32_t max_noise, std::uint64_t trials,
                                 const TotalPredicate& predicate,
                                 const pp::SimulationOptions& options,
                                 std::uint64_t seed, unsigned threads,
                                 engine::EngineKind kind) {
  // Draw every noise configuration up front from one sequential stream, so
  // the workload is a pure function of `seed` no matter how many workers
  // later execute it.
  support::Rng rng(seed);
  std::vector<pp::Config> configs;
  configs.reserve(trials);
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    const auto agents =
        static_cast<std::uint32_t>(rng.below(max_noise + 1));
    configs.push_back(with_noise(base, random_noise(protocol, agents, rng)));
  }

  // The shared trial body (S27): per-worker simulator reuse and engine
  // selection live in engine::TrialExecutor; outcomes stay pure functions
  // of (trial, seed).
  const unsigned workers = engine::fleet_workers(trials, threads);
  engine::TrialExecutor executor(protocol, kind, sched::Scenario{}, workers);
  // Each trial comes back correct (true), wrong (false) or unresolved.
  RobustnessResult result;
  engine::run_fleet<std::optional<bool>>(
      workers, seed, "engine", [&] { return trials; },
      [&](unsigned worker, std::uint64_t trial, std::uint64_t trial_seed,
          const std::atomic<bool>& stop) -> std::optional<bool> {
        const pp::SimulationResult sim =
            executor.run(worker, configs[trial], trial_seed, options, &stop)
                .sim;
        if (!sim.stabilised) return std::nullopt;
        return sim.output == predicate(configs[trial].total());
      },
      [&](std::uint64_t, std::optional<bool>&& correct) {
        ++result.trials;
        if (!correct)
          ++result.unresolved;
        else if (*correct)
          ++result.correct;
        else
          ++result.wrong;
        return false;
      });
  return result;
}

smc::Certificate sweep_certified(const pp::Protocol& protocol,
                                 const pp::Config& base,
                                 std::uint32_t max_noise,
                                 const TotalPredicate& predicate,
                                 const smc::CertifyOptions& options,
                                 const std::vector<pp::State>* noise_pool) {
  engine::TrialExecutor executor(
      protocol, options.engine, options.scenario,
      engine::fleet_workers(options.max_trials, options.threads));

  // Unlike sweep_simulated the trial count is not known up front (the SPRT
  // decides it), so noise cannot be drawn from one sequential stream.
  // Instead trial i expands its own noise from its derived seed — still a
  // pure function of (options.seed, i), hence reproducible at any thread
  // count and under any budget escalation.
  const auto body = [&](unsigned worker, std::uint64_t, std::uint64_t seed,
                        const std::atomic<bool>& stop) {
    support::Rng rng(seed);
    const auto agents =
        static_cast<std::uint32_t>(rng.below(max_noise + 1));
    const pp::Config config =
        with_noise(base, random_noise(protocol, agents, rng, noise_pool));

    // The scheduler continues on the same per-trial stream the noise came
    // from; distinct trials stay decorrelated by seed derivation.
    return smc::outcome_of(
        executor.run(worker, config, rng(), options.sim, &stop),
        predicate(config.total()), config.total());
  };

  smc::Certificate cert = smc::certify_trials(body, options);
  cert.protocol_fingerprint = protocol.fingerprint();
  cert.population = base.total();
  cert.expected_output = true;  // "correct" is per-trial, vs predicate
  return cert;
}

}  // namespace ppde::analysis
