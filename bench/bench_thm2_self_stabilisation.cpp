// Theorem 2 — the protocols are almost self-stabilising (Definition 7).
//
// Sweeps noise configurations C_N on top of the intended input and reports
// the fraction of correct decisions — which must be 1.0, exactly — plus the
// contrast row for the 1-aware flock-of-birds baseline, which a single
// accepting noise agent flips. Exact (bottom-SCC) verdicts for the n=1
// pipeline; simulation for the broadcast-wrapped protocol.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "analysis/robustness.hpp"
#include "analysis/tables.hpp"
#include "smc/certify.hpp"
#include "baselines/flock.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "machine/interp.hpp"
#include "pp/verifier.hpp"

namespace {

using namespace ppde;

void print_report() {
  std::printf("== Theorem 2: almost self-stabilisation ==\n\n");
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const auto conv = compile::machine_to_protocol(lowered.machine, nb);
  const auto phi_prime = [&conv](std::uint64_t m) {
    return m >= conv.num_pointers && m - conv.num_pointers >= 2;
  };

  pp::VerifierOptions exact;
  exact.witness_mode = true;
  exact.max_configs = 2'000'000;

  std::vector<pp::State> register_pool;
  for (machine::RegId r = 0; r < lowered.machine.num_registers(); ++r)
    register_pool.push_back(conv.reg_state(r, false));

  analysis::TextTable t({"base configuration", "noise", "trials", "correct",
                         "wrong", "unresolved"});
  for (std::uint64_t m_regs : {0ull, 1ull, 2ull, 3ull}) {
    std::vector<std::uint64_t> regs(5, 0);
    regs[4] = m_regs;
    const pp::Config base =
        conv.pi(machine::initial_state(lowered.machine, regs), false);
    const auto result = analysis::sweep_exact(
        conv.protocol, base, /*max_noise=*/3, /*trials=*/20, phi_prime,
        exact, /*seed=*/99 + m_regs, &register_pool);
    t.add_row({"pi(" + std::to_string(m_regs) + " register agents)",
               "<=3 register agents", std::to_string(result.trials),
               std::to_string(result.correct), std::to_string(result.wrong),
               std::to_string(result.unresolved)});
  }
  t.print(std::cout);

  std::printf("\ncontrast: the 1-aware flock-of-birds baseline under one "
              "planted accepting agent:\n");
  {
    pp::Protocol flock = baselines::make_flock_of_birds(5);
    pp::Config poisoned = baselines::flock_initial(flock, 2);
    poisoned.add(flock.state("5"), 1);
    const auto verdict = pp::Verifier(flock).verify(poisoned);
    std::printf("  k=5, x=2 + one agent in state '5': %s  "
                "(3 agents pass as >= 5 -> NOT robust)\n",
                to_string(verdict.verdict).c_str());
  }
  {
    std::vector<std::uint64_t> regs(5, 0);
    pp::Config poisoned =
        conv.pi(machine::initial_state(lowered.machine, regs), false);
    poisoned.add(conv.pointer_state(lowered.machine.of, 1,
                                    compile::Stage::kNone, false));
    pp::VerifierOptions big = exact;
    big.max_configs = 4'000'000;
    const auto verdict = pp::Verifier(conv.protocol).verify(poisoned, big);
    std::printf("  this construction + one agent planted in an accepting "
                "state: %s  (recounted, robust)\n\n",
                to_string(verdict.verdict).c_str());
  }

  // The broadcast-wrapped protocol is beyond the exact verifier's reach;
  // certify it statistically (S23): the SPRT allocates trials until
  // "correct over noise draw and scheduler w.p. >= 1 - delta" is accepted
  // or refuted, instead of reporting a bare fixed-trial count. Verdict and
  // digest identical at every thread count.
  std::printf("broadcast-wrapped pipeline, SMC-certified noise sweep "
              "(4 threads):\n");
  {
    const auto bconv = compile::machine_to_protocol(lowered.machine);
    const auto bphi = [&bconv](std::uint64_t m) {
      return m >= bconv.num_pointers && m - bconv.num_pointers >= 2;
    };
    std::vector<std::uint64_t> regs(5, 0);
    regs[4] = 2;
    const pp::Config base =
        bconv.pi(machine::initial_state(lowered.machine, regs), false);
    smc::CertifyOptions options;
    options.delta = 0.1;
    options.indifference = 0.8;  // H0: correct w.p. <= 0.1
    options.alpha = options.beta = 0.01;
    options.max_trials = 24;
    options.threads = 4;
    options.seed = 7;
    options.engine = engine::EngineKind::kPerAgent;
    options.sim.stable_window = 80'000'000;
    options.sim.max_interactions = 1'500'000'000;
    const smc::Certificate cert = analysis::sweep_certified(
        bconv.protocol, base, /*max_noise=*/2, bphi, options);
    std::printf("  pi(2 register agents) + <=2 noise agents: %s after %llu "
                "trials (%llu successes, llr %.2f, CI [%.3f, %.3f] at "
                "%.2f)\n\n",
                smc::to_string(cert.verdict),
                (unsigned long long)cert.trials,
                (unsigned long long)cert.successes, cert.llr,
                cert.interval.lower, cert.interval.upper,
                cert.ci_confidence);
  }
}

void BM_ExactNoiseSweepRejectSide(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const auto conv = compile::machine_to_protocol(lowered.machine, nb);
  std::vector<std::uint64_t> regs(5, 0);
  regs[4] = 1;
  const pp::Config base =
      conv.pi(machine::initial_state(lowered.machine, regs), false);
  pp::VerifierOptions exact;
  exact.witness_mode = true;
  std::vector<pp::State> pool;
  for (machine::RegId r = 0; r < 5; ++r)
    pool.push_back(conv.reg_state(r, false));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::sweep_exact(
        conv.protocol, base, 1, 1,
        [&conv](std::uint64_t m) {
          return m >= conv.num_pointers && m - conv.num_pointers >= 2;
        },
        exact, seed++, &pool));
  }
}
BENCHMARK(BM_ExactNoiseSweepRejectSide);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
