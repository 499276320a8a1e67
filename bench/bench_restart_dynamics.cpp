// Section 5.2 / Lemma 4 — dynamics of the detect-restart loop.
//
// The construction trades time for space: it guesses an initial
// configuration, verifies invariants, and restarts on any violation, so
// the number of restarts until a good configuration is hit — and survives
// verification — explodes near the threshold. This harness measures, at
// program level (restart = one step):
//   * restarts and steps to stabilisation vs m for n = 1 and n = 2,
//   * the space/time trade against the flock-of-birds baseline: the
//     construction wins the state count by a double-exponential factor and
//     loses convergence time by orders of magnitude — the shape the paper
//     predicts (it explicitly leaves running-time optimisation to future
//     work).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "analysis/tables.hpp"
#include "baselines/flock.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/count_sim.hpp"
#include "engine/ensemble.hpp"
#include "progmodel/flat.hpp"
#include "progmodel/interp.hpp"

namespace {

using namespace ppde;

void dynamics_table(int n, std::uint64_t max_m, std::uint64_t max_steps) {
  const auto c = czerner::build_construction(n);
  const auto flat = progmodel::FlatProgram::compile(c.program);
  const std::uint64_t k = czerner::Construction::threshold_u64(n);
  std::printf("n = %d (k = %llu): program-level randomized runs, everything "
              "starts in R\n",
              n, (unsigned long long)k);
  analysis::TextTable t(
      {"m", "verdict", "restarts", "steps", "expected"});
  for (std::uint64_t m = 0; m <= max_m; ++m) {
    std::vector<std::uint64_t> regs(c.num_registers(), 0);
    regs[c.R()] = m;
    progmodel::Runner runner(flat, regs, 1234 + m);
    progmodel::RunOptions options;
    options.stable_window = n == 1 ? 400'000 : 3'000'000;
    options.max_steps = max_steps;
    const auto result = runner.run(options);
    t.add_row({std::to_string(m),
               result.stabilised ? (result.output ? "ACCEPT" : "reject")
                                 : "budget hit",
               std::to_string(result.restarts), std::to_string(result.steps),
               m >= k ? "ACCEPT" : "reject"});
  }
  t.print(std::cout);
  std::printf("\n");
}

void print_report() {
  std::printf("== Restart dynamics of the detect-restart loop ==\n\n");
  dynamics_table(1, 6, 100'000'000);
  dynamics_table(2, 12, 900'000'000);

  std::printf("protocol-level convergence scaling (n = 1, accept side):\n");
  {
    const auto lowered =
        compile::lower_program(czerner::build_construction(1).program);
    const auto conv = compile::machine_to_protocol(lowered.machine);
    analysis::TextTable scale({"m (= |F| + extra)", "interactions to full"
                               " consensus", "parallel time"});
    for (std::uint32_t extra : {2u, 6u, 14u, 30u}) {
      engine::CountSimulator sim(conv.protocol,
                                 conv.initial_config(conv.num_pointers + extra),
                                 811 + extra);
      std::uint64_t done = 0;
      const std::uint64_t budget = 3'000'000'000ull;
      while (sim.accepting_agents() != sim.population() &&
             sim.interactions() < budget && !sim.frozen())
        sim.step();
      done = sim.interactions();
      scale.add_row(
          {std::to_string(conv.num_pointers + extra),
           done >= budget ? "budget hit" : std::to_string(done),
           analysis::fmt_double(static_cast<double>(done) /
                                    static_cast<double>(sim.population()),
                                0)});
    }
    scale.print(std::cout);
    std::printf("\n(the machine's execution is inherently sequential — one"
                " IP agent drives every\ninstruction — so parallel time"
                " grows with m instead of shrinking: the price of\n"
                "simulating a register machine in a population.)\n\n");
  }

  std::printf("space/time trade at threshold k = 2 (n = 1):\n");
  analysis::TextTable t({"protocol", "states", "median interactions to"
                         " stable consensus (m = 4)"});
  {
    pp::Protocol flock = baselines::make_flock_of_birds(2);
    engine::EnsembleOptions options;
    options.trials = 9;
    options.master_seed = 5;
    options.sim.stable_window = 50'000;
    const engine::EnsembleStats stats =
        engine::run_ensemble(flock, baselines::flock_initial(flock, 4),
                             options);
    t.add_row({"flock of birds (k=2)", std::to_string(flock.num_states()),
               analysis::fmt_double(stats.interactions.p50, 0)});
  }
  t.add_row({"this construction (n=1, k=2)", "880",
             "~1e7 (see test_to_protocol / quickstart)"});
  t.print(std::cout);
  std::printf("\nthe construction needs ~3 orders of magnitude more "
              "interactions at the same k —\nand wins the state count "
              "by a factor 2^(2^(n-1))/n as k grows.\n\n");
}

void BM_ProgramRunN1(benchmark::State& state) {
  const auto c = czerner::build_construction(1);
  const auto flat = progmodel::FlatProgram::compile(c.program);
  const std::uint64_t m = state.range(0);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    std::vector<std::uint64_t> regs(5, 0);
    regs[4] = m;
    progmodel::Runner runner(flat, regs, seed++);
    progmodel::RunOptions options;
    options.stable_window = 200'000;
    options.max_steps = 50'000'000;
    benchmark::DoNotOptimize(runner.run(options));
  }
}
BENCHMARK(BM_ProgramRunN1)->Arg(1)->Arg(2)->Arg(4);

void BM_RestartThroughput(benchmark::State& state) {
  // Raw cost of the restart primitive (multinomial redistribution).
  const auto c = czerner::build_construction(2);
  const auto flat = progmodel::FlatProgram::compile(c.program);
  std::vector<std::uint64_t> regs(9, 0);
  regs[8] = 50;
  progmodel::Runner runner(flat, regs, 3);
  for (auto _ : state) benchmark::DoNotOptimize(runner.step());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RestartThroughput);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
