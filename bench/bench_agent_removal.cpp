// Agent removal — the paper's closing open question, measured.
//
// "A natural next step would be to investigate the *removal* of agents:
//  can a protocol provide guarantees in the case that a small number of
//  agents disappear during the computation?"
//
// This harness removes one agent mid-run from the converted n=1 protocol
// and reports what happens, separated by the victim's role:
//   * a register agent — the population total changes; the protocol keeps
//     restarting and (empirically) re-converges to phi' of the *new*
//     total: the detect-restart architecture is removal-tolerant for
//     counted agents,
//   * a pointer agent — the machinery loses a unique role that leader
//     election cannot re-create (election only merges duplicates); the
//     computation freezes and the output is whatever opinion distribution
//     was left — no guarantee survives, confirming that removal tolerance
//     would need new machinery, exactly as the paper suggests.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "analysis/tables.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/count_sim.hpp"
#include "pp/simulator.hpp"

namespace {

using namespace ppde;

void print_report() {
  std::printf("== Open question: removing an agent mid-run (n = 1) ==\n\n");
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint32_t f = conv.num_pointers;

  // Register agents occupy the first 2 * |Q| realized states (both
  // opinions); everything else is pointer/gadget machinery.
  const pp::State last_register_state =
      conv.reg_state(static_cast<machine::RegId>(
                         lowered.machine.num_registers() - 1),
                     true);
  const auto is_register_agent = [last_register_state](pp::State q) {
    return q <= last_register_state;
  };

  analysis::TextTable t({"victim", "m before", "m after", "verdict",
                         "expected phi'(m after)"});
  pp::SimulationOptions options;
  options.stable_window = 90'000'000;
  options.max_interactions = 1'200'000'000;

  struct Scenario {
    const char* label;
    std::uint32_t extra;
    bool remove_register;
  };
  const Scenario scenarios[] = {
      {"register agent", 3, true},   // 3 -> 2 counted agents: still accept
      {"register agent", 2, true},   // 2 -> 1: must flip to reject
      {"pointer agent", 2, false},   // machinery lost: stuck (reads reject)
      {"pointer agent", 3, false},   // machinery lost on an accepting total:
                                     // the freeze VISIBLY breaks the
                                     // guarantee (expected accept, gets
                                     // stuck)
  };
  for (const auto& scenario : scenarios) {
    engine::CountSimulator sim(
        conv.protocol, conv.initial_config(f + scenario.extra),
        191 + scenario.extra + (scenario.remove_register ? 7 : 0));
    // Let the protocol elect and get going, then strike. A frozen run can
    // never un-freeze, so stop early instead of spinning on null meetings.
    while (sim.interactions() < 3'000'000 && !sim.frozen()) sim.step();
    const std::uint64_t before = sim.population();
    const auto removed = sim.remove_random_agent(
        scenario.remove_register
            ? std::function<bool(pp::State)>(is_register_agent)
            : std::function<bool(pp::State)>(
                  [&](pp::State q) { return !is_register_agent(q); }));
    const std::uint64_t after = sim.population();
    const bool expected =
        after >= f && after - f >= 2;
    std::string verdict = "no consensus";
    if (removed.has_value()) {
      const auto result = sim.run_until_stable(options);
      if (result.stabilised)
        verdict = result.output ? "ACCEPT" : "reject";
    }
    t.add_row({scenario.label, std::to_string(before), std::to_string(after),
               verdict, expected ? "accept" : "reject"});
  }
  t.print(std::cout);
  std::printf(
      "\nRegister-agent removal: the restart loop recounts and the verdict "
      "tracks the new\ntotal. Pointer-agent removal: rejection rows may still "
      "read 'reject' (silence is\nindistinguishable from a frozen machine), "
      "but accepting totals freeze either\nshort of consensus or on the wrong "
      "verdict — no guarantee survives, matching\nthe paper's assessment "
      "that this needs new machinery.\n\n");
}

void BM_RemovalScan(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  pp::Simulator sim(conv.protocol, conv.initial_config(conv.num_pointers + 8),
                    3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim.remove_random_agent([](pp::State) { return true; }));
    state.PauseTiming();
    // keep population stable for steady-state measurement
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RemovalScan)->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
