// Figure 4 — converting machine instructions into protocol transitions.
//
// Regenerates the figure's content quantitatively: for each instruction
// kind, how many transitions the Appendix-B.3 gadgets generate, and a few
// concrete transitions rendered from the real converted protocol. Then
// times the conversion.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <iostream>

#include "analysis/crn.hpp"
#include "analysis/tables.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "progmodel/sample_programs.hpp"

namespace {

using namespace ppde;

void print_report() {
  std::printf("== Figure 4: instruction -> transition conversion ==\n\n");
  const auto lowered =
      compile::lower_program(progmodel::make_figure3_program());
  const machine::Machine& m = lowered.machine;
  const auto conv = compile::machine_to_protocol(m);

  std::printf("machine: %zu instructions, %zu pointers -> protocol: %zu "
              "states, %zu transitions\n\n",
              m.num_instructions(), m.num_pointers(),
              conv.protocol.num_states(), conv.protocol.num_transitions());

  // Render the gadget for the first move instruction (paper's line 1):
  std::uint32_t move_at = 0;
  while (m.instrs[move_at].kind != machine::Instr::Kind::kMove) ++move_at;
  const pp::State ip_none =
      conv.pointer_state(m.ip, move_at, compile::Stage::kNone, false);
  const machine::PtrId vx = m.v_reg[m.instrs[move_at].x];
  const pp::State vx_none =
      conv.pointer_state(vx, 0, compile::Stage::kNone, false);
  std::printf("sample <move> gadget transitions (x -> y at instruction %u):\n",
              move_at + 1);
  for (const pp::Transition& t : conv.protocol.transitions()) {
    if (t.q != ip_none || t.r != vx_none) continue;
    std::printf("  %s, %s -> %s, %s\n", conv.protocol.name(t.q).c_str(),
                conv.protocol.name(t.r).c_str(),
                conv.protocol.name(t.q2).c_str(),
                conv.protocol.name(t.r2).c_str());
  }

  std::printf("\ntransitions per machine for the pipeline stages (the CRN"
              " columns read the\nprotocol as the chemical reaction network"
              " of the paper's motivation — one species\nper state, one"
              " bimolecular reaction per distinct transition):\n");
  analysis::TextTable t({"machine", "instrs", "|F|", "protocol states",
                         "transitions", "CRN reactions"});
  for (const auto& [name, program] :
       {std::pair{std::string("figure 3"), progmodel::make_figure3_program()},
        {std::string("figure 1"), progmodel::make_figure1_program()},
        {std::string("threshold(3)"), progmodel::make_threshold_program(3)},
        {std::string("czerner n=1"),
         czerner::build_construction(1).program}}) {
    const auto lm = compile::lower_program(program);
    const auto pc = compile::machine_to_protocol(lm.machine);
    t.add_row({name, std::to_string(lm.machine.num_instructions()),
               std::to_string(lm.machine.num_pointers()),
               std::to_string(pc.protocol.num_states()),
               std::to_string(pc.protocol.num_transitions()),
               std::to_string(analysis::crn_stats(pc.protocol).reactions)});
  }
  t.print(std::cout);
  std::printf("\nNote: transition counts are dominated by the <elect> "
              "wildcards over IP's 3L states\nand the <test> false-case "
              "(one transition per other state); the *state* count is\n"
              "what Theorem 5 bounds.\n\n");
}

void BM_ConvertFigure1(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(progmodel::make_figure1_program());
  for (auto _ : state)
    benchmark::DoNotOptimize(compile::machine_to_protocol(lowered.machine));
}
BENCHMARK(BM_ConvertFigure1);

void BM_ConvertCzernerN1(benchmark::State& state) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  for (auto _ : state)
    benchmark::DoNotOptimize(compile::machine_to_protocol(lowered.machine));
}
BENCHMARK(BM_ConvertCzernerN1);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
