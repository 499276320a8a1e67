// Exhaustive-verification scale on the S22 kernel.
//
// Workload: exact fair-run verification of the converted czerner n=1
// protocol from pi(C) with m_regs agents in the input register — the same
// state spaces `ppde verify 1 <m>` explores. Reports wall time and
// explored nodes/edges at 1, 4 and 8 threads for a sweep of m_regs, plus
// the largest m_regs that completes within the 8M-node budget. Feeds the
// EXPERIMENTS.md verification-scale table.
//
// With --json[=path] the binary instead writes a machine-readable report
// (default BENCH_verify.json, schema bench_verify_v 2) and exits: one row
// per m_regs in {5, 6, 7} and thread count in {1, 2, 4}, with the
// explored configurations and edges, the successors the expansion emitted
// (the `verify.successors_emitted` counter), wall time and the kernel's
// graph store bytes, under the same "host" object as BENCH_engine.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>

#include "bench_host.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "machine/interp.hpp"
#include "obs/registry.hpp"
#include "pp/verifier.hpp"

namespace {

using namespace ppde;

struct Workload {
  czerner::Construction c;
  compile::LoweredMachine lowered;
  compile::ProtocolConversion conv;
};

const Workload& workload() {
  static const Workload w = [] {
    Workload workload;
    workload.c = czerner::build_construction(1);
    workload.lowered = compile::lower_program(workload.c.program);
    compile::ConversionOptions nb;
    nb.with_broadcast = false;
    workload.conv = compile::machine_to_protocol(workload.lowered.machine, nb);
    return workload;
  }();
  return w;
}

pp::Config initial_for(const Workload& w, std::uint64_t m_regs) {
  std::vector<std::uint64_t> regs(w.c.num_registers(), 0);
  regs[w.c.R()] = m_regs;
  return w.conv.pi(machine::initial_state(w.lowered.machine, regs), false);
}

void BM_VerifyConvertedN1(benchmark::State& state) {
  const Workload& w = workload();
  const std::uint64_t m_regs = static_cast<std::uint64_t>(state.range(0));
  const unsigned threads = static_cast<unsigned>(state.range(1));
  const pp::Config initial = initial_for(w, m_regs);
  pp::VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 8'000'000;
  options.threads = threads;
  pp::VerificationResult result;
  for (auto _ : state) {
    result = pp::Verifier(w.conv.protocol).verify(initial, options);
    benchmark::DoNotOptimize(result);
  }
  state.counters["configs"] = static_cast<double>(result.explored_configs);
  state.counters["edges"] = static_cast<double>(result.explored_edges);
  state.counters["configs/s"] = benchmark::Counter(
      static_cast<double>(result.explored_configs),
      benchmark::Counter::kIsIterationInvariantRate);
}

void configure(benchmark::internal::Benchmark* bench) {
  for (const int m : {4, 6, 8})
    for (const int threads : {1, 4, 8}) bench->Args({m, threads});
  bench->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
      ->UseRealTime();
}

BENCHMARK(BM_VerifyConvertedN1)->Apply(configure);

/// Not a google-benchmark timing loop: finds the largest m_regs whose full
/// graph is verified within the 8M-node budget AND a per-population
/// wall-clock allowance — the headline number for EXPERIMENTS.md ("how big
/// a population can we verify exactly?"). Stops at the first population
/// that misses the allowance or trips the node budget.
void BM_FrontierWithinBudget(benchmark::State& state) {
  const Workload& w = workload();
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const double allowance_seconds = 12.0;
  std::uint64_t frontier = 0;
  for (auto _ : state) {
    frontier = 0;
    for (std::uint64_t m = 1;; ++m) {
      pp::VerifierOptions options;
      options.witness_mode = true;
      options.max_configs = 8'000'000;
      options.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const pp::VerificationResult result =
          pp::Verifier(w.conv.protocol).verify(initial_for(w, m), options);
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (!result.stabilises() || elapsed > allowance_seconds) break;
      frontier = m;
    }
  }
  state.counters["max_m_regs"] = static_cast<double>(frontier);
}

BENCHMARK(BM_FrontierWithinBudget)
    ->Arg(1)
    ->Arg(8)
    ->Unit(benchmark::kSecond)
    ->Iterations(1)
    ->UseRealTime();

int write_json_report(const char* path) {
  const Workload& w = workload();
  const obs::Counter& emitted =
      obs::Registry::global().counter("verify.successors_emitted");
  std::string rows;
  for (const std::uint64_t m_regs : {5u, 6u, 7u}) {
    const pp::Config initial = initial_for(w, m_regs);
    for (const unsigned threads : {1u, 2u, 4u}) {
      pp::VerifierOptions options;
      options.witness_mode = true;
      options.max_configs = 8'000'000;
      options.threads = threads;
      const std::uint64_t emitted_before = emitted.value();
      const auto start = std::chrono::steady_clock::now();
      const pp::VerificationResult result =
          pp::Verifier(w.conv.protocol).verify(initial, options);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      char row[320];
      std::snprintf(row, sizeof row,
                    "%s\n    {\"protocol\": \"czerner-n1-converted\", "
                    "\"m_regs\": %llu, \"threads\": %u, \"configs\": %llu, "
                    "\"edges\": %llu, \"successors_emitted\": %llu, "
                    "\"wall_s\": %.3f, \"store_bytes\": %llu}",
                    rows.empty() ? "" : ",",
                    static_cast<unsigned long long>(m_regs), threads,
                    static_cast<unsigned long long>(result.explored_configs),
                    static_cast<unsigned long long>(result.explored_edges),
                    static_cast<unsigned long long>(emitted.value() -
                                                    emitted_before),
                    wall,
                    static_cast<unsigned long long>(result.store_bytes));
      rows += row;
      std::printf("m_regs=%llu threads=%u: %llu configs, %llu edges, "
                  "%.2f s\n",
                  static_cast<unsigned long long>(m_regs), threads,
                  static_cast<unsigned long long>(result.explored_configs),
                  static_cast<unsigned long long>(result.explored_edges),
                  wall);
    }
  }
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_verify_kernel: cannot open %s for writing\n",
                 path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench_verify_v\": 2,\n  \"host\": %s,\n"
               "  \"rows\": [%s\n  ]\n}\n",
               bench::host_json().c_str(), rows.c_str());
  std::fclose(out);
  std::printf("bench_verify_kernel: wrote %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flag before google-benchmark sees (and rejects) it.
  const char* json_path = nullptr;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_verify.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = argv[i] + 7;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (json_path != nullptr) return write_json_report(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
