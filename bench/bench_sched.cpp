// Convergence under adversarial scheduling & faults (DESIGN.md S27).
//
// Runs small trial fleets of three constructions — the paper's n=1
// double-exponential threshold protocol, the flock-of-birds baseline and
// the 4-state majority baseline — under every scheduler strategy plus
// representative fault plans, and reports per-scenario stabilisation
// counts and convergence quantiles. This is the data behind the
// EXPERIMENTS.md scheduler × construction table: the threshold protocol's
// almost self-stabilisation (Theorem 2) predicts it recovers from
// transient corruption, while the 1-aware flock baseline does not.
//
// Not a google-benchmark binary: the unit of interest is a whole fleet
// under one scenario. It prints one line per scenario; with --json it also
// writes a machine-readable report to BENCH_sched.json (--json=PATH
// elsewhere), so a plain run never touches the committed report:
//
//   {"bench_sched_v": 2, "host": {...}, "trials": T, "rows": [
//     {"construction": "...", "scenario": "...", "population": m,
//      "window": W, "budget": B, "stabilised": k, "accepted": k,
//      "interactions_p50": ..., "parallel_time_p50": ...,
//      "total_firings": ..., "wall_seconds": ...}, ...]}
//
// "host" is the shared bench_host.hpp object. tools/check_bench.py
// validates the schema; EXPERIMENTS.md records the numbers.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/flock.hpp"
#include "baselines/majority.hpp"
#include "bench_host.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "sched/scenario.hpp"

namespace {

using namespace ppde;

const char* kScenarios[] = {
    "uniform", "ring", "grid", "regular:4", "biased:4", "aging",
    "uniform+corrupt:0.0001", "uniform+churn:0.0001",
    "uniform+burst:200000,4",
};

struct Workload {
  std::string name;
  const pp::Protocol* protocol;
  pp::Config initial;
  std::uint64_t window;
  std::uint64_t budget;
};

struct Row {
  std::string construction;
  std::string scenario;
  std::uint64_t population = 0;
  std::uint64_t window = 0;
  std::uint64_t budget = 0;
  engine::EnsembleStats stats;
};

Row run_row(const Workload& load, const std::string& scenario_text,
            std::uint64_t trials) {
  engine::EnsembleOptions options;
  options.trials = trials;
  options.threads = 0;
  options.master_seed = 7;
  options.scenario = sched::Scenario::parse(scenario_text);
  options.sim.stable_window = load.window;
  options.sim.max_interactions = load.budget;
  Row row;
  row.construction = load.name;
  row.scenario = options.scenario.to_string();
  row.population = load.initial.total();
  row.window = load.window;
  row.budget = load.budget;
  row.stats = engine::run_ensemble(*load.protocol, load.initial, options);
  return row;
}

void append_row(std::string& out, const Row& row) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof buffer,
      "{\"construction\": \"%s\", \"scenario\": \"%s\", "
      "\"population\": %llu, \"window\": %llu, \"budget\": %llu, "
      "\"stabilised\": %llu, \"accepted\": %llu, "
      "\"interactions_p50\": %.1f, \"parallel_time_p50\": %.3f, "
      "\"total_firings\": %llu, \"wall_seconds\": %.6f}",
      row.construction.c_str(), row.scenario.c_str(),
      static_cast<unsigned long long>(row.population),
      static_cast<unsigned long long>(row.window),
      static_cast<unsigned long long>(row.budget),
      static_cast<unsigned long long>(row.stats.stabilised),
      static_cast<unsigned long long>(row.stats.accepted),
      row.stats.interactions.p50, row.stats.parallel_time.p50,
      static_cast<unsigned long long>(row.stats.totals.firings),
      row.stats.wall_seconds);
  out += buffer;
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;  // no report without --json
  std::uint64_t trials = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = "BENCH_sched.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strncmp(argv[i], "--trials=", 9) == 0)
      trials = std::strtoull(argv[i] + 9, nullptr, 10);
  }

  // The paper's construction at n=1 with 8 extra agents (population 22),
  // and the two baselines at comparable populations.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const pp::Protocol flock = baselines::make_flock_of_birds(16);
  const pp::Protocol majority = baselines::make_majority();

  std::vector<Workload> workloads;
  workloads.push_back({"czerner:n=1,extra=8", &conv.protocol,
                       conv.initial_config(conv.num_pointers + 8),
                       /*window=*/200'000, /*budget=*/4'000'000});
  workloads.push_back({"flock:k=16,x=20", &flock,
                       baselines::flock_initial(flock, 20),
                       /*window=*/50'000, /*budget=*/2'000'000});
  workloads.push_back({"majority:x=12,y=8", &majority,
                       baselines::majority_initial(majority, 12, 8),
                       /*window=*/50'000, /*budget=*/2'000'000});

  std::string out = "{\"bench_sched_v\": 2, \"host\": " +
                    bench::host_json() + ", \"trials\": ";
  out += std::to_string(trials);
  out += ", \"rows\": [";
  bool first = true;
  for (const Workload& load : workloads) {
    for (const char* scenario : kScenarios) {
      const Row row = run_row(load, scenario, trials);
      std::printf("%-22s %-24s stabilised %llu/%llu  accepted %llu  "
                  "p50 %.2fM interactions\n",
                  row.construction.c_str(), row.scenario.c_str(),
                  static_cast<unsigned long long>(row.stats.stabilised),
                  static_cast<unsigned long long>(row.stats.trials),
                  static_cast<unsigned long long>(row.stats.accepted),
                  row.stats.interactions.p50 / 1e6);
      std::fflush(stdout);
      if (!first) out += ", ";
      first = false;
      append_row(out, row);
    }
  }
  out += "]}";
  if (json_path == nullptr) return 0;

  std::FILE* file = std::fopen(json_path, "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_sched: cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(file, "%s\n", out.c_str());
  std::fclose(file);
  std::printf("wrote %s\n", json_path);
  return 0;
}
