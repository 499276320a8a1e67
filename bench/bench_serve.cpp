// Serve-daemon scaling benchmark (DESIGN.md S25).
//
// Runs the same certification query against an in-process `ppde serve`
// instance at 1, 2, 4 and 8 forked workers, and reports the wall time of
// each run plus the certificate digest. The digest MUST be byte-identical
// at every worker count — the daemon replays the canonical fold over
// ordered trial records, so dispatch is invisible to the certificate —
// and this binary exits non-zero if it is not, making it usable as a CI
// gate as well as a scaling probe.
//
// The certify rows pin the invariant, not throughput — the SPRT stops
// after a handful of trials, so their wall time is fork setup plus the
// trials the daemon dispatches one at a time up to its look-ahead horizon
// (2 × live workers past the fold frontier) and cancels on the decision.
// Each row records the trials the certificate folded and the trials its
// workers executed; tools/check_bench.py holds the second to at most the
// first plus 2 × workers. Every daemon runs in this process and forks its
// workers from it, so main() builds the query's statement before the
// first daemon: every row then starts from the same warm cache instead of
// the first one paying the construction. Scaling is measured on a second
// set of rows: a
// fixed-size ensemble query (no early stopping, every trial runs its full
// budget), which is the embarrassingly parallel workload the worker fleet
// exists for.
//
// Not a google-benchmark binary: each measurement forks worker processes,
// which must happen from a single-threaded parent, and the unit of
// interest is one whole query, not a tight loop. Writes a machine-
// readable report (default BENCH_serve.json, override with --json=PATH):
//
//   {"bench_serve_v": 3, "host": {...}, "query": {...}, "runs": [...],
//    "ensemble_query": {...}, "ensemble_runs": [...]}
//
// EXPERIMENTS.md records the numbers.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_host.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/statement.hpp"
#include "serve/wire.hpp"

namespace {

using namespace ppde;

serve::QueryParams bench_query() {
  serve::QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = 8;  // population 22
  query.trials = 24;
  query.seed = 7;
  query.delta = 0.1;
  query.indifference = 0.8;
  query.window = 1'000'000;
  query.budget = 100'000'000;
  return query;
}

serve::QueryParams scaling_query() {
  // Fixed work: 16 trials, each running its full interaction budget (the
  // 90M-meeting consensus window is never satisfied at population 22, so
  // no trial stops early), dispatched one trial per batch so every worker
  // stays busy.
  serve::QueryParams query = bench_query();
  query.req = "ensemble";
  query.trials = 16;
  query.window = 90'000'000;
  query.budget = 200'000'000;
  query.shard = 1;
  return query;
}

std::string extract(const std::string& response, const std::string& key) {
  const std::string needle = "\"" + key + "\":\"";
  const auto start = response.find(needle);
  if (start == std::string::npos) return {};
  const auto begin = start + needle.size();
  const auto end = response.find('"', begin);
  if (end == std::string::npos) return {};
  return response.substr(begin, end - begin);
}

struct Run {
  unsigned workers = 0;
  double wall_seconds = 0.0;
  std::string digest;
  std::string verdict;
  std::uint64_t trials = 0;           ///< certify: trials the fold used
  std::uint64_t trials_executed = 0;  ///< certify: trials the workers ran
};

Run run_at(unsigned workers, const serve::QueryParams& query) {
  serve::ServerOptions options;
  options.port = 0;  // ephemeral
  options.workers = workers;
  serve::Server server(options);
  std::thread runner([&server] { server.run(); });

  const std::string hostport =
      "127.0.0.1:" + std::to_string(server.port());
  std::string response, error;
  const auto start = std::chrono::steady_clock::now();
  const bool ok =
      serve::rpc(hostport, serve::encode_query(query), &response, &error);
  const auto stop = std::chrono::steady_clock::now();
  // The query's flight record: how many trials its workers shipped.
  serve::QueryParams recent{"stats"};
  recent.recent = 1;
  std::string flight;
  const bool have_flight =
      ok && serve::rpc(hostport, serve::encode_query(recent), &flight, &error);

  server.request_stop();
  runner.join();

  if (!ok || !have_flight) throw std::runtime_error("rpc failed: " + error);
  if (response.find("\"ok\":true") == std::string::npos)
    throw std::runtime_error("query failed: " + response);

  Run run;
  run.workers = workers;
  run.wall_seconds = std::chrono::duration<double>(stop - start).count();
  if (query.req == "certify") {
    run.digest = extract(response, "digest");
    run.verdict = extract(response, "verdict");
    const serve::Json* certificate =
        serve::Json::parse(response).find("certificate");
    if (run.digest.empty() || run.verdict.empty() || certificate == nullptr)
      throw std::runtime_error("malformed certificate: " + response);
    run.trials = certificate->u64("trials", 0);
    const serve::Json stats = serve::Json::parse(flight);
    const serve::Json* records = stats.find("recent");
    if (records == nullptr || records->items().empty())
      throw std::runtime_error("no flight record: " + flight);
    run.trials_executed = records->items()[0].u64("trials_executed", 0);
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const serve::QueryParams query = bench_query();
  const serve::QueryParams ensemble = scaling_query();
  std::vector<Run> runs, ensemble_runs;
  try {
    serve::statement(query.n);  // warm for every daemon and its workers
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      runs.push_back(run_at(workers, query));
      const Run& run = runs.back();
      std::printf("certify   workers=%u  wall=%.3fs  verdict=%s  "
                  "digest=%s  trials folded=%llu executed=%llu\n",
                  run.workers, run.wall_seconds, run.verdict.c_str(),
                  run.digest.c_str(),
                  static_cast<unsigned long long>(run.trials),
                  static_cast<unsigned long long>(run.trials_executed));
    }
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      ensemble_runs.push_back(run_at(workers, ensemble));
      const Run& run = ensemble_runs.back();
      std::printf("ensemble  workers=%u  wall=%.3fs  speedup=%.2f\n",
                  run.workers, run.wall_seconds,
                  ensemble_runs.front().wall_seconds / run.wall_seconds);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 1;
  }

  bool identical = true;
  for (const Run& run : runs)
    identical = identical && run.digest == runs.front().digest &&
                run.verdict == runs.front().verdict;
  if (!identical) {
    std::fprintf(stderr,
                 "bench_serve: digest/verdict differ across worker "
                 "counts — merge determinism is broken\n");
    return 1;
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "bench_serve: cannot write %s\n",
                 json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench_serve_v\": 3, \"host\": %s, \"query\": {\"n\": %d, "
               "\"extra\": %u, \"trials\": %llu, \"seed\": %llu, "
               "\"delta\": %g, \"indifference\": %g, \"window\": %llu, "
               "\"budget\": %llu}, \"runs\": [",
               bench::host_json().c_str(), query.n, query.extra,
               static_cast<unsigned long long>(query.trials),
               static_cast<unsigned long long>(query.seed), query.delta,
               query.indifference,
               static_cast<unsigned long long>(query.window),
               static_cast<unsigned long long>(query.budget));
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& run = runs[i];
    std::fprintf(out,
                 "%s{\"workers\": %u, \"wall_seconds\": %.6f, "
                 "\"verdict\": \"%s\", \"digest\": \"%s\", "
                 "\"trials\": %llu, \"trials_executed\": %llu}",
                 i == 0 ? "" : ", ", run.workers, run.wall_seconds,
                 run.verdict.c_str(), run.digest.c_str(),
                 static_cast<unsigned long long>(run.trials),
                 static_cast<unsigned long long>(run.trials_executed));
  }
  std::fprintf(out,
               "], \"digest_identical\": true, \"ensemble_query\": "
               "{\"trials\": %llu, \"budget\": %llu, \"shard\": %llu}, "
               "\"ensemble_runs\": [",
               static_cast<unsigned long long>(ensemble.trials),
               static_cast<unsigned long long>(ensemble.budget),
               static_cast<unsigned long long>(ensemble.shard));
  for (std::size_t i = 0; i < ensemble_runs.size(); ++i) {
    const Run& run = ensemble_runs[i];
    std::fprintf(out,
                 "%s{\"workers\": %u, \"wall_seconds\": %.6f, "
                 "\"speedup\": %.3f}",
                 i == 0 ? "" : ", ", run.workers, run.wall_seconds,
                 ensemble_runs.front().wall_seconds / run.wall_seconds);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
