// Observability overhead benchmarks (DESIGN.md S24).
//
// The obs subsystem's contract is numeric: with tracing *disabled* an
// instrumentation site costs one relaxed load plus a branch — sub-ns, so
// the engine's hot loops can carry spans unconditionally — and with
// tracing *enabled* a span is a clock read plus stores into the calling
// thread's own ring. This binary pins both ends, plus the registry
// primitives the heartbeat reads:
//
//   BM_SpanDisabled        the default path every ppde run pays
//   BM_SpanEnabled         span recording into an active tracer
//   BM_CounterAdd          sharded counter add (per-trial cadence)
//   BM_GaugeSet            relaxed gauge store (per-wave cadence)
//   BM_HistogramRecord     log₂ bucketing + CAS max
//   BM_RegistryLookup      find-or-create by name (why sites cache refs)
//
// With `--json=PATH` the binary instead times the distributed-tracing
// data path the serve fleet added in S29 — capture-mode span recording,
// per-event capture drain (the wire serialisation a worker pays per
// traced batch), daemon-side emit_foreign stitching, DeltaTracker
// collect, and the Prometheus render — and writes a machine-readable
// report (schema tag `bench_obs_v` = 2, default path BENCH_obs.json,
// with the shared "host" object) that tools/check_bench.py validates.
// EXPERIMENTS.md records the numbers next to the end-to-end check:
// bench_simulator's count+null-skip throughput with the instrumented
// library is within noise (<1%) of the committed BENCH_engine.json
// baseline.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_host.hpp"
#include "obs/registry.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ppde;

std::string temp_trace_path() {
  return "/tmp/ppde_bench_obs_trace.json";
}

void BM_SpanDisabled(benchmark::State& state) {
  // No tracer active: constructor + destructor must reduce to a relaxed
  // load and a branch each.
  for (auto _ : state) {
    obs::ObsSpan span("bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_SpanDisabled);

void BM_SpanEnabled(benchmark::State& state) {
  obs::TracerOptions options;
  options.ring_capacity = 1u << 16;
  options.flush_period_ms = 50;
  if (!obs::Tracer::start(temp_trace_path(), options)) {
    state.SkipWithError("cannot start tracer");
    return;
  }
  for (auto _ : state) {
    obs::ObsSpan span("bench_span", "bench");
    benchmark::DoNotOptimize(&span);
  }
  obs::Tracer::stop();
  std::remove(temp_trace_path().c_str());
}
BENCHMARK(BM_SpanEnabled);

void BM_CounterAdd(benchmark::State& state) {
  static obs::Counter& counter =
      obs::Registry::global().counter("bench.counter");
  for (auto _ : state) counter.add(1);
}
BENCHMARK(BM_CounterAdd)->Threads(1)->Threads(4);

void BM_GaugeSet(benchmark::State& state) {
  static obs::Gauge& gauge = obs::Registry::global().gauge("bench.gauge");
  double value = 0.0;
  for (auto _ : state) gauge.set(value += 1.0);
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  static obs::Histogram& histogram =
      obs::Registry::global().histogram("bench.histogram");
  std::uint64_t value = 1;
  for (auto _ : state) {
    histogram.record(value);
    value = value * 2862933555777941757ULL + 3037000493ULL;  // cheap LCG
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_RegistryLookup(benchmark::State& state) {
  // The cost a `static Counter& c = ...` cache at an instrument site
  // avoids paying per hit: mutex + map find.
  for (auto _ : state)
    benchmark::DoNotOptimize(
        &obs::Registry::global().counter("bench.lookup"));
}
BENCHMARK(BM_RegistryLookup);

// ---------------------------------------------------------------------------
// --json report: the S29 distributed-tracing data path, timed end to end
// and written as a bench_obs_v schema for tools/check_bench.py.

struct ReportRow {
  const char* name;
  double ns_per_op;
  std::uint64_t ops;
};

template <typename Fn>
ReportRow time_row(const char* name, std::uint64_t ops, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point begin = Clock::now();
  fn();
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           begin)
          .count());
  return ReportRow{name, ns / static_cast<double>(ops), ops};
}

int write_report(const std::string& path) {
  std::vector<ReportRow> rows;

  // The disabled path every instrumentation site pays by default.
  constexpr std::uint64_t kDisabledOps = 20'000'000;
  rows.push_back(time_row("span_disabled", kDisabledOps, [] {
    for (std::uint64_t i = 0; i < kDisabledOps; ++i) {
      obs::ObsSpan span("bench_span", "bench");
      benchmark::DoNotOptimize(&span);
    }
  }));

  // Worker hot path: spans into a capture-mode tracer's rings, drained
  // every `kBatch` events the way worker_main drains per traced batch.
  // The drain row is the wire-serialisation cost (ring slots -> owned
  // CapturedEvent records) a worker adds to every traced batch reply.
  {
    obs::TracerOptions options;
    options.ring_capacity = 1u << 16;
    if (!obs::Tracer::start_capture(options)) {
      std::fprintf(stderr, "bench_obs: cannot start capture tracer\n");
      return 1;
    }
    constexpr std::uint64_t kBatch = 8'192;
    constexpr std::uint64_t kRounds = 256;
    std::vector<obs::CapturedEvent> drained;
    double drain_ns = 0.0;
    rows.push_back(
        time_row("span_capture", kBatch * kRounds, [&] {
          using Clock = std::chrono::steady_clock;
          for (std::uint64_t round = 0; round < kRounds; ++round) {
            for (std::uint64_t i = 0; i < kBatch; ++i) {
              obs::ObsSpan span("bench_span", "bench");
              benchmark::DoNotOptimize(&span);
            }
            const Clock::time_point begin = Clock::now();
            drained = obs::Tracer::drain_capture();
            drain_ns += static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - begin)
                    .count());
          }
        }));
    // span_capture's wall included the drains; subtract them out.
    rows.back().ns_per_op -=
        drain_ns / static_cast<double>(kBatch * kRounds);
    rows.push_back(ReportRow{"capture_drain_per_event",
                             drain_ns / static_cast<double>(kBatch * kRounds),
                             kBatch * kRounds});
    obs::Tracer::stop();
  }

  // Daemon side of the stitch: emit_foreign rebases and serialises one
  // worker event into the trace file per call.
  {
    const std::string trace_path = temp_trace_path();
    if (!obs::Tracer::start(trace_path)) {
      std::fprintf(stderr, "bench_obs: cannot start file tracer\n");
      return 1;
    }
    obs::Tracer* tracer = obs::Tracer::active();
    obs::CapturedEvent event;
    event.name = "bench_foreign";
    event.cat = "bench";
    event.ts_ns = tracer->epoch_ns();
    event.dur_ns = 1'000;
    event.tid = 1;
    constexpr std::uint64_t kStitchOps = 200'000;
    rows.push_back(time_row("stitch_emit_foreign", kStitchOps, [&] {
      for (std::uint64_t i = 0; i < kStitchOps; ++i)
        tracer->emit_foreign(4242, "bench worker", event);
    }));
    obs::Tracer::stop();
    std::remove(trace_path.c_str());
  }

  // Worker metric shipping: one collect() over a registry with live
  // counters and histograms (the per-batch-reply roll-up cost).
  {
    obs::Counter& counter =
        obs::Registry::global().counter("bench.delta_counter");
    obs::Histogram& histogram =
        obs::Registry::global().histogram("bench.delta_histogram");
    obs::DeltaTracker tracker;
    constexpr std::uint64_t kCollects = 20'000;
    rows.push_back(time_row("delta_collect", kCollects, [&] {
      for (std::uint64_t i = 0; i < kCollects; ++i) {
        counter.add(3);
        histogram.record(i + 1);
        benchmark::DoNotOptimize(tracker.collect());
      }
    }));
  }

  // One Prometheus exposition render (the per-scrape cost).
  {
    constexpr std::uint64_t kRenders = 20'000;
    rows.push_back(time_row("prometheus_render", kRenders, [&] {
      for (std::uint64_t i = 0; i < kRenders; ++i)
        benchmark::DoNotOptimize(obs::Registry::global().to_prometheus());
    }));
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_obs: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\"bench_obs_v\": 2, \"host\": %s, \"rows\": [",
               bench::host_json().c_str());
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::fprintf(out,
                 "%s\n  {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"ops\": %llu}",
                 i == 0 ? "" : ",", rows[i].name, rows[i].ns_per_op,
                 static_cast<unsigned long long>(rows[i].ops));
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
  for (const ReportRow& row : rows)
    std::printf("%-24s %10.3f ns/op  (%llu ops)\n", row.name, row.ns_per_op,
                static_cast<unsigned long long>(row.ops));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0)
      return write_report(argv[i] + 7);
    if (std::strcmp(argv[i], "--json") == 0) return write_report("BENCH_obs.json");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
