// Tests for the observability subsystem (DESIGN.md S24): trace-file
// schema and lifecycle, ring-overflow drop accounting, multi-threaded
// span recording, the sharded metrics registry, log₂ histogram quantiles,
// the progress heartbeat, and — the load-bearing invariant — that tracing
// never perturbs a certified result: certificate digests are identical
// with tracing on, off, and at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "baselines/flock.hpp"
#include "obs/flight.hpp"
#include "obs/progress.hpp"
#include "obs/prom_http.hpp"
#include "obs/registry.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"

namespace ppde::obs {
namespace {

std::string temp_trace_path(const char* tag) {
  return testing::TempDir() + "obs_" + tag + "_" +
         std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
         ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++count;
  return count;
}

/// RAII cleanup so a failing assertion doesn't leak temp files.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

TEST(Tracer, DisabledByDefault) {
  EXPECT_EQ(Tracer::active(), nullptr);
  // Spans and counters must be safe no-ops with no tracer installed.
  {
    ObsSpan span("noop", "test");
    span.set_value(1.0);
    trace_counter("noop.counter", 2.0);
  }
  EXPECT_EQ(Tracer::active(), nullptr);
}

TEST(Tracer, WritesSchemaCompliantTraceFile) {
  const std::string path = temp_trace_path("schema");
  FileGuard guard{path};
  ASSERT_TRUE(Tracer::start(path));
  ASSERT_NE(Tracer::active(), nullptr);
  {
    ObsSpan span("outer", "test");
    span.set_value(3.0);
    { ObsSpan inner("inner", "test"); }
  }
  trace_counter("test.gauge", 42.5);
  Tracer::stop();
  EXPECT_EQ(Tracer::active(), nullptr);

  const std::string text = slurp(path);
  const std::vector<std::string> lines = lines_of(text);
  ASSERT_GE(lines.size(), 6u);  // [ header, 3 events, footer, ]
  // The whole file is one JSON array: every event on its own line with a
  // trailing comma except the footer, so `sed 's/,$//'` yields JSONL and
  // json.load() takes the file as-is.
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
  for (std::size_t i = 1; i + 2 < lines.size(); ++i)
    EXPECT_EQ(lines[i].back(), ',') << "line " << i << ": " << lines[i];
  EXPECT_NE(lines[1].find("\"obs_trace_v\":1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ph\":\"M\""), std::string::npos);

  // Both spans, nested order irrelevant, plus the counter sample.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 2u);
  EXPECT_NE(text.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(text.find("\"args\":{\"n\":3}"), std::string::npos);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"C\""), 1u);
  EXPECT_NE(text.find("\"name\":\"test.gauge\""), std::string::npos);
  // Footer accounts for every event: 3 written, none dropped.
  EXPECT_NE(text.find("\"name\":\"obs_summary\""), std::string::npos);
  EXPECT_NE(text.find("\"written\":3"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":0"), std::string::npos);
}

TEST(Tracer, SecondStartWhileActiveFails) {
  const std::string path = temp_trace_path("second");
  FileGuard guard{path};
  ASSERT_TRUE(Tracer::start(path));
  EXPECT_FALSE(Tracer::start(temp_trace_path("second_b")));
  Tracer::stop();
  // stop() is idempotent; a fresh start after stop works.
  Tracer::stop();
  ASSERT_TRUE(Tracer::start(path));
  Tracer::stop();
}

TEST(Tracer, StartFailsOnUnopenablePath) {
  EXPECT_FALSE(Tracer::start("/nonexistent-dir-for-obs-test/trace.json"));
  EXPECT_EQ(Tracer::active(), nullptr);
}

TEST(Tracer, RecordsSpansFromManyThreads) {
  const std::string path = temp_trace_path("threads");
  FileGuard guard{path};
  ASSERT_TRUE(Tracer::start(path));
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i)
        ObsSpan span("worker_span", "test");
    });
  for (std::thread& worker : workers) worker.join();
  Tracer::stop();

  const std::string text = slurp(path);
  EXPECT_EQ(count_occurrences(text, "\"name\":\"worker_span\""),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  // Each thread serialises under its own tid; 4 worker threads on fresh
  // rings means at least 4 distinct tids beyond the metadata's tid 0.
  std::size_t distinct_tids = 0;
  for (int tid = 1; tid <= kThreads + 1; ++tid)
    if (text.find("\"tid\":" + std::to_string(tid)) != std::string::npos)
      ++distinct_tids;
  EXPECT_GE(distinct_tids, static_cast<std::size_t>(kThreads));
}

TEST(Tracer, FullRingDropsAndCountsInsteadOfBlocking) {
  const std::string path = temp_trace_path("drops");
  FileGuard guard{path};
  TracerOptions options;
  options.ring_capacity = 8;  // tiny ring
  options.flush_period_ms = 10'000;  // collector effectively never wakes
  ASSERT_TRUE(Tracer::start(path, options));
  constexpr int kEvents = 1000;
  for (int i = 0; i < kEvents; ++i) ObsSpan span("burst", "test");
  const std::uint64_t dropped = Tracer::active()->dropped();
  EXPECT_GT(dropped, 0u);
  Tracer::stop();

  // written + dropped accounts for every record attempt; the final drain
  // in stop() may rescue up to ring_capacity events beyond the snapshot.
  const std::string text = slurp(path);
  const std::size_t written = count_occurrences(text, "\"name\":\"burst\"");
  EXPECT_LE(written, static_cast<std::size_t>(kEvents));
  EXPECT_NE(text.find("\"dropped\":"), std::string::npos);
  EXPECT_EQ(text.find("\"dropped\":0"), std::string::npos);
}

TEST(Registry, CounterSumsAcrossThreads) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Registry, GaugeKeepsLastWrite) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.5);
  gauge.set(-7.25);
  EXPECT_EQ(gauge.value(), -7.25);
  gauge.reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(Registry, HistogramBucketsByLog2WithUpperEdgeQuantiles) {
  Histogram histogram;
  EXPECT_EQ(histogram.quantile_upper(0.5), 0u);  // empty
  histogram.record(0);
  histogram.record(1);
  histogram.record(2);
  histogram.record(3);   // bucket [2,4)
  histogram.record(100);  // bucket [64,128)
  EXPECT_EQ(histogram.count(), 5u);
  EXPECT_EQ(histogram.sum(), 106u);
  EXPECT_EQ(histogram.max(), 100u);
  EXPECT_EQ(histogram.bucket(0), 1u);  // the 0
  EXPECT_EQ(histogram.bucket(1), 1u);  // the 1
  EXPECT_EQ(histogram.bucket(2), 2u);  // 2 and 3
  EXPECT_EQ(histogram.bucket(7), 1u);  // 100
  // Median lands in bucket [2,4): upper edge 4. p99 is the top sample's
  // bucket: upper edge 128. Factor-of-2 precision by construction.
  EXPECT_EQ(histogram.quantile_upper(0.5), 4u);
  EXPECT_EQ(histogram.quantile_upper(0.99), 128u);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.max(), 0u);
}

TEST(Registry, FindOrCreateIsStableAndKindChecked) {
  Registry& registry = Registry::global();
  Counter& a = registry.counter("test_obs.stable");
  Counter& b = registry.counter("test_obs.stable");
  EXPECT_EQ(&a, &b);
  EXPECT_THROW(registry.gauge("test_obs.stable"), std::logic_error);
  EXPECT_THROW(registry.histogram("test_obs.stable"), std::logic_error);
}

TEST(Registry, SnapshotReportsSortedNamesAndValues) {
  Registry& registry = Registry::global();
  registry.counter("test_obs.snap_c").add(3);
  registry.gauge("test_obs.snap_g").set(2.5);
  registry.histogram("test_obs.snap_h").record(9);
  const std::vector<MetricSnapshot> snapshot = registry.snapshot();
  ASSERT_GE(snapshot.size(), 3u);
  for (std::size_t i = 1; i < snapshot.size(); ++i)
    EXPECT_LT(snapshot[i - 1].name, snapshot[i].name);
  bool saw_counter = false, saw_gauge = false, saw_histogram = false;
  for (const MetricSnapshot& metric : snapshot) {
    if (metric.name == "test_obs.snap_c") {
      saw_counter = true;
      EXPECT_EQ(metric.kind, MetricKind::kCounter);
      EXPECT_GE(metric.value, 3.0);
    } else if (metric.name == "test_obs.snap_g") {
      saw_gauge = true;
      EXPECT_EQ(metric.kind, MetricKind::kGauge);
      EXPECT_EQ(metric.value, 2.5);
    } else if (metric.name == "test_obs.snap_h") {
      saw_histogram = true;
      EXPECT_EQ(metric.kind, MetricKind::kHistogram);
      EXPECT_GE(metric.count, 1u);
      EXPECT_EQ(metric.p50, 16u);  // 9 lands in [8,16)
    }
  }
  EXPECT_TRUE(saw_counter && saw_gauge && saw_histogram);
  EXPECT_NE(registry.to_string().find("test_obs.snap_g"), std::string::npos);
}

TEST(Progress, MonitorTicksAndPrintsViaCallback) {
  std::atomic<int> calls{0};
  {
    ProgressMonitor monitor(0.02, [&calls]() -> std::string {
      const int call = calls.fetch_add(1) + 1;
      // Alternate empty lines to exercise the skip path.
      return call % 2 == 0 ? std::string()
                           : "[test_obs] heartbeat " + std::to_string(call);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    monitor.stop();
    EXPECT_GE(monitor.ticks(), 2u);
    EXPECT_GE(calls.load(), 2);
    const int after_stop = calls.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    EXPECT_EQ(calls.load(), after_stop);  // stop() really stopped it
    monitor.stop();  // idempotent
  }
}

TEST(Progress, DestructorStopsWithoutExplicitStop) {
  std::atomic<int> calls{0};
  {
    ProgressMonitor monitor(0.01, [&calls]() -> std::string {
      calls.fetch_add(1);
      return std::string();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const int after = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(calls.load(), after);
}

// The invariant the whole subsystem hangs off: observation never perturbs
// a certified result. Same digest with tracing off, on, and across thread
// counts (instrumented span + gauge paths all active during certify).
TEST(Observability, CertifyDigestUnchangedByTracingAndThreads) {
  const pp::Protocol flock = baselines::make_flock_of_birds(4);
  const pp::Config initial = baselines::flock_initial(flock, 6);
  smc::CertifyOptions options;
  options.delta = 0.1;
  options.indifference = 0.8;
  options.alpha = options.beta = 0.01;
  options.max_trials = 64;
  options.threads = 1;
  options.seed = 11;
  options.sim.stable_window = 20'000;
  options.sim.max_interactions = 50'000'000;
  options.engine = engine::EngineKind::kPerAgent;

  const smc::Certificate plain = smc::certify(flock, initial, true, options);
  const std::uint64_t baseline = smc::certificate_digest(plain);

  const std::string path = temp_trace_path("digest");
  FileGuard guard{path};
  ASSERT_TRUE(Tracer::start(path));
  const smc::Certificate traced_1 = smc::certify(flock, initial, true, options);
  options.threads = 3;
  const smc::Certificate traced_3 = smc::certify(flock, initial, true, options);
  options.threads = 4;
  const smc::Certificate traced_4 = smc::certify(flock, initial, true, options);
  Tracer::stop();

  EXPECT_EQ(smc::certificate_digest(traced_1), baseline);
  EXPECT_EQ(smc::certificate_digest(traced_3), baseline);
  EXPECT_EQ(smc::certificate_digest(traced_4), baseline);
  EXPECT_EQ(smc::to_jsonl(traced_1).substr(0, smc::to_jsonl(traced_1).find(
                                                   "\"digest\"")),
            smc::to_jsonl(plain).substr(0, smc::to_jsonl(plain).find(
                                              "\"digest\"")));

  // The traced runs actually traced: fold-advance spans are in the file.
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"name\":\"certify_trials\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"sprt_round\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet roll-up (S29): delta snapshots, bucket-merge, exposition.

MetricSnapshot find_metric(const std::vector<MetricSnapshot>& all,
                           std::string_view name) {
  for (const MetricSnapshot& metric : all)
    if (metric.name == name) return metric;
  ADD_FAILURE() << "metric '" << name << "' not found";
  return {};
}

// The roll-up's core claim: folding snapshots bucket-by-bucket is exactly
// replaying their raw samples — both land each sample in the same log₂
// bucket, so count/sum/max/quantiles agree metric for metric.
TEST(Rollup, HistogramBucketMergeEqualsReplay) {
  Registry& registry = Registry::global();
  Histogram& replay = registry.histogram("test_obs.merge_replay");
  Histogram& merged = registry.histogram("test_obs.merge_target");
  Histogram& src_a = registry.histogram("test_obs.merge_src_a");
  Histogram& src_b = registry.histogram("test_obs.merge_src_b");
  const std::uint64_t samples_a[] = {0, 1, 2, 3, 100, 1u << 20};
  const std::uint64_t samples_b[] = {7, 8, 9, 1024, std::uint64_t{1} << 40};
  for (const std::uint64_t sample : samples_a) {
    replay.record(sample);
    src_a.record(sample);
  }
  for (const std::uint64_t sample : samples_b) {
    replay.record(sample);
    src_b.record(sample);
  }

  const std::vector<MetricSnapshot> snapshot = registry.snapshot();
  merged.merge_from(find_metric(snapshot, "test_obs.merge_src_a"));
  merged.merge_from(find_metric(snapshot, "test_obs.merge_src_b"));

  EXPECT_EQ(merged.count(), replay.count());
  EXPECT_EQ(merged.sum(), replay.sum());
  EXPECT_EQ(merged.max(), replay.max());
  for (unsigned b = 0; b < Histogram::kBuckets; ++b)
    EXPECT_EQ(merged.bucket(b), replay.bucket(b)) << "bucket " << b;
  EXPECT_EQ(merged.quantile_upper(0.5), replay.quantile_upper(0.5));
  EXPECT_EQ(merged.quantile_upper(0.99), replay.quantile_upper(0.99));
}

// Workers ship *deltas*, not cumulative snapshots: each increment crosses
// the wire exactly once, and a collect() with nothing new ships nothing —
// so a duplicate snapshot round is the identity on the daemon side.
TEST(Rollup, DeltaTrackerShipsEachIncrementExactlyOnce) {
  Registry& registry = Registry::global();
  Counter& counter = registry.counter("test_obs.delta_c");
  Histogram& histogram = registry.histogram("test_obs.delta_h");
  counter.add(5);       // pre-baseline: must never ship
  histogram.record(9);  // pre-baseline
  DeltaTracker tracker;

  for (const MetricSnapshot& metric : tracker.collect()) {
    EXPECT_NE(metric.name, "test_obs.delta_c");
    EXPECT_NE(metric.name, "test_obs.delta_h");
  }

  counter.add(3);
  histogram.record(20);
  histogram.record(33);
  const std::vector<MetricSnapshot> delta = tracker.collect();
  const MetricSnapshot counter_delta = find_metric(delta, "test_obs.delta_c");
  EXPECT_EQ(counter_delta.kind, MetricKind::kCounter);
  EXPECT_EQ(counter_delta.value, 3.0);  // the increment, not the total 8
  const MetricSnapshot histogram_delta =
      find_metric(delta, "test_obs.delta_h");
  EXPECT_EQ(histogram_delta.count, 2u);  // not the pre-baseline 9
  EXPECT_EQ(histogram_delta.sum, 53u);
  ASSERT_EQ(histogram_delta.buckets.size(),
            static_cast<std::size_t>(Histogram::kBuckets));
  EXPECT_EQ(histogram_delta.buckets[5], 1u);  // 20 in [16,32)
  EXPECT_EQ(histogram_delta.buckets[6], 1u);  // 33 in [32,64)
  EXPECT_EQ(histogram_delta.buckets[4], 0u);  // the baseline 9 is absent

  for (const MetricSnapshot& metric : tracker.collect()) {
    EXPECT_NE(metric.name, "test_obs.delta_c");
    EXPECT_NE(metric.name, "test_obs.delta_h");
  }
}

// Deltas make the daemon-side fold commutative and associative: any
// shuffle, any batching of the same deltas sums to the same fleet totals.
TEST(Rollup, MergeDeltasIsShuffleAndBatchingInsensitive) {
  MetricSnapshot counter_a;
  counter_a.name = "assoc_c";
  counter_a.kind = MetricKind::kCounter;
  counter_a.value = 5.0;
  MetricSnapshot counter_b = counter_a;
  counter_b.value = 7.0;
  MetricSnapshot histogram_a;
  histogram_a.name = "assoc_h";
  histogram_a.kind = MetricKind::kHistogram;
  histogram_a.count = 2;
  histogram_a.sum = 3;
  histogram_a.max = 2;
  histogram_a.buckets.assign(Histogram::kBuckets, 0);
  histogram_a.buckets[1] = 1;
  histogram_a.buckets[2] = 1;
  MetricSnapshot histogram_b;
  histogram_b.name = "assoc_h";
  histogram_b.kind = MetricKind::kHistogram;
  histogram_b.count = 1;
  histogram_b.sum = 100;
  histogram_b.max = 100;
  histogram_b.buckets.assign(Histogram::kBuckets, 0);
  histogram_b.buckets[7] = 1;

  // One batch in one order vs. three batches in another order.
  merge_deltas("test_obs.ord1.", {counter_a, histogram_a, counter_b,
                                  histogram_b});
  merge_deltas("test_obs.ord2.", {counter_b});
  merge_deltas("test_obs.ord2.", {histogram_b, histogram_a});
  merge_deltas("test_obs.ord2.", {counter_a});

  Registry& registry = Registry::global();
  EXPECT_EQ(registry.counter("test_obs.ord1.assoc_c").value(), 12u);
  EXPECT_EQ(registry.counter("test_obs.ord2.assoc_c").value(), 12u);
  Histogram& merged_1 = registry.histogram("test_obs.ord1.assoc_h");
  Histogram& merged_2 = registry.histogram("test_obs.ord2.assoc_h");
  EXPECT_EQ(merged_1.count(), 3u);
  EXPECT_EQ(merged_1.count(), merged_2.count());
  EXPECT_EQ(merged_1.sum(), merged_2.sum());
  EXPECT_EQ(merged_1.max(), merged_2.max());
  for (unsigned b = 0; b < Histogram::kBuckets; ++b)
    EXPECT_EQ(merged_1.bucket(b), merged_2.bucket(b)) << "bucket " << b;
}

TEST(Registry, PrometheusExpositionIsWellFormed) {
  Registry& registry = Registry::global();
  registry.counter("test_obs.prom_c").add(7);
  registry.gauge("test_obs.prom-g").set(1.5);  // '-' must sanitise to '_'
  Histogram& histogram = registry.histogram("test_obs.prom_h");
  histogram.record(0);
  histogram.record(3);
  histogram.record(1024);
  const std::string text = registry.to_prometheus();

  EXPECT_NE(text.find("# TYPE ppde_test_obs_prom_c counter"),
            std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_c 7"), std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_g 1.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ppde_test_obs_prom_h histogram"),
            std::string::npos);
  // Cumulative buckets: the 0 at le="1", +3 at le="4", +1024 at le="2048";
  // the terminal +Inf equals _count and _sum is exact.
  EXPECT_NE(text.find("ppde_test_obs_prom_h_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_h_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_h_bucket{le=\"2048\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_h_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_h_sum 1027"), std::string::npos);
  EXPECT_NE(text.find("ppde_test_obs_prom_h_count 3"), std::string::npos);

  // Global exposition-format invariants over every line: names use the
  // Prometheus charset only, bucket series are monotone, and every
  // histogram closes with a +Inf bucket.
  std::stringstream stream(text);
  std::string line;
  std::uint64_t last_bucket = 0;
  bool in_buckets = false;
  while (std::getline(stream, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    for (char c : line.substr(0, name_end))
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == ':')
          << "bad metric-name character '" << c << "' in: " << line;
    const bool is_bucket = line.find("_bucket{le=\"") != std::string::npos;
    if (is_bucket) {
      const std::uint64_t value =
          std::strtoull(line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
      if (in_buckets) {
        EXPECT_GE(value, last_bucket) << line;
      }
      last_bucket = value;
      in_buckets = line.find("le=\"+Inf\"") == std::string::npos;
    } else {
      EXPECT_FALSE(in_buckets) << "bucket series not closed by +Inf: " << line;
    }
  }
  EXPECT_FALSE(in_buckets);
}

// ---------------------------------------------------------------------------
// Capture mode + stitching (S29): the worker half and the daemon half of
// distributed tracing.

TEST(Tracer, CaptureModeDrainsOwnedAbsoluteEvents) {
  ASSERT_TRUE(Tracer::start_capture());
  ASSERT_TRUE(Tracer::capturing());
  const std::uint64_t epoch = Tracer::active()->epoch_ns();
  {
    ObsSpan span("cap_span", "test");
    span.set_value(9.0);
  }
  trace_counter("cap_counter", 1.5);

  const std::vector<CapturedEvent> events = Tracer::drain_capture();
  ASSERT_EQ(events.size(), 2u);
  bool saw_span = false, saw_counter = false;
  for (const CapturedEvent& event : events) {
    EXPECT_GE(event.ts_ns, epoch);  // absolute steady-clock timebase
    if (event.name == "cap_span") {
      saw_span = true;
      EXPECT_EQ(event.kind, TraceEvent::Kind::kComplete);
      EXPECT_TRUE(event.has_value);
      EXPECT_EQ(event.value, 9.0);
    } else if (event.name == "cap_counter") {
      saw_counter = true;
      EXPECT_EQ(event.kind, TraceEvent::Kind::kCounter);
      EXPECT_EQ(event.value, 1.5);
    }
  }
  EXPECT_TRUE(saw_span && saw_counter);
  EXPECT_TRUE(Tracer::drain_capture().empty());  // drained means drained

  Tracer::stop();
  EXPECT_EQ(Tracer::active(), nullptr);
  EXPECT_FALSE(Tracer::capturing());
}

TEST(Tracer, EmitForeignStitchesDistinctTrackGroups) {
  const std::string path = temp_trace_path("stitch");
  FileGuard guard{path};
  ASSERT_TRUE(Tracer::start(path));
  Tracer* tracer = Tracer::active();
  CapturedEvent event;
  event.name = "w_span";
  event.cat = "test";
  event.kind = TraceEvent::Kind::kComplete;
  event.ts_ns = tracer->epoch_ns() + 1'000;
  event.dur_ns = 500;
  event.tid = 1;
  tracer->emit_foreign(4242, "ppde worker 4242", event);
  tracer->emit_foreign(4242, "ppde worker 4242", event);  // announce deduped
  tracer->announce_process(4343, "ppde worker 4343");     // no events at all
  Tracer::stop();

  const std::string text = slurp(path);
  EXPECT_EQ(count_occurrences(text, "\"ppde worker 4242\""), 1u);
  EXPECT_EQ(count_occurrences(text, "\"ppde worker 4343\""), 1u);
  EXPECT_EQ(count_occurrences(text, "\"name\":\"w_span\""), 2u);
  // Both stitched events carry the foreign pid (plus its metadata record).
  EXPECT_EQ(count_occurrences(text, "\"pid\":4242"), 3u);
  EXPECT_EQ(count_occurrences(text, "\"pid\":4343"), 1u);
  // Still one valid JSON array with the footer.
  const std::vector<std::string> lines = lines_of(text);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");
  EXPECT_NE(text.find("\"name\":\"obs_summary\""), std::string::npos);
}

TEST(Tracer, MaxFileBytesCapTruncatesButFileStaysValid) {
  Registry& registry = Registry::global();
  const std::uint64_t truncated_before =
      registry.counter("obs.trace_truncated").value();
  const std::string path = temp_trace_path("cap");
  FileGuard guard{path};
  TracerOptions options;
  options.max_file_bytes = 600;
  options.flush_period_ms = 1;
  ASSERT_TRUE(Tracer::start(path, options));
  for (int i = 0; i < 200; ++i) ObsSpan span("cap_burst", "test");
  Tracer::stop();

  const std::string text = slurp(path);
  const std::vector<std::string> lines = lines_of(text);
  EXPECT_EQ(lines.front(), "[");
  EXPECT_EQ(lines.back(), "]");  // capped, but still one valid JSON array
  EXPECT_LT(text.size(), 2'000u);  // ~20 KB of spans were suppressed
  EXPECT_NE(text.find("\"truncated\":"), std::string::npos);
  EXPECT_EQ(text.find("\"truncated\":0"), std::string::npos);
  EXPECT_GT(registry.counter("obs.trace_truncated").value(),
            truncated_before);
}

TEST(PromHttp, ServesMetricsOverHttpGet) {
  Registry::global().counter("test_obs.http_c").add(1);
  PromHttpServer server(0);  // ephemeral port
  server.start();
  ASSERT_NE(server.port(), 0);

  const auto fetch = [&](const std::string& request_line) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
    const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
    EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char buffer[4096];
    ssize_t got;
    while ((got = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
      response.append(buffer, static_cast<std::size_t>(got));
    ::close(fd);
    return response;
  };

  const std::string metrics = fetch("GET /metrics HTTP/1.1");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("ppde_test_obs_http_c"), std::string::npos);
  EXPECT_NE(fetch("GET /other HTTP/1.1").find("404"), std::string::npos);
  server.stop();
}

TEST(Flight, RecorderIsBoundedNewestFirstAndSerialises) {
  FlightRecorder recorder(2);
  QueryFlight first;
  first.seq = 1;
  first.req = "certify";
  first.outcome = "ok";
  first.verdict = "CERTIFIED";
  first.digest = "00ff";
  first.workers.push_back(WorkerLatency{0, 2, 30, 20});
  recorder.add(first);
  QueryFlight second;
  second.seq = 2;
  second.req = "ensemble";
  second.outcome = "ok";
  recorder.add(second);
  QueryFlight third;
  third.seq = 3;
  third.req = "certify";
  third.outcome = "rejected";
  third.detail = "queue full";
  recorder.add(third);

  const std::vector<QueryFlight> recent = recorder.recent(10);
  ASSERT_EQ(recent.size(), 2u);  // capacity 2 evicted seq 1
  EXPECT_EQ(recent[0].seq, 3u);  // newest first
  EXPECT_EQ(recent[1].seq, 2u);

  const std::string json = FlightRecorder::to_json(first);
  EXPECT_NE(json.find("\"seq\":1"), std::string::npos);
  EXPECT_NE(json.find("\"verdict\":\"CERTIFIED\""), std::string::npos);
  EXPECT_NE(json.find("\"digest\":\"00ff\""), std::string::npos);
  EXPECT_EQ(json.find("\"detail\""), std::string::npos);  // empty: omitted
  EXPECT_NE(json.find("\"workers\":[{\"worker\":0,\"batches\":2,"
                      "\"total_micros\":30,\"max_micros\":20}]"),
            std::string::npos);
  const std::string rejected = FlightRecorder::to_json(third);
  EXPECT_NE(rejected.find("\"outcome\":\"rejected\""), std::string::npos);
  EXPECT_NE(rejected.find("\"detail\":\"queue full\""), std::string::npos);
}

}  // namespace
}  // namespace ppde::obs
