// Named, typed runtime metrics with thread-local sharding (S24).
//
// The per-run RunMetrics record (engine/metrics.hpp) answers "what did
// *this* run do" after the fact; it cannot answer "what is the process
// doing right now" across a fleet of concurrent trials, an exploration
// wave, or an SPRT fold. This registry holds the process-wide view:
//
//   * Counter   — monotone u64, add() from any thread. Writes land in one
//                 of 16 cache-line-sized cells chosen per thread, so
//                 concurrent trials never contend on a line; value() sums.
//   * Gauge     — last-written double (frontier size, interner bytes, SPRT
//                 log-likelihood position, ...), one relaxed store.
//   * Histogram — log₂-bucketed u64 samples (per-trial wall micros,
//                 per-wave expansion micros); quantile_upper(q) reports the
//                 upper edge of the bucket holding quantile q, i.e. tails
//                 with factor-of-2 resolution at O(1) memory.
//
// Metrics are created on first use (`Registry::global().counter("a.b")`),
// live for the process lifetime, and are safe to update from any thread;
// instrument sites cache the returned reference (`static Counter& c =`)
// so the name lookup happens once. The registry is an *observer*: nothing
// read from it feeds back into simulation, verification, or certificates.
// snapshot() serves the progress heartbeat (obs/progress.hpp) and tests;
// reset() re-zeroes values for test isolation (handles stay valid).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ppde::obs {

/// Stable, dense per-thread shard index in [0, Counter::kShards).
unsigned this_thread_shard();

class Counter {
 public:
  static constexpr unsigned kShards = 16;

  void add(std::uint64_t n = 1) {
    cells_[this_thread_shard()].value.fetch_add(n,
                                                std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_)
      total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

  void reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  Cell cells_[kShards];
};

class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

struct MetricSnapshot;

class Histogram {
 public:
  /// Bucket b (b >= 1) holds values in [2^(b-1), 2^b); bucket 0 holds 0.
  static constexpr unsigned kBuckets = 65;

  void record(std::uint64_t value);

  /// Fold another histogram's (delta) snapshot into this one: buckets,
  /// count and sum add; max takes the larger value. Bucket-merging N
  /// snapshots is exactly equivalent to replaying their raw samples —
  /// both land each sample in the same log₂ bucket — so the serve
  /// daemon's fleet roll-up (S29) loses nothing an in-process histogram
  /// would have had. Safe from any thread; commutative and associative.
  void merge_from(const MetricSnapshot& delta);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(unsigned b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  /// Upper edge of the bucket containing quantile `q` in [0, 1]; 0 when
  /// empty. Log-scale precision: the true quantile is within 2x below.
  std::uint64_t quantile_upper(double q) const;
  void reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;        ///< counter total or gauge value
  std::uint64_t count = 0;   ///< histogram observations
  std::uint64_t sum = 0;     ///< histogram sum
  std::uint64_t max = 0;     ///< histogram max
  std::uint64_t p50 = 0;     ///< histogram bucket upper edges
  std::uint64_t p90 = 0;
  std::uint64_t p99 = 0;
  /// Histograms only: raw per-bucket counts (Histogram::kBuckets wide).
  /// Carried so snapshots can be diffed (worker deltas) and re-merged
  /// losslessly on the daemon side via Histogram::merge_from.
  std::vector<std::uint64_t> buckets;
};

class Registry {
 public:
  /// The process-wide registry every instrumentation point publishes to.
  static Registry& global();

  /// Find-or-create by name. Throws std::logic_error if `name` already
  /// exists with a different kind. References stay valid forever.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Point-in-time values of every registered metric, sorted by name.
  std::vector<MetricSnapshot> snapshot() const;

  /// Zero every metric (handles stay valid). Test isolation only.
  void reset();

  /// Human-readable one-metric-per-line rendering of snapshot().
  std::string to_string() const;

  /// snapshot() as one JSON object keyed by metric name: counters and
  /// gauges map to numbers, histograms to {"count","sum","max","p50",
  /// "p90","p99"} objects. Served by the daemon's stats query (S25).
  /// Metric names are [a-z0-9._-] identifiers, so no string escaping is
  /// needed; non-finite gauge values render as null.
  std::string to_json() const;

  /// snapshot() in Prometheus text exposition format 0.0.4. Metric
  /// names are prefixed with `ppde_` and sanitised ('.'/'-' → '_').
  /// Histograms render as cumulative `_bucket` series with exact
  /// power-of-two `le` edges: the series at le="2^k" counts samples in
  /// native buckets 0..k, i.e. values < 2^k plus the value 2^k-1 — the
  /// log₂ bucketing means an exact power-of-two sample 2^k lands one
  /// edge higher; tails stay correct to the factor-of-2 bucket
  /// resolution. A terminal `+Inf` bucket equals `_count`, and `_sum`
  /// is exact. Served by `stats?format=prometheus` and the daemon's
  /// `--prom-port` HTTP `/metrics` listener (S29).
  std::string to_prometheus() const;
};

}  // namespace ppde::obs
