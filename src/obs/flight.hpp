// Per-query flight recorder for the serve daemon (DESIGN.md S29).
//
// Traces answer "where did the time go" for a run you *chose* to trace;
// the flight recorder answers "what just happened" for the queries you
// didn't. The daemon appends one bounded-size record per admitted (or
// rejected) query — admission outcome, queue wait, per-worker batch
// latencies, reassignments, verdict, digest, wall — into a fixed-capacity
// in-memory ring. The newest N records come back as JSONL through
// `stats` with `recent=N` and `ppde client ... stats --recent=N`, so
// slow-query forensics needs no trace file and no restart.
//
// The recorder is an observer: nothing read from it feeds back into
// admission, scheduling or certification, and recording happens after
// the response bytes are already determined — certificates are
// byte-identical with the recorder at any capacity (test_serve pins the
// digest with every observability feature on).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace ppde::obs {

/// One worker's contribution to one query, measured daemon-side from
/// batch dispatch to reply collection.
struct WorkerLatency {
  int worker = 0;  ///< supervisor slot index
  std::uint64_t batches = 0;  ///< replies with at least one trial record
  std::uint64_t total_micros = 0;
  std::uint64_t max_micros = 0;
};

struct QueryFlight {
  std::uint64_t seq = 0;       ///< daemon-assigned query_seq == trace_id
  std::string req;             ///< "certify" | "ensemble"
  std::uint64_t n = 0;         ///< population size
  std::uint64_t trials = 0;    ///< requested trial cap
  std::string outcome;         ///< "ok" | "rejected" | "error"
  std::string detail;          ///< rejection/error reason, "" when ok
  std::uint64_t queue_wait_micros = 0;
  std::uint64_t trials_executed = 0;  ///< records delivered by workers
  /// Trials the reply rests on: the certificate's trials (certify) or the
  /// fleet size (ensemble); 0 for a query that got no reply.
  std::uint64_t trials_folded = 0;
  /// Replies that carried at least one trial record.
  std::uint64_t batches = 0;
  std::uint64_t reassigned = 0;  ///< trials re-dispatched off dead workers
  std::string verdict;           ///< certify only
  std::string digest;            ///< certify only (hex)
  double wall_seconds = 0.0;
  std::vector<WorkerLatency> workers;
};

/// Bounded MPSC-friendly ring of the most recent query records. All
/// methods are thread-safe; add() evicts the oldest record at capacity.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 128);

  void add(QueryFlight record);

  /// Up to `n` most recent records, newest first.
  std::vector<QueryFlight> recent(std::size_t n) const;

  /// One record as a single-line JSON object (the JSONL unit).
  static std::string to_json(const QueryFlight& record);

 private:
  mutable std::mutex mutex_;
  std::deque<QueryFlight> records_;
  std::size_t capacity_;
};

}  // namespace ppde::obs
