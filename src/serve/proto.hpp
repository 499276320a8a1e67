// Message schemas of the serve protocol (S25).
//
// Two conversations share the same frame format (serve/wire.hpp):
//
//   client <-> daemon      {"req":"certify"|"ensemble"|"stats"|"shutdown",
//                           ...query parameters...}
//                          -> {"ok":true, ...} | {"ok":false,"error":...}
//   daemon <-> worker      {"op":"batch", n, extra, seed, first, count,
//                           window, budget[, scenario][, trace_id]}
//                          -> {"op":"result","first",...,"records":[...]}
//                          {"op":"cancel"}   (only while a batch is out)
//                          {"op":"exit"}
//
// A batch names a workload (construction n, extra agents, stopping rule,
// scenario) and a trial range; it carries nothing of the query kind. A
// worker runs every batch the same way and ships one record per trial —
// its engine::TrialResult — from which the daemon either folds a
// certificate (smc::outcome_of, then the canonical fold of
// smc/partial.hpp) or aggregates ensemble statistics. Once the query is
// decided or out of wall time, the daemon sends a cancel to every worker
// with a batch in flight: the worker, which looks for one between trials
// (never during a trial), stops and replies with the records it finished
// — a prefix of the range, possibly empty — and the daemon reads exactly
// that one reply. A cancel that crosses the worker's full reply is read
// and dropped before the worker's next batch. Records travel as
// compact JSON arrays, with every 64-bit integer as a decimal number
// (exact — the wire parser re-reads the raw token via strtoull) and every
// double as the hex string of its IEEE-754 bit pattern, so a record
// crosses the wire bit-identically and the daemon sees exactly what an
// in-process run would.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/ensemble.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "serve/wire.hpp"
#include "smc/certify.hpp"

namespace ppde::serve {

// ---------------------------------------------------------------------------
// Client <-> daemon.

/// One client query. For req == "certify", `trials` is the SPRT trial
/// budget (CertifyOptions::max_trials); for "ensemble" it is the exact
/// fleet size. `shard` overrides the daemon's ensemble batch size; 0 keeps
/// the server default, and a certify query's `shard` is accepted but
/// ignored (certify dispatches one trial at a time). Defaults mirror the CLI
/// `certify` flag defaults so a client request omitting a field means the
/// same thing as the CLI omitting the flag. Two members of older queries
/// are still understood on the wire: `"dispatch"` must be "bytecode"
/// (check_dispatch) and `"batch"` is ignored — neither ever changed a
/// result.
struct QueryParams {
  std::string req = "certify";
  int n = 1;
  std::uint32_t extra = 0;
  std::uint64_t trials = 4096;
  std::uint64_t seed = 42;
  double delta = 0.01;
  double indifference = 0.05;
  double alpha = 0.01;
  double beta = 0.01;
  std::uint64_t window = 90'000'000;
  std::uint64_t budget = 2'000'000'000;
  std::uint64_t shard = 0;
  /// Stress scenario descriptor (S27), e.g. "ring+corrupt:0.001". Empty
  /// means the default scenario (uniform scheduler, no faults) and — like
  /// the digest-scoping rule it mirrors — is omitted from the encoded
  /// query, so pre-S27 clients and servers interoperate unchanged. A
  /// malformed descriptor is rejected at admission with an error frame.
  std::string scenario{};
  /// Stats-only (S29): "" = the JSON reply, "prometheus" = wrap the
  /// text exposition in {"ok":true,"prometheus":"..."}. Omitted when
  /// empty (pre-S29 interop).
  std::string format{};
  /// Stats-only (S29): return the newest N flight-recorder records as a
  /// "recent" array. 0 (omitted on the wire) disables.
  std::uint64_t recent = 0;
};

std::string encode_query(const QueryParams& query);
/// Throws std::runtime_error on a query without a req field or with a
/// dispatch other than "bytecode".
QueryParams parse_query(const Json& json);

/// Throws std::runtime_error unless `dispatch` is "bytecode", the one
/// execution core. The interpreter core was removed; it survives only as
/// a test oracle, so a request for it is refused rather than silently
/// served by bytecode. The CLI has no --dispatch flag at all: it exits 1
/// on it like on any undeclared flag.
void check_dispatch(std::string_view dispatch);

/// The CertifyOptions a query denotes (threads are irrelevant server-side
/// — sharding replaces them — and left at the default; they are not part
/// of the certificate payload).
smc::CertifyOptions certify_options_of(const QueryParams& query);

std::string encode_error(const std::string& message, bool busy = false);

// ---------------------------------------------------------------------------
// Daemon <-> worker.

struct BatchRequest {
  int n = 1;
  std::uint32_t extra = 0;
  std::uint64_t seed = 0;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
  std::uint64_t window = 0;
  std::uint64_t budget = 0;
  /// Scenario descriptor, forwarded verbatim ("" = default, field omitted
  /// on the wire — workers predating S27 only ever see default batches).
  std::string scenario{};
  /// Distributed tracing (S29): the daemon's query_seq for the query
  /// this batch belongs to, 0 (omitted on the wire) when the daemon is
  /// not tracing. A nonzero id asks the worker to run the batch under a
  /// capture-mode tracer and ship the drained span deltas back in the
  /// result; a pre-S29 worker ignores it and ships identical records.
  std::uint64_t trace_id = 0;
};

std::string encode_batch_request(const BatchRequest& request);
/// Throws std::runtime_error unless `json` is a batch op.
BatchRequest parse_batch_request(const Json& json);

std::string encode_exit();
bool is_exit(const Json& json);

std::string encode_cancel();
bool is_cancel(const Json& json);

/// A worker's reply to one batch. records[i] is trial first + i; on the
/// wire each record is the array
///   [trial, stabilised, output, interactions, consensus_since,
///    "parallel-time-bits", meetings, firings, null_skip_batches]
/// — exactly the TrialResult fields the daemon reads for either query
/// kind. The rest of the result (seed, wall time and the remaining run
/// counters) is an execution record and stays in the worker.
struct BatchResult {
  std::uint64_t first = 0;
  std::vector<engine::TrialResult> records;
  /// Observability sidecar (S29). None of it feeds the canonical fold:
  /// parse_batch_result round-trips records identically whether these
  /// fields are present, absent, or dropped by an old peer.
  std::uint64_t worker_pid = 0;  ///< producing process, for track groups
  std::vector<obs::CapturedEvent> trace;  ///< drained worker span deltas
  std::vector<obs::MetricSnapshot> metric_deltas;  ///< registry deltas
};

std::string encode_batch_result(const BatchResult& result);
/// Throws std::runtime_error unless `json` is a result op whose every
/// record has exactly the record's field count and the trial index
/// first + i — a reply in another record shape (say, from a worker of an
/// older build) is refused, never misread.
BatchResult parse_batch_result(const Json& json);

}  // namespace ppde::serve
