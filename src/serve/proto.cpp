#include "serve/proto.hpp"

#include <bit>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "smc/json.hpp"

namespace ppde::serve {

namespace {

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  out += buffer;
}

void append_hex_string(std::string& out, std::uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "\"%016llx\"",
                static_cast<unsigned long long>(value));
  out += buffer;
}

std::uint64_t element_u64(const std::vector<Json>& fields, std::size_t i) {
  if (i >= fields.size())
    throw std::runtime_error("serve proto: short record array");
  return fields[i].as_u64();
}

std::uint64_t element_hex(const std::vector<Json>& fields, std::size_t i) {
  if (i >= fields.size())
    throw std::runtime_error("serve proto: short record array");
  return fields[i].as_hex_u64();
}

const std::string& element_str(const std::vector<Json>& fields,
                               std::size_t i) {
  if (i >= fields.size())
    throw std::runtime_error("serve proto: short record array");
  return fields[i].as_string();
}

/// Fields of one trial record on the wire (proto.hpp, BatchResult).
constexpr std::size_t kRecordFields = 9;

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buffer;
    } else {
      out += c;
    }
  }
  out += '"';
}

// -- observability sidecar of a batch result (S29) --------------------------
//
// Trace events travel as compact arrays
//   ["name","cat",kind,ts_ns,dur_ns,tid,has_value,"value-bits"]
// with ts/dur as exact decimal u64 and the optional span value as the hex
// of its IEEE-754 bit pattern (the wire's standard double convention).
// Metric deltas are tagged by kind:
//   ["name",0,counter_delta]
//   ["name",1,"gauge-bits"]
//   ["name",2,count,sum,max,[[bucket,delta],...]]   (sparse buckets)

void append_trace_events(std::string& out,
                         const std::vector<obs::CapturedEvent>& events) {
  out += ",\"trace\":[";
  bool first = true;
  for (const obs::CapturedEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_json_string(out, event.name);
    out += ',';
    append_json_string(out, event.cat);
    out += ',';
    append_u64(out, static_cast<std::uint64_t>(event.kind));
    out += ',';
    append_u64(out, event.ts_ns);
    out += ',';
    append_u64(out, event.dur_ns);
    out += ',';
    append_u64(out, event.tid);
    out += ',';
    out += event.has_value ? '1' : '0';
    out += ',';
    append_hex_string(out, std::bit_cast<std::uint64_t>(event.value));
    out += ']';
  }
  out += ']';
}

void append_metric_deltas(std::string& out,
                          const std::vector<obs::MetricSnapshot>& deltas) {
  out += ",\"metrics\":[";
  bool first = true;
  for (const obs::MetricSnapshot& delta : deltas) {
    if (!first) out += ',';
    first = false;
    out += '[';
    append_json_string(out, delta.name);
    out += ',';
    switch (delta.kind) {
      case obs::MetricKind::kCounter:
        out += '0';
        out += ',';
        append_u64(out, static_cast<std::uint64_t>(delta.value));
        break;
      case obs::MetricKind::kGauge:
        out += '1';
        out += ',';
        append_hex_string(out, std::bit_cast<std::uint64_t>(delta.value));
        break;
      case obs::MetricKind::kHistogram: {
        out += '2';
        out += ',';
        append_u64(out, delta.count);
        out += ',';
        append_u64(out, delta.sum);
        out += ',';
        append_u64(out, delta.max);
        out += ",[";
        bool first_bucket = true;
        for (std::size_t b = 0; b < delta.buckets.size(); ++b) {
          if (delta.buckets[b] == 0) continue;
          if (!first_bucket) out += ',';
          first_bucket = false;
          out += '[';
          append_u64(out, b);
          out += ',';
          append_u64(out, delta.buckets[b]);
          out += ']';
        }
        out += ']';
        break;
      }
    }
    out += ']';
  }
  out += ']';
}

std::vector<obs::CapturedEvent> parse_trace_events(const Json& array) {
  std::vector<obs::CapturedEvent> events;
  for (const Json& entry : array.items()) {
    const std::vector<Json>& fields = entry.items();
    obs::CapturedEvent event;
    event.name = element_str(fields, 0);
    event.cat = element_str(fields, 1);
    const std::uint64_t kind = element_u64(fields, 2);
    if (kind > static_cast<std::uint64_t>(obs::TraceEvent::Kind::kInstant))
      throw std::runtime_error("serve proto: bad trace event kind");
    event.kind = static_cast<obs::TraceEvent::Kind>(kind);
    event.ts_ns = element_u64(fields, 3);
    event.dur_ns = element_u64(fields, 4);
    event.tid = static_cast<std::uint32_t>(element_u64(fields, 5));
    event.has_value = element_u64(fields, 6) != 0;
    event.value = std::bit_cast<double>(element_hex(fields, 7));
    events.push_back(std::move(event));
  }
  return events;
}

std::vector<obs::MetricSnapshot> parse_metric_deltas(const Json& array) {
  std::vector<obs::MetricSnapshot> deltas;
  for (const Json& entry : array.items()) {
    const std::vector<Json>& fields = entry.items();
    obs::MetricSnapshot delta;
    delta.name = element_str(fields, 0);
    switch (element_u64(fields, 1)) {
      case 0:
        delta.kind = obs::MetricKind::kCounter;
        delta.value = static_cast<double>(element_u64(fields, 2));
        break;
      case 1:
        delta.kind = obs::MetricKind::kGauge;
        delta.value = std::bit_cast<double>(element_hex(fields, 2));
        break;
      case 2: {
        delta.kind = obs::MetricKind::kHistogram;
        delta.count = element_u64(fields, 2);
        delta.sum = element_u64(fields, 3);
        delta.max = element_u64(fields, 4);
        if (fields.size() < 6)
          throw std::runtime_error("serve proto: short histogram delta");
        for (const Json& pair : fields[5].items()) {
          const std::vector<Json>& parts = pair.items();
          const std::uint64_t bucket = element_u64(parts, 0);
          if (bucket >= obs::Histogram::kBuckets)
            throw std::runtime_error("serve proto: bad histogram bucket");
          if (delta.buckets.size() <= bucket)
            delta.buckets.resize(bucket + 1, 0);
          delta.buckets[bucket] = element_u64(parts, 1);
        }
        break;
      }
      default:
        throw std::runtime_error("serve proto: bad metric delta kind");
    }
    deltas.push_back(std::move(delta));
  }
  return deltas;
}

/// Member `key` of `json` as a u64 no larger than `max`. A larger value is
/// refused rather than narrowed: cast to int, n = 2^32 + 1 would name the
/// n = 1 construction.
std::uint64_t bounded_u64(const Json& json, const char* key,
                          std::uint64_t fallback, std::uint64_t max) {
  const std::uint64_t value = json.u64(key, fallback);
  if (value > max)
    throw std::runtime_error("serve proto: " + std::string(key) + " = " +
                             std::to_string(value) + " is out of range (max " +
                             std::to_string(max) + ")");
  return value;
}

/// The largest construction a daemon or worker builds. Every query and
/// batch builds the n conversion in each process that serves it, and the
/// daemon builds it under the lock every query takes. Measured peak RSS
/// of building it: 2.93 GB at n = 4, 5.1 GB at n = 5 and 15.4 GB (a
/// whole 15 GB host) at n = 8.
constexpr std::uint64_t kMaxN = 4;
constexpr std::uint64_t kMaxExtra = std::numeric_limits<std::uint32_t>::max();

}  // namespace

std::string encode_query(const QueryParams& query) {
  smc::JsonWriter json;
  json.field("req", std::string_view(query.req));
  json.field("n", query.n);
  json.field("extra", static_cast<std::uint64_t>(query.extra));
  json.field("trials", query.trials);
  json.field("seed", query.seed);
  json.field("delta", query.delta);
  json.field("indifference", query.indifference);
  json.field("alpha", query.alpha);
  json.field("beta", query.beta);
  json.field("window", query.window);
  json.field("budget", query.budget);
  json.field("shard", query.shard);
  if (!query.scenario.empty())
    json.field("scenario", std::string_view(query.scenario));
  if (!query.format.empty())
    json.field("format", std::string_view(query.format));
  if (query.recent != 0) json.field("recent", query.recent);
  return json.finish();
}

QueryParams parse_query(const Json& json) {
  QueryParams query;
  query.req = json.str("req", "");
  if (query.req.empty())
    throw std::runtime_error("serve proto: query without a req field");
  query.n = static_cast<int>(bounded_u64(json, "n", 1, kMaxN));
  query.extra =
      static_cast<std::uint32_t>(bounded_u64(json, "extra", 0, kMaxExtra));
  query.trials = json.u64("trials", query.trials);
  query.seed = json.u64("seed", query.seed);
  query.delta = json.dbl("delta", query.delta);
  query.indifference = json.dbl("indifference", query.indifference);
  query.alpha = json.dbl("alpha", query.alpha);
  query.beta = json.dbl("beta", query.beta);
  query.window = json.u64("window", query.window);
  query.budget = json.u64("budget", query.budget);
  query.shard = json.u64("shard", 0);
  check_dispatch(json.str("dispatch", "bytecode"));
  query.scenario = json.str("scenario", "");
  query.format = json.str("format", "");
  query.recent = json.u64("recent", 0);
  return query;
}

void check_dispatch(std::string_view dispatch) {
  if (dispatch != "bytecode")
    throw std::runtime_error(
        "dispatch '" + std::string(dispatch) +
        "' is not available: the interpreter was removed and survives only "
        "as a test oracle; bytecode is the one execution core");
}

smc::CertifyOptions certify_options_of(const QueryParams& query) {
  smc::CertifyOptions options;
  options.delta = query.delta;
  options.indifference = query.indifference;
  options.alpha = query.alpha;
  options.beta = query.beta;
  options.max_trials = query.trials;
  options.seed = query.seed;
  options.sim.stable_window = query.window;
  options.sim.max_interactions = query.budget;
  // Throws std::invalid_argument on a malformed descriptor — callers
  // reject the query at admission (handle_connection) before any work.
  if (!query.scenario.empty())
    options.scenario = sched::Scenario::parse(query.scenario);
  return options;
}

std::string encode_error(const std::string& message, bool busy) {
  smc::JsonWriter json;
  json.field("ok", false);
  json.field("error", std::string_view(message));
  if (busy) json.field("busy", true);
  return json.finish();
}

std::string encode_batch_request(const BatchRequest& request) {
  smc::JsonWriter json;
  json.field("op", std::string_view("batch"));
  json.field("n", request.n);
  json.field("extra", static_cast<std::uint64_t>(request.extra));
  json.field("seed", request.seed);
  json.field("first", request.first);
  json.field("count", request.count);
  json.field("window", request.window);
  json.field("budget", request.budget);
  if (!request.scenario.empty())
    json.field("scenario", std::string_view(request.scenario));
  if (request.trace_id != 0) json.field("trace_id", request.trace_id);
  return json.finish();
}

BatchRequest parse_batch_request(const Json& json) {
  if (json.str("op", "") != "batch")
    throw std::runtime_error("serve proto: expected a batch op");
  BatchRequest request;
  request.n = static_cast<int>(bounded_u64(json, "n", 1, kMaxN));
  request.extra =
      static_cast<std::uint32_t>(bounded_u64(json, "extra", 0, kMaxExtra));
  request.seed = json.u64("seed", 0);
  request.first = json.u64("first", 0);
  request.count = json.u64("count", 0);
  request.window = json.u64("window", 90'000'000);
  request.budget = json.u64("budget", 2'000'000'000);
  request.scenario = json.str("scenario", "");
  request.trace_id = json.u64("trace_id", 0);
  return request;
}

std::string encode_exit() { return R"({"op":"exit"})"; }

bool is_exit(const Json& json) { return json.str("op", "") == "exit"; }

std::string encode_cancel() { return R"({"op":"cancel"})"; }

bool is_cancel(const Json& json) { return json.str("op", "") == "cancel"; }

std::string encode_batch_result(const BatchResult& result) {
  std::string out = R"({"op":"result","first":)";
  append_u64(out, result.first);
  out += ",\"records\":[";
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const engine::TrialResult& record = result.records[i];
    if (i != 0) out += ',';
    out += '[';
    append_u64(out, result.first + i);
    out += ',';
    out += record.sim.stabilised ? '1' : '0';
    out += ',';
    out += record.sim.output ? '1' : '0';
    out += ',';
    append_u64(out, record.sim.interactions);
    out += ',';
    append_u64(out, record.sim.consensus_since);
    out += ',';
    append_hex_string(out,
                      std::bit_cast<std::uint64_t>(record.sim.parallel_time));
    for (const std::uint64_t value :
         {record.metrics.meetings, record.metrics.firings,
          record.metrics.null_skip_batches}) {
      out += ',';
      append_u64(out, value);
    }
    out += ']';
  }
  out += ']';
  if (result.worker_pid != 0) {
    out += ",\"pid\":";
    append_u64(out, result.worker_pid);
  }
  if (!result.trace.empty()) append_trace_events(out, result.trace);
  if (!result.metric_deltas.empty())
    append_metric_deltas(out, result.metric_deltas);
  out += '}';
  return out;
}

BatchResult parse_batch_result(const Json& json) {
  if (json.str("op", "") != "result")
    throw std::runtime_error("serve proto: expected a result op");
  BatchResult result;
  result.first = json.u64("first", 0);
  const Json* records = json.find("records");
  if (records == nullptr)
    throw std::runtime_error("serve proto: result without records");
  result.records.reserve(records->items().size());
  for (const Json& entry : records->items()) {
    const std::vector<Json>& fields = entry.items();
    if (fields.size() != kRecordFields)
      throw std::runtime_error("serve proto: trial record has " +
                               std::to_string(fields.size()) +
                               " fields, expected " +
                               std::to_string(kRecordFields));
    if (fields[0].as_u64() != result.first + result.records.size())
      throw std::runtime_error(
          "serve proto: trial record out of its result's range");
    engine::TrialResult& record = result.records.emplace_back();
    record.sim.stabilised = fields[1].as_u64() != 0;
    record.sim.output = fields[2].as_u64() != 0;
    record.sim.interactions = fields[3].as_u64();
    record.sim.consensus_since = fields[4].as_u64();
    record.sim.parallel_time = std::bit_cast<double>(fields[5].as_hex_u64());
    record.metrics.meetings = fields[6].as_u64();
    record.metrics.firings = fields[7].as_u64();
    record.metrics.null_skip_batches = fields[8].as_u64();
  }
  result.worker_pid = json.u64("pid", 0);
  if (const Json* trace = json.find("trace"))
    result.trace = parse_trace_events(*trace);
  if (const Json* metrics = json.find("metrics"))
    result.metric_deltas = parse_metric_deltas(*metrics);
  return result;
}

}  // namespace ppde::serve
