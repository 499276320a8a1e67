#include "smc/json.hpp"

#include <cmath>
#include <cstdio>

namespace ppde::smc {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(c));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void JsonWriter::key(std::string_view name) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += name;
  body_ += "\":";
}

void JsonWriter::field(std::string_view name, std::uint64_t value) {
  key(name);
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "%llu",
                static_cast<unsigned long long>(value));
  body_ += buffer;
}

void JsonWriter::field(std::string_view name, int value) {
  key(name);
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%d", value);
  body_ += buffer;
}

void JsonWriter::field(std::string_view name, bool value) {
  key(name);
  body_ += value ? "true" : "false";
}

void JsonWriter::field(std::string_view name, double value) {
  key(name);
  // JSON has no inf/nan literals; every non-finite double becomes null so
  // the emitted line always parses.
  if (!std::isfinite(value)) {
    body_ += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  body_ += buffer;
}

void JsonWriter::field(std::string_view name, std::string_view value) {
  key(name);
  append_json_string(body_, value);
}

void JsonWriter::raw_field(std::string_view name, std::string_view json) {
  key(name);
  body_ += json;
}

void JsonWriter::hex_field(std::string_view name, std::uint64_t value) {
  key(name);
  char buffer[24];
  std::snprintf(buffer, sizeof buffer, "\"%016llx\"",
                static_cast<unsigned long long>(value));
  body_ += buffer;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string certificate_payload(const Certificate& cert) {
  JsonWriter json;
  json.field("smc_certificate_v", Certificate::kVersion);
  json.field("verdict", std::string_view(to_string(cert.verdict)));
  json.hex_field("protocol", cert.protocol_fingerprint);
  json.field("population", cert.population);
  json.field("expected_output", cert.expected_output);
  json.field("delta", cert.delta);
  json.field("indifference", cert.indifference);
  json.field("alpha", cert.alpha);
  json.field("beta", cert.beta);
  json.field("ci_confidence", cert.ci_confidence);
  json.field("seed", cert.seed);
  json.field("max_trials", cert.max_trials);
  json.field("interaction_budget", cert.interaction_budget);
  // Digest-scoping rule (S27): the default scenario emits no field at all
  // — uniform certificates stay byte-identical to pre-S27 ones — while a
  // stressed scenario's canonical descriptor scopes the digest.
  if (!cert.scenario.empty())
    json.field("scenario", std::string_view(cert.scenario));
  json.field("trials", cert.trials);
  json.field("successes", cert.successes);
  json.field("stabilised", cert.stabilised);
  json.field("llr", cert.llr);
  json.field("ci_lower", cert.interval.lower);
  json.field("ci_upper", cert.interval.upper);
  json.field("time_p50", cert.time_p50);
  json.field("time_p90", cert.time_p90);
  json.field("time_p99", cert.time_p99);
  json.field("total_meetings", cert.total_meetings);
  json.field("total_firings", cert.total_firings);
  return json.finish();
}

std::uint64_t certificate_digest(const Certificate& cert) {
  return fnv1a(certificate_payload(cert));
}

std::string to_jsonl(const Certificate& cert) {
  // payload + execution record; the digest covers the payload only, so
  // wall time and thread count never perturb it.
  const std::string payload = certificate_payload(cert);
  JsonWriter tail;
  tail.hex_field("digest", fnv1a(payload));
  tail.field("wall_seconds", cert.wall_seconds);
  tail.field("threads", static_cast<std::uint64_t>(cert.threads_used));
  std::string line = payload;
  line.pop_back();  // strip '}'
  line += ',';
  line += tail.finish().substr(1);  // strip '{'
  return line;
}

std::string to_jsonl(const engine::EnsembleStats& stats,
                     std::uint64_t population, std::uint64_t master_seed,
                     engine::EngineKind kind) {
  JsonWriter json;
  json.field("smc_ensemble_v", 1);
  json.field("population", population);
  json.field("master_seed", master_seed);
  json.field("engine", std::string_view(engine::to_string(kind)));
  json.field("trials", stats.trials);
  json.field("stabilised", stats.stabilised);
  json.field("accepted", stats.accepted);
  json.field("interactions_p50", stats.interactions.p50);
  json.field("interactions_p90", stats.interactions.p90);
  json.field("interactions_max", stats.interactions.max);
  json.field("parallel_time_p50", stats.parallel_time.p50);
  json.field("parallel_time_p90", stats.parallel_time.p90);
  json.field("parallel_time_max", stats.parallel_time.max);
  json.field("total_meetings", stats.totals.meetings);
  json.field("total_firings", stats.totals.firings);
  json.field("null_skip_batches", stats.totals.null_skip_batches);
  json.field("wall_seconds", stats.wall_seconds);
  json.field("threads", static_cast<std::uint64_t>(stats.threads_used));
  return json.finish();
}

}  // namespace ppde::smc
