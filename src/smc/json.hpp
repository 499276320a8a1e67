// Versioned JSONL artifacts for the SMC subsystem (S23).
//
// Certificates and ensemble summaries are emitted as one JSON object per
// line so benches and CI can parse results without scraping text. The
// writer is deliberately tiny (ordered fields, no nesting beyond what the
// records need) — no external JSON dependency.
//
// Reproducibility contract: a certificate's `digest` field is the FNV-1a
// hash of its *canonical payload* — the statement and evidence fields
// rendered in a fixed order with fixed formatting, excluding the execution
// record (wall_seconds, threads). Re-running `ppde certify` with the same
// (seed, alpha, beta, delta, budget) at any thread count reproduces the
// digest bit for bit; CI asserts exactly that.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "engine/ensemble.hpp"
#include "smc/certify.hpp"

namespace ppde::smc {

/// Append `text` to `out` as a JSON string literal: quote, backslash and
/// every control character escaped (\n, \t and \r by name, the rest as
/// \u00xx). The one string escaper of the repository: JsonWriter, the
/// serve wire (serve::Json::dump, serve/proto.cpp) and the bench host
/// block all write strings through it.
void append_json_string(std::string& out, std::string_view text);

/// Minimal ordered-field JSON object writer.
class JsonWriter {
 public:
  void field(std::string_view key, std::uint64_t value);
  void field(std::string_view key, int value);
  void field(std::string_view key, bool value);
  /// Doubles use %.17g (shortest round-trip-safe); non-finite values (NaN,
  /// ±inf) render as null — "inf"/"nan" are not JSON.
  void field(std::string_view key, double value);
  /// Strings are escaped (quotes, backslash, control characters).
  void field(std::string_view key, std::string_view value);
  /// 64-bit value as a fixed-width hex string (JSON numbers lose precision
  /// past 2^53, so hashes travel as strings).
  void hex_field(std::string_view key, std::uint64_t value);
  /// Verbatim pre-serialised JSON value (nested object/array). The caller
  /// owns its validity — used for the "args" objects of trace events,
  /// which are themselves built with a JsonWriter.
  void raw_field(std::string_view key, std::string_view json);

  /// The complete object, e.g. {"a":1,"b":"x"}.
  std::string finish() const { return "{" + body_ + "}"; }

 private:
  void key(std::string_view name);
  std::string body_;
};

/// FNV-1a over a byte string (the digest primitive; fixed constants, no
/// platform dependence).
std::uint64_t fnv1a(std::string_view bytes);

/// The canonical deterministic payload of a certificate (a JSON object by
/// itself, without digest/wall/threads).
std::string certificate_payload(const Certificate& certificate);

/// fnv1a(certificate_payload(...)).
std::uint64_t certificate_digest(const Certificate& certificate);

/// Full JSONL record: {"smc_certificate_v":1, ...payload fields...,
/// "digest":"...", "wall_seconds":..., "threads":...}. No trailing newline.
std::string to_jsonl(const Certificate& certificate);

/// JSONL record for an ensemble run: {"smc_ensemble_v":1, ...}. The
/// population/seed/engine identify the workload (EnsembleStats itself does
/// not carry them). No trailing newline.
std::string to_jsonl(const engine::EnsembleStats& stats,
                     std::uint64_t population, std::uint64_t master_seed,
                     engine::EngineKind kind);

}  // namespace ppde::smc
