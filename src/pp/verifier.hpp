// Exact verification of stable computation (paper Section 3).
//
// A fair run of a finite transition system eventually confines itself to a
// bottom SCC of the reachability graph and visits all of it. Hence a
// population protocol stabilises to output b from configuration C0 — i.e.
// *every* fair run from C0 stabilises to b — iff every bottom SCC reachable
// from C0 consists solely of configurations with output b. This module
// enumerates the reachable configuration graph (configurations of a fixed
// population size form a finite set) on the shared verification kernel
// (src/verify, DESIGN.md S22) — optionally in parallel, with results
// independent of the thread count — and checks exactly that criterion.
// Unlike simulation it certifies the universally-quantified fair-run
// property, which is what the paper's lemmas and theorems claim.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "pp/config.hpp"
#include "pp/protocol.hpp"

namespace ppde::pp {

struct VerifierOptions {
  /// Abort with kResourceLimit once this many configurations are reached.
  std::uint64_t max_configs = 2'000'000;
  /// Witness semantics: a configuration's output is `accepting_count > 0`
  /// (always defined) instead of the all-or-none consensus output. Used to
  /// verify pre-broadcast conversions, where acceptance is witnessed by the
  /// OF pointer agent alone.
  bool witness_mode = false;
  /// Abort with kResourceLimit once this many edges are recorded.
  std::uint64_t max_edges = UINT64_MAX;
  /// Abort with kResourceLimit once the graph store (store_bytes below)
  /// exceeds this many bytes. It is counted from the explored counts, so
  /// the stop point is the same at every thread count.
  std::uint64_t max_bytes = UINT64_MAX;
  /// Worker threads for frontier expansion (0 = hardware concurrency).
  /// Results are identical at every thread count.
  unsigned threads = 1;
  /// Drop states no run can occupy (analysis::prune_protocol) before
  /// exploring. The verdict and all graph statistics are unchanged — the
  /// reachable configuration graphs are isomorphic — but each expansion
  /// scans a smaller transition relation.
  bool prune = false;
};

struct VerificationResult {
  enum class Verdict {
    kStabilisesTrue,   ///< every fair run stabilises to true
    kStabilisesFalse,  ///< every fair run stabilises to false
    kDoesNotStabilise, ///< some fair run does not stabilise (or runs disagree)
    kResourceLimit,    ///< exploration exceeded the configured limit
  };

  Verdict verdict = Verdict::kResourceLimit;
  /// Explored counts. Populated also on kResourceLimit (partial result):
  /// how far exploration got before the budget tripped.
  std::uint64_t explored_configs = 0;
  std::uint64_t explored_edges = 0;
  std::uint64_t num_sccs = 0;
  std::uint64_t num_bottom_sccs = 0;
  /// Bytes of the explored graph store: packed configurations, node
  /// records, interner slots and the CSR successor graph (what
  /// VerifierOptions::max_bytes bounds).
  std::uint64_t store_bytes = 0;
  /// For kDoesNotStabilise: a configuration inside an offending bottom SCC.
  std::optional<Config> counterexample;

  bool stabilises() const {
    return verdict == Verdict::kStabilisesTrue ||
           verdict == Verdict::kStabilisesFalse;
  }
  bool output() const { return verdict == Verdict::kStabilisesTrue; }
};

class Verifier {
 public:
  /// `protocol` must be finalized and outlive the verifier.
  explicit Verifier(const Protocol& protocol);

  VerificationResult verify(const Config& initial,
                            const VerifierOptions& options = {}) const;

 private:
  const Protocol& protocol_;
};

/// Convenience: render a verdict for logs and test failure messages.
std::string to_string(VerificationResult::Verdict verdict);

}  // namespace ppde::pp
