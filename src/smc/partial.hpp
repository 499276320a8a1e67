// Shard-mergeable certification state for the serve daemon (S25).
//
// The serve layer (src/serve/) splits one SPRT certification across worker
// processes. The naive approach — each shard keeps its own SPRT counters
// and P² sketches, the coordinator unions them — cannot reproduce the
// single-process certificate digest: Wald's SPRT is a *sequential stopping
// rule* (which trial the test stops on depends on the entire outcome
// prefix, so shard-local stopping points are meaningless), and P² marker
// updates are order-dependent (each adjustment depends on every earlier
// observation). No commutative sketch union is bit-exact.
//
// What *is* exact: every statistical field of a certificate is a pure
// function of the trial-outcome sequence folded in trial order up to and
// including the SPRT decision point (smc/certify.cpp's fold loop), and
// outcome i is a pure function of (trial i, derive_trial_seed(seed, i))
// alone. So shards do not fold — workers ship their engine::TrialResult
// records in trial order (serve/proto.hpp), the daemon maps each to a
// TrialOutcome with smc::outcome_of, and replays the one canonical fold:
//
//   * FoldState is that fold as a state machine — exactly the Sprt /
//     QuantileTails / counter updates of smc::certify_trials.
//   * StreamingMerger wraps a FoldState in a reorder buffer: contiguous
//     outcome ranges absorbed in ANY arrival order, duplicates and
//     already-folded prefixes dropped, outcomes folded strictly in trial
//     order, folding stopped at the SPRT decision point.
//
// Hence the merged certificate is byte-identical to in-process
// smc::certify under any shard layout — same outcomes, same order, same
// fold — which tests/test_serve.cpp and the serve-smoke CI job assert
// differentially against smc::certify at several worker counts and shard
// splits (including after a killed-worker trial reassignment).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "smc/certify.hpp"
#include "smc/sprt.hpp"
#include "smc/stats.hpp"

namespace ppde::smc {

/// Statement fields of a certificate that depend only on the options (the
/// system-under-test fields — fingerprint, population, expected_output —
/// stay zero for the caller to fill). Shared by certify_trials and
/// StreamingMerger::finish so both paths produce identical payloads.
Certificate certificate_statement(const CertifyOptions& options);

/// The canonical certification fold (certify_trials' inner loop) as a
/// state machine.
class FoldState {
 public:
  explicit FoldState(const CertifyOptions& options);

  /// Fold one outcome — exactly one iteration of certify_trials' loop.
  /// No-op once the SPRT has decided (the stopped test's statistics are
  /// final; trailing outcomes of the last batch are discarded there too).
  void fold(const TrialOutcome& outcome);

  bool decided() const { return sprt_.decided(); }
  const Sprt& sprt() const { return sprt_; }
  std::uint64_t stabilised() const { return stabilised_; }

  /// Evidence + verdict + statement fields of the certificate (the
  /// system-under-test fields stay zero; wall_seconds / threads_used are
  /// execution record, not statistics, and are the caller's).
  Certificate finish(const CertifyOptions& options) const;

 private:
  Sprt sprt_;
  QuantileTails tails_;
  std::uint64_t stabilised_ = 0;
  std::uint64_t meetings_ = 0;
  std::uint64_t firings_ = 0;
};

/// Reorder buffer around a FoldState: absorbs contiguous outcome ranges
/// in any arrival order and folds them strictly in trial order.
/// Duplicate deliveries (e.g. a range reassigned after a worker death
/// whose original response later arrived anyway) and outcomes past the
/// SPRT decision point or the trial budget are dropped — the fold consumes
/// exactly the prefix the single-process fold would.
class StreamingMerger {
 public:
  explicit StreamingMerger(const CertifyOptions& options);

  /// Absorb `outcomes` of trials [first, first + outcomes.size()). The
  /// caller vouches for the range: the serve daemon checks every worker
  /// reply against the range it dispatched before it gets here.
  void absorb(std::uint64_t first, std::vector<TrialOutcome> outcomes);

  bool decided() const { return fold_.decided(); }
  /// Lowest trial index not yet folded (the dispatch frontier).
  std::uint64_t next_needed() const { return next_; }

  Certificate finish() const { return fold_.finish(options_); }

 private:
  CertifyOptions options_;
  FoldState fold_;
  std::uint64_t next_ = 0;
  /// Out-of-order ranges keyed by first trial index, trimmed so that no
  /// stored range starts below next_.
  std::map<std::uint64_t, std::vector<TrialOutcome>> pending_;
};

}  // namespace ppde::smc
