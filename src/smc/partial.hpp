// The one certification fold, for in-process and distributed runs alike
// (S23, S25).
//
// Wald's SPRT is a *sequential stopping rule* — which trial the test
// stops on depends on the entire outcome prefix — and P² marker updates
// are order-dependent, so no commutative union of per-shard sketches
// reproduces a single-process certificate bit for bit. What *is* exact:
// every statistical field of a certificate is a pure function of the
// trial-outcome sequence folded in trial order up to and including the
// SPRT decision point, and outcome i is a pure function of
// (trial i, derive_trial_seed(seed, i)) alone.
//
// StreamingMerger is that fold behind a reorder buffer. Both schedulers
// feed it: smc::certify_trials absorbs each finished trial as a one-trial
// range, and the serve daemon absorbs each worker's reply (records mapped
// through smc::outcome_of). Ranges may arrive in any order and more than
// once; the merger folds strictly in trial order and stops folding at the
// SPRT decision point or the trial budget. Hence the certificate is
// byte-identical under any thread count, shard layout, arrival order or
// reassignment — tests/test_smc.cpp and tests/test_serve.cpp check it
// against a plain sequential fold (tests/oracles.hpp, oracle_fold).
//
// The merger also owns the one look-ahead rule (horizon): how far past the
// fold frontier either scheduler may start trials.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "smc/certify.hpp"
#include "smc/sprt.hpp"
#include "smc/stats.hpp"

namespace ppde::smc {

class StreamingMerger {
 public:
  /// How many trials may be started past the fold frontier per trial in
  /// flight (see horizon).
  static constexpr std::uint64_t kLookAhead = 2;

  explicit StreamingMerger(const CertifyOptions& options);

  /// Absorb `outcomes` of trials [first, first + outcomes.size()). The
  /// caller vouches for the range: the serve daemon checks every worker
  /// reply against the range it dispatched before it gets here.
  /// Duplicates, already-folded prefixes and everything after the
  /// decision are dropped unfolded.
  void absorb(std::uint64_t first, std::vector<TrialOutcome> outcomes);

  bool decided() const { return sprt_.decided(); }
  const Sprt& sprt() const { return sprt_; }
  /// Lowest trial index not yet folded (the fold frontier).
  std::uint64_t next_needed() const { return next_; }

  /// The look-ahead rule: a scheduler with `in_flight` trials running at
  /// once may start any trial below
  ///   min(max_trials, next_needed() + kLookAhead * in_flight),
  /// computed without overflow. The bound keeps the reorder buffer and
  /// the work the verdict may not use proportional to the fleet.
  std::uint64_t horizon(std::uint64_t in_flight) const;

  /// The certificate of everything folded so far: statement, evidence and
  /// verdict (kInconclusive until the SPRT decides). The system-under-test
  /// fields (fingerprint, population, expected_output) and the execution
  /// record (wall_seconds, threads_used) stay zero for the caller to fill.
  Certificate finish() const;

 private:
  /// One step of the canonical fold.
  void fold(const TrialOutcome& outcome);

  CertifyOptions options_;
  Sprt sprt_;
  QuantileTails tails_;
  std::uint64_t stabilised_ = 0;
  std::uint64_t meetings_ = 0;
  std::uint64_t firings_ = 0;
  std::uint64_t next_ = 0;
  /// Out-of-order ranges keyed by first trial index, trimmed so that no
  /// stored range starts below next_.
  std::map<std::uint64_t, std::vector<TrialOutcome>> pending_;
};

}  // namespace ppde::smc
