// Statistical model checking of population protocols (DESIGN.md S23).
//
// The exact verifier (S22) proves "every fair run stabilises to b" but is
// bounded by the explicit configuration space — ~m_regs = 7 under a 12 s
// budget on the converted Czerner n = 1 protocol. The paper's subject is
// behaviour at populations near k >= 2^(2^(n-1)), far beyond any explicit
// search. This module quantifies what simulation *can* establish there:
//
//   "from configuration C the protocol stabilises to output b with
//    probability >= 1 - delta over the uniform random scheduler"
//
// tested sequentially (Wald SPRT, smc/sprt.hpp) over independent trials of
// the S21 ensemble engine, with exact Clopper–Pearson intervals on the
// observed correctness probability and streaming P² tails of the
// convergence time. The result is a *certificate*: a versioned record with
// explicit (alpha, beta, delta) error bounds whose every statistical field
// is a pure function of (protocol, initial, options) — trial i always runs
// with seed derive_trial_seed(seed, i) and outcomes are folded in trial
// order, so the certificate digest is bit-identical at any thread count.
//
// A trial-budget cap downgrades the verdict to kInconclusive with the
// partial statistics attached; a certificate never overstates what was
// sampled.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "engine/ensemble.hpp"
#include "engine/metrics.hpp"
#include "pp/config.hpp"
#include "pp/protocol.hpp"
#include "pp/simulator.hpp"
#include "smc/sprt.hpp"
#include "smc/stats.hpp"

namespace ppde::smc {

enum class Verdict {
  kCertified,     ///< SPRT accepted H1: correctness probability >= 1-delta
  kRefuted,       ///< SPRT accepted H0: correctness probability <= 1-delta-eps
  kInconclusive,  ///< trial budget exhausted before either boundary
};

const char* to_string(Verdict verdict);

struct CertifyOptions {
  /// Certified statement: correct with probability >= 1 - delta.
  double delta = 0.01;
  /// Indifference width eps: H0 is p <= 1 - delta - eps. Inside the gap
  /// either verdict is statistically acceptable (Wald).
  double indifference = 0.05;
  double alpha = 0.01;  ///< P(kCertified | p <= 1-delta-eps)
  double beta = 0.01;   ///< P(kRefuted   | p >= 1-delta)
  /// Confidence level of the Clopper–Pearson interval in the certificate.
  double ci_confidence = 0.99;
  /// Hard trial cap; hitting it yields kInconclusive with partial stats.
  std::uint64_t max_trials = 4096;
  /// Read by nothing: trials stream through the fold one at a time. Still
  /// declared only because the repository benchmark (perfbench/) assigns
  /// it.
  std::uint64_t batch = 8;
  /// Worker threads, capped at max_trials; 0 = hardware concurrency.
  unsigned threads = 0;
  std::uint64_t seed = 1;
  engine::EngineKind engine = engine::EngineKind::kCountNullSkip;
  /// Stress scenario (S27): scheduler strategy + fault plan each trial
  /// runs under. Part of the certified statement — a non-default scenario
  /// is folded into the certificate payload (and hence the digest), so a
  /// claim is certified *per scenario*; the default emits nothing and
  /// reproduces pre-S27 certificates byte for byte.
  sched::Scenario scenario;
  /// Per-trial stopping rule (sim.seed is ignored; trial seeds are derived
  /// from `seed`).
  pp::SimulationOptions sim;

  /// The derived SPRT hypotheses; throws std::invalid_argument if delta,
  /// indifference, alpha, beta are inconsistent.
  SprtOptions sprt() const;
};

/// One trial's contribution to a certificate.
struct TrialOutcome {
  bool success = false;     ///< stabilised to the expected output
  bool stabilised = false;  ///< window heuristic fired at all
  /// Parallel time to the *start* of the final consensus (the window after
  /// it is measurement overhead). Valid iff stabilised.
  double convergence_parallel_time = 0.0;
  engine::RunMetrics metrics;
};

/// The one mapping from a run to its certify outcome. Success = the run's
/// window heuristic fired AND the consensus equals `expected_output`; a
/// budget-capped run counts as failure (conservative: a certificate never
/// credits unfinished runs). The convergence time is consensus_since /
/// `population` (the run's agent count). certify(), the analysis sweeps
/// and the serve daemon's fold all map through here.
TrialOutcome outcome_of(const engine::TrialResult& trial,
                        bool expected_output, std::uint64_t population);

struct Certificate {
  /// Format version of the JSONL serialisation (smc/json.hpp).
  static constexpr int kVersion = 1;

  Verdict verdict = Verdict::kInconclusive;

  // -- the certified statement ------------------------------------------
  std::uint64_t protocol_fingerprint = 0;  ///< pp::Protocol::fingerprint()
  std::uint64_t population = 0;
  bool expected_output = false;
  double delta = 0.0;
  double indifference = 0.0;
  double alpha = 0.0;
  double beta = 0.0;
  double ci_confidence = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t max_trials = 0;
  std::uint64_t interaction_budget = 0;  ///< per-trial scheduler budget
  /// Canonical scenario descriptor; empty for the default scenario, in
  /// which case the payload omits the field entirely (digest-scoping rule,
  /// sched/scenario.hpp: uniform certificates stay byte-identical to
  /// pre-S27 ones; every stressed claim gets its own digest space).
  std::string scenario;

  // -- evidence (all deterministic given the statement) ------------------
  std::uint64_t trials = 0;      ///< outcomes folded before the SPRT stopped
  std::uint64_t successes = 0;
  std::uint64_t stabilised = 0;  ///< window fired (irrespective of output)
  double llr = 0.0;              ///< final SPRT log-likelihood ratio
  BinomialInterval interval;     ///< Clopper–Pearson on successes/trials
  /// P² tails of convergence parallel time over successful trials; NaN
  /// until the estimator has seen at least one observation.
  double time_p50 = 0.0;
  double time_p90 = 0.0;
  double time_p99 = 0.0;
  std::uint64_t total_meetings = 0;  ///< summed over folded trials
  std::uint64_t total_firings = 0;

  // -- execution record (excluded from the digest) -----------------------
  double wall_seconds = 0.0;
  unsigned threads_used = 0;

  double success_fraction() const {
    return trials ? static_cast<double>(successes) / trials : 0.0;
  }
};

/// A trial body: given (executing worker, trial index, derived seed,
/// cancel flag), run one independent experiment. Must be safe to call
/// concurrently from different threads, and the outcome must be a pure
/// function of (trial, seed) alone — the worker index only identifies
/// per-worker state (e.g. a reusable CountSimulator) that is fully reset
/// between trials, so it can never influence a result (or the certificate
/// digest). `stop` is set once the verdict is known (or a trial threw);
/// a body may then return early with any outcome, because it is dropped
/// unfolded.
using TrialFn = std::function<TrialOutcome(
    unsigned worker, std::uint64_t trial, std::uint64_t seed,
    const std::atomic<bool>& stop)>;

/// Certify on the in-process trial fleet (engine::run_fleet) of
/// engine::fleet_workers(max_trials, threads) workers: trials are claimed
/// below the fold's look-ahead horizon (StreamingMerger::horizon) and each
/// outcome is absorbed into the one StreamingMerger, which folds in trial
/// order until the SPRT decides or options.max_trials is exhausted. On
/// the decision `stop` is raised for the trials still running. If a body
/// throws, the fleet stops and a std::runtime_error naming the lowest
/// failing trial is thrown. Statement fields that depend on the system
/// under test (fingerprint, population, expected_output) are left zero —
/// certify() fills them.
Certificate certify_trials(const TrialFn& body, const CertifyOptions& options);

/// Certify "`protocol` stabilises to `expected_output` from `initial` with
/// probability >= 1 - delta", each trial mapped through outcome_of.
Certificate certify(const pp::Protocol& protocol, const pp::Config& initial,
                    bool expected_output, const CertifyOptions& options);

/// Human-readable multi-line rendering (used by the CLI).
std::string describe(const Certificate& certificate);

}  // namespace ppde::smc
