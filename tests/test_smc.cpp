// Tests for the statistical model-checking subsystem (DESIGN.md S23):
// SPRT decision boundaries against Wald's expected-sample-size bounds,
// Clopper–Pearson edge cases and exact binomial-tail inversion, the P²
// streaming quantile estimator against exact order statistics, certificate
// determinism across thread counts, the streaming trial scheduler against
// a sequential fold (out-of-order landings, exceptions, cancellation), the
// JSONL schema, the adaptive threshold sweep, and a differential check
// pinning SMC verdicts against exact pp::Verifier verdicts at tiny
// populations.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/robustness.hpp"
#include "baselines/flock.hpp"
#include "obs/registry.hpp"
#include "pp/verifier.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "smc/partial.hpp"
#include "smc/sprt.hpp"
#include "smc/stats.hpp"
#include "smc/sweep.hpp"
#include "support/rng.hpp"
#include "oracles.hpp"

namespace ppde::smc {
namespace {

SprtOptions loose_sprt() {
  SprtOptions options;
  options.p0 = 0.5;
  options.p1 = 0.9;
  options.alpha = 0.01;
  options.beta = 0.01;
  return options;
}

/// Run the SPRT on a Bernoulli(p) stream until it decides (caller asserts
/// the cap was not hit).
Sprt run_bernoulli(const SprtOptions& options, double p, std::uint64_t seed,
                   std::uint64_t cap) {
  support::Rng rng(seed);
  Sprt sprt(options);
  for (std::uint64_t i = 0; i < cap && !sprt.decided(); ++i)
    sprt.update(rng.below(1u << 30) <
                static_cast<std::uint64_t>(p * (1u << 30)));
  return sprt;
}

TEST(Sprt, BoundariesMatchWald) {
  const Sprt sprt(loose_sprt());
  EXPECT_NEAR(sprt.upper_bound(), std::log(0.99 / 0.01), 1e-12);
  EXPECT_NEAR(sprt.lower_bound(), std::log(0.01 / 0.99), 1e-12);
}

TEST(Sprt, AcceptsTrueHypothesisWithinExpectedSamples) {
  const SprtOptions options = loose_sprt();
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Sprt sprt = run_bernoulli(options, 0.95, seed, 10'000);
    ASSERT_EQ(sprt.decision(), Sprt::Decision::kAcceptH1) << "seed " << seed;
    // Wald: E_0.95[N] is ~10 observations here; allow a generous factor
    // for stochastic overshoot. All-success acceptance needs
    // ceil(upper / ln(p1/p0)) = 8 observations, the hard floor.
    EXPECT_GE(sprt.trials(), 8u);
    EXPECT_LE(sprt.trials(),
              static_cast<std::uint64_t>(6.0 *
                                         sprt.expected_samples(0.95)) + 8);
  }
}

TEST(Sprt, RejectsFalseHypothesisWithinExpectedSamples) {
  const SprtOptions options = loose_sprt();
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const Sprt sprt = run_bernoulli(options, 0.3, seed, 10'000);
    ASSERT_EQ(sprt.decision(), Sprt::Decision::kAcceptH0) << "seed " << seed;
    EXPECT_LE(sprt.trials(),
              static_cast<std::uint64_t>(
                  6.0 * std::abs(sprt.expected_samples(0.3))) + 8);
  }
}

TEST(Sprt, IndifferentStreamEventuallyDecidesEitherWay) {
  // Inside the indifference region either verdict is acceptable; the test
  // only pins that updates after the decision are ignored.
  Sprt sprt(loose_sprt());
  std::uint64_t decided_at = 0;
  support::Rng rng(99);
  for (std::uint64_t i = 0; i < 100'000 && !sprt.decided(); ++i) {
    sprt.update(rng.coin());
    decided_at = i + 1;
  }
  ASSERT_TRUE(sprt.decided());
  const auto verdict = sprt.decision();
  const auto trials = sprt.trials();
  sprt.update(true);
  sprt.update(false);
  EXPECT_EQ(sprt.decision(), verdict);
  EXPECT_EQ(sprt.trials(), trials);
  EXPECT_EQ(trials, decided_at);
}

TEST(Sprt, RejectsInvalidOptions) {
  SprtOptions options = loose_sprt();
  options.p0 = options.p1;
  EXPECT_THROW(Sprt{options}, std::invalid_argument);
  options = loose_sprt();
  options.alpha = 0.0;
  EXPECT_THROW(Sprt{options}, std::invalid_argument);
}

double binomial_tail_geq(std::uint64_t k, std::uint64_t n, double p) {
  double sum = 0.0;
  for (std::uint64_t i = k; i <= n; ++i)
    sum += std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                    std::lgamma(n - i + 1.0) +
                    i * std::log(p) + (n - i) * std::log1p(-p));
  return sum;
}

TEST(ClopperPearson, EdgeCasesHaveClosedForms) {
  // k = 0: lower is exactly 0, upper solves (1-p)^n = alpha/2.
  const auto zero = clopper_pearson(0, 10, 0.95);
  EXPECT_EQ(zero.lower, 0.0);
  EXPECT_NEAR(zero.upper, 1.0 - std::pow(0.025, 0.1), 1e-9);
  // k = n: upper is exactly 1, lower solves p^n = alpha/2.
  const auto full = clopper_pearson(10, 10, 0.95);
  EXPECT_EQ(full.upper, 1.0);
  EXPECT_NEAR(full.lower, std::pow(0.025, 0.1), 1e-9);
  // No trials: the vacuous interval.
  const auto vacuous = clopper_pearson(0, 0, 0.95);
  EXPECT_EQ(vacuous.lower, 0.0);
  EXPECT_EQ(vacuous.upper, 1.0);
}

TEST(ClopperPearson, EndpointsInvertTheBinomialTails) {
  // The defining property: at the lower endpoint P(X >= k) = alpha/2, at
  // the upper endpoint P(X <= k) = alpha/2.
  for (const auto& [k, n] : std::vector<std::pair<std::uint64_t,
                                                  std::uint64_t>>{
           {3, 10}, {1, 7}, {17, 20}, {50, 100}}) {
    const auto interval = clopper_pearson(k, n, 0.99);
    EXPECT_NEAR(binomial_tail_geq(k, n, interval.lower), 0.005, 1e-6)
        << k << "/" << n;
    EXPECT_NEAR(1.0 - binomial_tail_geq(k + 1, n, interval.upper), 0.005,
                1e-6)
        << k << "/" << n;
    EXPECT_LT(interval.lower, static_cast<double>(k) / n);
    EXPECT_GT(interval.upper, static_cast<double>(k) / n);
  }
}

TEST(IncompleteBeta, KnownValuesAndSymmetry) {
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-12);
  // I_x(2, 2) = 3x^2 - 2x^3.
  EXPECT_NEAR(incomplete_beta(2.0, 2.0, 0.4), 3 * 0.16 - 2 * 0.064, 1e-12);
  for (double x : {0.1, 0.5, 0.9})
    EXPECT_NEAR(incomplete_beta(3.5, 1.25, x),
                1.0 - incomplete_beta(1.25, 3.5, 1.0 - x), 1e-10);
}

TEST(P2Quantile, ExactBelowFiveSamples) {
  P2Quantile median(0.5);
  EXPECT_TRUE(std::isnan(median.value()));
  median.add(5.0);
  EXPECT_EQ(median.value(), 5.0);
  median.add(1.0);
  median.add(3.0);
  EXPECT_EQ(median.value(), 3.0);  // exact order statistic of {1, 3, 5}
}

TEST(P2Quantile, TracksUniformStreamQuantiles) {
  support::Rng rng(7);
  P2Quantile p50(0.5), p90(0.9), p99(0.99);
  std::vector<double> values;
  for (int i = 0; i < 20'000; ++i) {
    const double v =
        static_cast<double>(rng.below(1'000'000)) / 1'000'000.0;
    values.push_back(v);
    p50.add(v);
    p90.add(v);
    p99.add(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_NEAR(p50.value(), values[values.size() / 2], 0.02);
  EXPECT_NEAR(p90.value(), values[values.size() * 9 / 10], 0.02);
  EXPECT_NEAR(p99.value(), values[values.size() * 99 / 100], 0.01);
  EXPECT_EQ(p50.count(), 20'000u);
}

TEST(P2Quantile, HandlesHeavilyTiedStreams) {
  P2Quantile p90(0.9);
  for (int i = 0; i < 1'000; ++i) p90.add(i % 10 == 0 ? 100.0 : 1.0);
  EXPECT_GE(p90.value(), 1.0);
  EXPECT_LE(p90.value(), 100.0);
}

CertifyOptions fast_options() {
  CertifyOptions options;
  options.delta = 0.1;
  options.indifference = 0.8;  // H0: correct w.p. <= 0.1
  options.alpha = options.beta = 0.01;
  options.max_trials = 64;
  options.threads = 2;
  options.seed = 11;
  options.sim.stable_window = 20'000;
  options.sim.max_interactions = 50'000'000;
  options.engine = engine::EngineKind::kPerAgent;
  return options;
}

TEST(Certify, DifferentialAgainstExactVerifierOnTinyPopulations) {
  // Flock of birds decides x >= 5; both sides of the threshold, all tiny
  // populations: the exact bottom-SCC verdict and the SMC verdict must
  // agree — certifying the true output succeeds, certifying its negation
  // is refuted.
  const pp::Protocol flock = baselines::make_flock_of_birds(5);
  const pp::Verifier verifier(flock);
  for (std::uint32_t x = 2; x <= 7; ++x) {
    const pp::Config initial = baselines::flock_initial(flock, x);
    const pp::VerificationResult exact = verifier.verify(initial);
    ASSERT_TRUE(exact.stabilises()) << "x=" << x;
    const Certificate agree =
        certify(flock, initial, exact.output(), fast_options());
    EXPECT_EQ(agree.verdict, Verdict::kCertified) << "x=" << x;
    const Certificate disagree =
        certify(flock, initial, !exact.output(), fast_options());
    EXPECT_EQ(disagree.verdict, Verdict::kRefuted) << "x=" << x;
  }
}

TEST(Certify, DigestIsIndependentOfThreadCount) {
  const pp::Protocol flock = baselines::make_flock_of_birds(4);
  const pp::Config initial = baselines::flock_initial(flock, 6);
  CertifyOptions options = fast_options();
  options.threads = 1;
  const Certificate one = certify(flock, initial, true, options);
  EXPECT_EQ(one.verdict, Verdict::kCertified);
  EXPECT_GT(one.trials, 0u);
  for (const unsigned threads : {2u, 3u, 8u}) {
    options.threads = threads;
    const Certificate cert = certify(flock, initial, true, options);
    EXPECT_EQ(certificate_payload(cert), certificate_payload(one))
        << "threads " << threads;
    EXPECT_EQ(certificate_digest(cert), certificate_digest(one))
        << "threads " << threads;
  }
}

TEST(Certify, PublishesEngineCounters) {
  // The engine's registry counters count in-process certification trials
  // too (they are published by the one trial body). On one thread nothing
  // runs past the decision, so they equal the certificate's own totals.
  const pp::Protocol flock = baselines::make_flock_of_birds(4);
  const pp::Config initial = baselines::flock_initial(flock, 6);
  CertifyOptions options = fast_options();
  options.threads = 1;
  obs::Registry& registry = obs::Registry::global();
  const std::uint64_t trials_before =
      registry.counter("engine.trials_done").value();
  const std::uint64_t firings_before =
      registry.counter("engine.firings").value();
  const Certificate cert = certify(flock, initial, true, options);
  ASSERT_GT(cert.trials, 0u);
  EXPECT_EQ(registry.counter("engine.trials_done").value() - trials_before,
            cert.trials);
  EXPECT_EQ(registry.counter("engine.firings").value() - firings_before,
            cert.total_firings);
}

// -- the streaming scheduler against a sequential fold ---------------------

/// A pure function of the seed with a mixed success/failure pattern, so
/// the SPRT walks around before it decides.
TrialOutcome mixed_outcome(std::uint64_t seed) {
  TrialOutcome outcome;
  outcome.stabilised = (seed % 17) != 0;
  outcome.success = outcome.stabilised && (seed % 8) != 0;
  outcome.convergence_parallel_time = static_cast<double>(seed % 1009) / 7.0;
  outcome.metrics.meetings = seed % 101;
  outcome.metrics.firings = seed % 53;
  return outcome;
}

CertifyOptions mixed_options() {
  CertifyOptions options;
  options.delta = 0.1;
  options.indifference = 0.3;
  options.alpha = 0.05;
  options.beta = 0.05;
  options.max_trials = 200;
  options.seed = 9;
  return options;
}

TEST(Certify, StreamingMatchesSequentialFold) {
  const CertifyOptions base = mixed_options();
  const Certificate reference = oracle::oracle_fold(
      base, [](std::uint64_t, std::uint64_t seed) {
        return mixed_outcome(seed);
      });
  ASSERT_NE(reference.verdict, Verdict::kInconclusive);
  const std::string reference_payload = certificate_payload(reference);

  for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    CertifyOptions options = base;
    options.threads = threads;
    std::vector<std::atomic<int>> runs(options.max_trials);
    // Heavy-tailed durations by trial index, so trials land far out of
    // order. A body that sees `stop` returns a poisoned outcome: were it
    // folded, the payload would differ from the sequential fold's.
    const Certificate cert = certify_trials(
        [&](unsigned, std::uint64_t trial, std::uint64_t seed,
            const std::atomic<bool>& stop) {
          runs[trial].fetch_add(1);
          const int micros = trial % 7 == 3 ? 8000 : trial % 3 == 0 ? 700 : 50;
          std::this_thread::sleep_for(std::chrono::microseconds(micros));
          TrialOutcome outcome = mixed_outcome(seed);
          if (stop.load()) {
            outcome.success = !outcome.success;
            outcome.metrics.meetings = 1u << 30;
          }
          return outcome;
        },
        options);
    EXPECT_EQ(certificate_payload(cert), reference_payload);
    EXPECT_EQ(cert.threads_used, threads);
    // Each index ran at most once, every folded one exactly once, and none
    // past the look-ahead horizon of the decision point.
    const std::uint64_t horizon =
        reference.trials + StreamingMerger::kLookAhead * threads;
    for (std::uint64_t trial = 0; trial < runs.size(); ++trial) {
      const int count = runs[trial].load();
      if (trial < reference.trials)
        EXPECT_EQ(count, 1) << "trial " << trial;
      else if (trial >= horizon)
        EXPECT_EQ(count, 0) << "trial " << trial;
      else
        EXPECT_LE(count, 1) << "trial " << trial;
    }
  }
}

TEST(Certify, ThrowingTrialDoesNotHang) {
  // Trial 0 throws after the other workers have run ahead to the
  // look-ahead horizon and wait there for a frontier that will never
  // move: the failure must wake them, and the exception must surface.
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    CertifyOptions options = mixed_options();
    options.threads = threads;
    std::vector<std::atomic<int>> runs(options.max_trials);
    EXPECT_THROW(
        certify_trials(
            [&](unsigned, std::uint64_t trial, std::uint64_t seed,
                const std::atomic<bool>&) {
              runs[trial].fetch_add(1);
              if (trial == 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                throw std::runtime_error("trial 0 failed");
              }
              return mixed_outcome(seed);
            },
            options),
        std::runtime_error);
    for (std::uint64_t trial = StreamingMerger::kLookAhead * threads;
         trial < runs.size(); ++trial)
      EXPECT_EQ(runs[trial].load(), 0) << "trial " << trial;
  }
}

TEST(Certify, CancelStopsRunningTrials) {
  // Trials 0-2 succeed at once and decide the test (H1 needs three
  // successes here); every later trial spins until `stop` is raised. The
  // certificate must come back without waiting for them.
  CertifyOptions options = fast_options();
  options.max_trials = 64;
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    options.threads = threads;
    std::atomic<int> timed_out{0};
    const auto started = std::chrono::steady_clock::now();
    const Certificate cert = certify_trials(
        [&](unsigned, std::uint64_t trial, std::uint64_t,
            const std::atomic<bool>& stop) {
          TrialOutcome outcome;
          outcome.success = outcome.stabilised = true;
          if (trial < 3) return outcome;
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(20);
          while (!stop.load(std::memory_order_relaxed)) {
            if (std::chrono::steady_clock::now() > deadline) {
              timed_out.fetch_add(1);
              break;
            }
            std::this_thread::yield();
          }
          return outcome;
        },
        options);
    const double waited = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started)
                              .count();
    EXPECT_EQ(cert.verdict, Verdict::kCertified);
    EXPECT_EQ(cert.trials, 3u);
    EXPECT_EQ(timed_out.load(), 0);
    EXPECT_LT(waited, 10.0);
  }
}

TEST(Certify, BudgetCapDowngradesToInconclusive) {
  const pp::Protocol flock = baselines::make_flock_of_birds(4);
  const pp::Config initial = baselines::flock_initial(flock, 6);
  CertifyOptions options = fast_options();
  options.max_trials = 2;  // far below the ~8 successes H1 needs
  const Certificate cert = certify(flock, initial, true, options);
  EXPECT_EQ(cert.verdict, Verdict::kInconclusive);
  EXPECT_EQ(cert.trials, 2u);  // partial stats, not silence
  EXPECT_EQ(cert.successes, 2u);
  EXPECT_GT(cert.interval.lower, 0.0);
  EXPECT_LT(cert.interval.lower, 1.0);
}

TEST(Certify, TracksConvergenceTails) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const pp::Config initial = baselines::flock_initial(flock, 5);
  CertifyOptions options = fast_options();
  options.delta = 0.05;
  options.indifference = 0.5;
  const Certificate cert = certify(flock, initial, true, options);
  ASSERT_EQ(cert.verdict, Verdict::kCertified);
  EXPECT_FALSE(std::isnan(cert.time_p50));
  EXPECT_LE(cert.time_p50, cert.time_p90 + 1e-12);
  EXPECT_LE(cert.time_p90, cert.time_p99 + 1e-12);
  EXPECT_GT(cert.total_meetings, 0u);
}

TEST(Certify, FingerprintDistinguishesProtocols) {
  const pp::Protocol a = baselines::make_flock_of_birds(4);
  const pp::Protocol b = baselines::make_flock_of_birds(5);
  const pp::Protocol a_again = baselines::make_flock_of_birds(4);
  EXPECT_EQ(a.fingerprint(), a_again.fingerprint());
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(Json, CertificateRecordHasSchemaAndStableDigest) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const Certificate cert =
      certify(flock, baselines::flock_initial(flock, 4), true,
              fast_options());
  const std::string line = to_jsonl(cert);
  for (const char* key :
       {"\"smc_certificate_v\":1", "\"verdict\":", "\"protocol\":",
        "\"population\":", "\"delta\":", "\"alpha\":", "\"beta\":",
        "\"seed\":", "\"trials\":", "\"successes\":", "\"llr\":",
        "\"ci_lower\":", "\"ci_upper\":", "\"time_p50\":", "\"digest\":",
        "\"wall_seconds\":", "\"threads\":"})
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  // The digest covers the payload only: re-rendering reproduces it, and
  // the wall-clock field does not feed it.
  char digest_text[32];
  std::snprintf(digest_text, sizeof digest_text, "\"digest\":\"%016llx\"",
                static_cast<unsigned long long>(certificate_digest(cert)));
  EXPECT_NE(line.find(digest_text), std::string::npos);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
}

TEST(Json, EnsembleRecordHasSchema) {
  engine::EnsembleStats stats;
  stats.trials = 4;
  stats.stabilised = 4;
  stats.accepted = 3;
  const std::string line =
      to_jsonl(stats, 16, 42, engine::EngineKind::kCountNullSkip);
  for (const char* key :
       {"\"smc_ensemble_v\":1", "\"population\":16", "\"master_seed\":42",
        "\"engine\":\"count+null-skip\"", "\"trials\":4",
        "\"accepted\":3"})
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
}

TEST(Json, WriterEscapesStrings) {
  JsonWriter json;
  json.field("text", std::string_view("a\"b\\c\nd"));
  EXPECT_EQ(json.finish(), "{\"text\":\"a\\\"b\\\\c\\nd\"}");
}

TEST(Json, WriterEscapesControlCharacters) {
  // Everything below 0x20 must come out as an escape — named for the
  // common ones, \u00xx for the rest — or the line is not valid JSON.
  JsonWriter json;
  json.field("text", std::string_view("a\x01" "b\x1f" "\tc\r"));
  EXPECT_EQ(json.finish(), "{\"text\":\"a\\u0001b\\u001f\\tc\\r\"}");
}

TEST(Json, WriterRendersNonFiniteDoublesAsNull) {
  // JSON has no inf/nan literals; a non-finite statistic (e.g. the time
  // tails of a certificate with zero successes) must render as null, not
  // as an unparseable "inf"/"nan" token.
  JsonWriter json;
  json.field("nan", std::nan(""));
  json.field("pinf", std::numeric_limits<double>::infinity());
  json.field("ninf", -std::numeric_limits<double>::infinity());
  json.field("finite", 0.5);
  EXPECT_EQ(json.finish(),
            "{\"nan\":null,\"pinf\":null,\"ninf\":null,\"finite\":0.5}");
}

TEST(Json, RawFieldEmbedsPreserialisedValues) {
  // The trace writer (obs/trace.cpp) nests pre-serialised args objects
  // through raw_field; the value must land verbatim, the key escaped.
  JsonWriter json;
  json.field("a", std::uint64_t{1});
  json.raw_field("args", "{\"n\":2}");
  EXPECT_EQ(json.finish(), "{\"a\":1,\"args\":{\"n\":2}}");
}

TEST(Sweep, BracketsFlockThreshold) {
  const pp::Protocol flock = baselines::make_flock_of_birds(5);
  SweepOptions options;
  options.certify = fast_options();
  ThresholdSweep sweep = sweep_threshold(
      flock,
      [&](std::uint64_t m) {
        return baselines::flock_initial(flock,
                                        static_cast<std::uint32_t>(m));
      },
      /*lo=*/2, /*hi=*/8, options);
  ASSERT_TRUE(sweep.bracketed);
  EXPECT_EQ(sweep.below, 4u);
  EXPECT_EQ(sweep.above, 5u);
  EXPECT_GE(sweep.points.size(), 3u);
  EXPECT_GT(sweep.total_trials, 0u);
}

TEST(Sweep, UnbracketedWhenThresholdOutsideRange) {
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  SweepOptions options;
  options.certify = fast_options();
  const ThresholdSweep sweep = sweep_threshold(
      flock,
      [&](std::uint64_t m) {
        return baselines::flock_initial(flock,
                                        static_cast<std::uint32_t>(m));
      },
      /*lo=*/4, /*hi=*/9, options);  // accepts everywhere in [4, 9]
  EXPECT_FALSE(sweep.bracketed);
  EXPECT_EQ(sweep.points.size(), 2u);  // endpoints only, then stop
}

TEST(RobustnessCertification, FlockUnderInputNoiseStaysCorrect) {
  // Input-state noise only: extra birds are still birds, the total count
  // still decides the predicate, so the certified sweep must accept. The
  // verdict is deterministic at every thread count.
  const pp::Protocol flock = baselines::make_flock_of_birds(3);
  const std::vector<pp::State> pool{flock.state("1")};
  CertifyOptions options = fast_options();
  const auto predicate = [](std::uint64_t m) { return m >= 3; };
  const Certificate one = analysis::sweep_certified(
      flock, baselines::flock_initial(flock, 4), /*max_noise=*/3, predicate,
      options, engine::EngineKind::kPerAgent, &pool);
  EXPECT_EQ(one.verdict, Verdict::kCertified);
  CertifyOptions eight = options;
  eight.threads = 8;
  const Certificate again = analysis::sweep_certified(
      flock, baselines::flock_initial(flock, 4), /*max_noise=*/3, predicate,
      eight, engine::EngineKind::kPerAgent, &pool);
  EXPECT_EQ(certificate_payload(one), certificate_payload(again));
}

}  // namespace
}  // namespace ppde::smc
