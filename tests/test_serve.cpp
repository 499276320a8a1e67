// Tests for the serve subsystem (DESIGN.md S25): wire framing and the
// recursive-descent JSON parser, the certification fold's reorder buffer
// (StreamingMerger) differentially against a sequential fold under many
// shard layouts, the one trial record's codec, the worker batch protocol
// (cancel included) over a real socketpair, the end-to-end daemon against
// in-process smc::certify (byte-identical certificate digest, including
// after a killed-worker trial reassignment and after a worker that
// replies with the wrong range or record shape), one-trial certify
// dispatch within the look-ahead bound, cancellation of speculative
// batches on the decision and on the wall budget, and the SIGINT/SIGTERM
// watcher.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bignum/nat.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "engine/executor.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/signals.hpp"
#include "serve/statement.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"
#include "smc/partial.hpp"
#include "oracles.hpp"

namespace ppde::serve {
namespace {

// ---------------------------------------------------------------------------
// Wire: JSON parser.

TEST(Json, ParsesScalarsExactly) {
  const Json json = Json::parse(
      R"({"a":18446744073709551615,"b":-2.5,"c":"hi \"x\"\n","d":true,)"
      R"("e":null,"f":"00ff00000000002a"})");
  EXPECT_EQ(json.u64("a", 0), 18446744073709551615ull);  // > 2^53: exact
  EXPECT_DOUBLE_EQ(json.dbl("b", 0.0), -2.5);
  EXPECT_EQ(json.str("c", ""), "hi \"x\"\n");
  EXPECT_TRUE(json.boolean("d", false));
  ASSERT_NE(json.find("e"), nullptr);
  EXPECT_EQ(json.find("g"), nullptr);
  EXPECT_EQ(json.find("f")->as_hex_u64(), 0x00ff00000000002aull);
}

TEST(Json, ParsesNestedArraysAndObjects) {
  const Json json = Json::parse(R"({"r":[[1,2],[3],{"k":[4]}]})");
  const Json* r = json.find("r");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->items().size(), 3u);
  EXPECT_EQ(r->items()[0].items()[1].as_u64(), 2u);
  EXPECT_EQ(r->items()[2].find("k")->items()[0].as_u64(), 4u);
}

TEST(Json, ParsesUnicodeEscapes) {
  const Json json = Json::parse(R"({"s":"Aé"})");
  EXPECT_EQ(json.str("s", ""), "A\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a":1} trailing)"), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a":})"), std::runtime_error);
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse(R"({"a":truth})"), std::runtime_error);
}

TEST(Json, RejectsNestingDeeperThanTheCap) {
  // 100,000 '[' is a 100 KB frame, far under the frame cap; unbounded
  // recursion used to overflow the stack on it.
  EXPECT_THROW(Json::parse(std::string(100'000, '[')), std::runtime_error);
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(Json::parse(nested(kMaxJsonDepth)));
  EXPECT_THROW(Json::parse(nested(kMaxJsonDepth + 1)), std::runtime_error);
  std::string objects;
  for (int i = 0; i < 100'000; ++i) objects += R"({"k":)";
  try {
    Json::parse(objects);
    FAIL() << "deep object nesting parsed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("nesting too deep"),
              std::string::npos)
        << error.what();
  }
}

TEST(Json, RoundTripsWriterOutput) {
  smc::JsonWriter writer;
  writer.field("n", std::uint64_t{12345678901234567ull});
  writer.field("x", 0.125);
  writer.field("s", std::string_view("a\\b\"c"));
  writer.hex_field("h", 0xdeadbeefull);
  const Json json = Json::parse(writer.finish());
  EXPECT_EQ(json.u64("n", 0), 12345678901234567ull);
  EXPECT_DOUBLE_EQ(json.dbl("x", 0.0), 0.125);
  EXPECT_EQ(json.str("s", ""), "a\\b\"c");
  EXPECT_EQ(json.find("h")->as_hex_u64(), 0xdeadbeefull);
}

TEST(Json, EveryWriterRoundTripsEscapedStrings) {
  // Every writer escapes strings through smc::append_json_string, so a
  // quote, a backslash and control characters come back unchanged
  // through the wire parser whichever writer produced them.
  const std::string tricky = "q\"b\\n\nc\x01" "d\x1f" "e";
  smc::JsonWriter writer;
  writer.field(std::string_view("s"), std::string_view(tricky));
  const Json written = Json::parse(writer.finish());
  EXPECT_EQ(written.str("s", ""), tricky);
  EXPECT_EQ(Json::parse(written.dump()).str("s", ""), tricky);

  std::string literal;
  smc::append_json_string(literal, tricky);
  EXPECT_EQ(Json::parse(literal).as_string(), tricky);

  BatchResult batch;
  obs::CapturedEvent event;
  event.name = tricky;
  event.cat = tricky;
  batch.trace.push_back(event);
  obs::MetricSnapshot metric;
  metric.name = tricky;
  batch.metric_deltas.push_back(metric);
  const BatchResult decoded =
      parse_batch_result(Json::parse(encode_batch_result(batch)));
  ASSERT_EQ(decoded.trace.size(), 1u);
  EXPECT_EQ(decoded.trace[0].name, tricky);
  EXPECT_EQ(decoded.trace[0].cat, tricky);
  ASSERT_EQ(decoded.metric_deltas.size(), 1u);
  EXPECT_EQ(decoded.metric_deltas[0].name, tricky);
}

// ---------------------------------------------------------------------------
// Wire: framing.

TEST(Wire, FramesRoundTripOverSocketpair) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  const std::string message = R"({"op":"batch","count":3})";
  write_frame(pair[0], message);
  write_frame(pair[0], "");  // empty payload is legal
  std::string out;
  ASSERT_TRUE(read_frame(pair[1], out));
  EXPECT_EQ(out, message);
  ASSERT_TRUE(read_frame(pair[1], out));
  EXPECT_EQ(out, "");
  ::close(pair[0]);
  EXPECT_FALSE(read_frame(pair[1], out));  // clean EOF, not an error
  ::close(pair[1]);
}

TEST(Wire, RejectsOversizedFrames) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  // Hand-build a header claiming a payload beyond the cap.
  const unsigned char header[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(pair[0], header, 4), 4);
  std::string out;
  EXPECT_THROW(read_frame(pair[1], out), std::runtime_error);
  ::close(pair[0]);
  ::close(pair[1]);
}

// ---------------------------------------------------------------------------
// SMC partial state: the canonical fold behind a reorder buffer.

smc::CertifyOptions fold_options() {
  smc::CertifyOptions options;
  options.delta = 0.1;
  options.indifference = 0.3;
  options.alpha = 0.05;
  options.beta = 0.05;
  options.max_trials = 200;
  options.seed = 9;
  return options;
}

/// Deterministic fake outcome: a pure function of (trial, seed) with a
/// mixed success/failure pattern so the SPRT walks around before deciding.
smc::TrialOutcome fake_outcome(std::uint64_t, std::uint64_t seed) {
  smc::TrialOutcome outcome;
  outcome.stabilised = (seed % 17) != 0;
  outcome.success = outcome.stabilised && (seed % 8) != 0;
  outcome.convergence_parallel_time =
      static_cast<double>(seed % 1009) / 7.0;
  outcome.metrics.meetings = seed % 101;
  outcome.metrics.firings = seed % 53;
  return outcome;
}

std::vector<smc::TrialOutcome> fake_outcomes(
    const smc::CertifyOptions& options, std::uint64_t count) {
  std::vector<smc::TrialOutcome> outcomes;
  outcomes.reserve(count);
  for (std::uint64_t trial = 0; trial < count; ++trial)
    outcomes.push_back(
        fake_outcome(trial, engine::derive_trial_seed(options.seed, trial)));
  return outcomes;
}

// The tentpole differential: the streaming merge reproduces the
// sequential fold's certificate *byte-identically* under any shard layout.
TEST(PartialState, MergerMatchesCertifyTrialsUnderAnyShardLayout) {
  const smc::CertifyOptions options = fold_options();
  const smc::Certificate reference =
      oracle::oracle_fold(options, fake_outcome);
  const std::string reference_payload = smc::certificate_payload(reference);
  ASSERT_GT(reference.trials, 0u);

  const std::vector<smc::TrialOutcome> outcomes =
      fake_outcomes(options, options.max_trials);

  const auto shards_of = [&](std::uint64_t shard) {
    std::vector<std::pair<std::uint64_t, std::vector<smc::TrialOutcome>>>
        shards;
    for (std::uint64_t first = 0; first < outcomes.size(); first += shard) {
      const std::uint64_t count =
          std::min<std::uint64_t>(shard, outcomes.size() - first);
      shards.emplace_back(
          first, std::vector<smc::TrialOutcome>(
                     outcomes.begin() + static_cast<std::ptrdiff_t>(first),
                     outcomes.begin() +
                         static_cast<std::ptrdiff_t>(first + count)));
    }
    return shards;
  };

  // In-order delivery at several shard sizes (including one big shard).
  for (const std::uint64_t shard : {1u, 2u, 3u, 5u, 8u, 64u, 200u}) {
    smc::StreamingMerger merger(options);
    for (auto& [first, batch] : shards_of(shard))
      merger.absorb(first, std::move(batch));
    EXPECT_EQ(smc::certificate_payload(merger.finish()), reference_payload)
        << "shard " << shard;
    EXPECT_TRUE(merger.decided());
  }

  // Reverse and shuffled arrival order; duplicated deliveries (a range
  // re-run after a worker death whose original response arrives anyway).
  for (const std::uint64_t shard : {3u, 8u}) {
    auto shards = shards_of(shard);
    std::reverse(shards.begin(), shards.end());
    smc::StreamingMerger reversed(options);
    for (auto& [first, batch] : shards) reversed.absorb(first, batch);
    EXPECT_EQ(smc::certificate_payload(reversed.finish()),
              reference_payload);

    shards = shards_of(shard);
    std::mt19937_64 rng(5);
    std::shuffle(shards.begin(), shards.end(), rng);
    smc::StreamingMerger shuffled(options);
    for (auto& [first, batch] : shards) {
      shuffled.absorb(first, batch);
      if (rng() % 3 == 0) shuffled.absorb(first, batch);  // duplicate
    }
    EXPECT_EQ(smc::certificate_payload(shuffled.finish()),
              reference_payload);
  }
}

// ---------------------------------------------------------------------------
// Proto: the one trial record, as certify and ensemble queries read it.

TEST(Proto, CertifyRecordsRoundTripBitExactly) {
  // Every shipped field distinct and nonzero — the parallel time a
  // non-terminating binary fraction, so a decimal round-trip would show —
  // plus one budget-capped run.
  BatchResult result;
  result.first = 17;
  result.records.resize(5);
  for (std::uint64_t i = 0; i < result.records.size(); ++i) {
    engine::TrialResult& trial = result.records[i];
    trial.sim.stabilised = i != 3;
    trial.sim.output = i % 2 == 0;
    trial.sim.interactions = 123'456'789'012ull + i;
    trial.sim.consensus_since =
        trial.sim.stabilised ? 1'000 * (i + 1)
                             : pp::SimulationResult::kNeverStabilised;
    trial.sim.parallel_time = 0.1 * static_cast<double>(i + 1);
    trial.metrics.meetings = 1'000 + i;
    trial.metrics.firings = 500 + i;
    trial.metrics.null_skip_batches = 50 + i;
  }
  const BatchResult parsed =
      parse_batch_result(Json::parse(encode_batch_result(result)));
  EXPECT_EQ(parsed.first, result.first);
  ASSERT_EQ(parsed.records.size(), result.records.size());
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    const engine::TrialResult& sent = result.records[i];
    const engine::TrialResult& got = parsed.records[i];
    EXPECT_EQ(got.sim.stabilised, sent.sim.stabilised) << i;
    EXPECT_EQ(got.sim.output, sent.sim.output) << i;
    EXPECT_EQ(got.sim.interactions, sent.sim.interactions) << i;
    EXPECT_EQ(got.sim.consensus_since, sent.sim.consensus_since) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sim.parallel_time),
              std::bit_cast<std::uint64_t>(sent.sim.parallel_time))
        << i;
    EXPECT_EQ(got.metrics.meetings, sent.metrics.meetings) << i;
    EXPECT_EQ(got.metrics.firings, sent.metrics.firings) << i;
    EXPECT_EQ(got.metrics.null_skip_batches, sent.metrics.null_skip_batches)
        << i;
    // The certify outcome the daemon maps from the decoded record is the
    // one the worker's own record maps to, convergence time bit for bit.
    const smc::TrialOutcome want = smc::outcome_of(sent, true, 29);
    const smc::TrialOutcome have = smc::outcome_of(got, true, 29);
    EXPECT_EQ(have.success, want.success) << i;
    EXPECT_EQ(have.stabilised, want.stabilised) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(have.convergence_parallel_time),
              std::bit_cast<std::uint64_t>(want.convergence_parallel_time))
        << i;
  }
}

TEST(Proto, EnsembleRecordsRoundTripThroughTrialResults) {
  // An ensemble batch ships the same record; the daemon aggregates the
  // decoded TrialResults, so every statistic must come back bit for bit.
  engine::TrialResult trial;
  trial.sim.stabilised = true;
  trial.sim.output = true;
  trial.sim.interactions = 123456;
  trial.sim.consensus_since = 120000;
  trial.sim.parallel_time = 98.75;
  trial.metrics.meetings = 1;
  trial.metrics.firings = 2;
  trial.metrics.null_skip_batches = 3;

  BatchResult result;
  result.first = 3;
  result.records.push_back(trial);
  const BatchResult parsed =
      parse_batch_result(Json::parse(encode_batch_result(result)));
  EXPECT_EQ(parsed.first, 3u);
  ASSERT_EQ(parsed.records.size(), 1u);

  const engine::TrialResult& back = parsed.records[0];
  EXPECT_EQ(back.sim.stabilised, trial.sim.stabilised);
  EXPECT_EQ(back.sim.output, trial.sim.output);
  EXPECT_EQ(back.sim.interactions, trial.sim.interactions);
  EXPECT_EQ(back.sim.consensus_since, trial.sim.consensus_since);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.sim.parallel_time),
            std::bit_cast<std::uint64_t>(trial.sim.parallel_time));
  EXPECT_EQ(back.metrics.meetings, trial.metrics.meetings);
  EXPECT_EQ(back.metrics.firings, trial.metrics.firings);
  EXPECT_EQ(back.metrics.null_skip_batches, trial.metrics.null_skip_batches);

  const engine::EnsembleStats want = engine::aggregate({trial});
  const engine::EnsembleStats have = engine::aggregate(parsed.records);
  EXPECT_EQ(have.stabilised, want.stabilised);
  EXPECT_EQ(have.accepted, want.accepted);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(have.interactions.p50),
            std::bit_cast<std::uint64_t>(want.interactions.p50));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(have.parallel_time.max),
            std::bit_cast<std::uint64_t>(want.parallel_time.max));
  EXPECT_EQ(have.totals.firings, want.totals.firings);
  EXPECT_EQ(have.totals.null_skip_batches, want.totals.null_skip_batches);
}

TEST(Proto, ResultDecoderRefusesOtherRecordShapesAndRanges) {
  const auto refused = [](const std::string& frame) {
    try {
      (void)parse_batch_result(Json::parse(frame));
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  const std::string head = R"({"op":"result","first":4,"records":[)";
  const std::string one = "\"3ff0000000000000\"";
  // The current shape decodes...
  EXPECT_FALSE(refused(head + "[4,1,1,9,3," + one + ",9,5,1]]}"));
  // ...the records of an older build's worker do not: the 6-field certify
  // record and the 12-field ensemble record.
  EXPECT_TRUE(refused(head + "[4,1,1," + one + ",9,5]]}"));
  EXPECT_TRUE(refused(head + "[4,1,1,9," + one + ",9,5,1,0,0,0,0]]}"));
  // A record whose trial index is not first + i.
  EXPECT_TRUE(refused(head + "[5,1,1,9,3," + one + ",9,5,1]]}"));
  EXPECT_TRUE(refused(head + "[4,1,1,9,3," + one + ",9,5,1],[4,1,1,9,3," +
                      one + ",9,5,1]]}"));
}

TEST(Proto, QueryRoundTripsAndDefaults) {
  QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = 8;
  query.trials = 24;
  query.seed = 7;
  query.delta = 0.1;
  query.indifference = 0.8;
  const QueryParams parsed = parse_query(Json::parse(encode_query(query)));
  EXPECT_EQ(parsed.req, "certify");
  EXPECT_EQ(parsed.extra, 8u);
  EXPECT_EQ(parsed.trials, 24u);
  EXPECT_DOUBLE_EQ(parsed.indifference, 0.8);
  // A minimal request means the same as the CLI's flag defaults.
  const QueryParams defaults =
      parse_query(Json::parse(R"({"req":"certify"})"));
  EXPECT_EQ(defaults.trials, 4096u);
  EXPECT_EQ(defaults.seed, 42u);
  EXPECT_DOUBLE_EQ(defaults.delta, 0.01);
  EXPECT_THROW(parse_query(Json::parse(R"({"n":1})")), std::runtime_error);
}

TEST(Proto, QueryRejectsRemovedDispatchAndIgnoresBatch) {
  // Queries from clients predating the single execution core still parse:
  // "dispatch":"bytecode" named the only core that remains, and "batch"
  // never changed a result.
  const QueryParams legacy = parse_query(Json::parse(
      R"({"req":"certify","trials":24,"dispatch":"bytecode","batch":8})"));
  EXPECT_EQ(legacy.trials, 24u);
  const std::string encoded = encode_query(legacy);
  EXPECT_EQ(encoded.find("dispatch"), std::string::npos) << encoded;
  EXPECT_EQ(encoded.find("batch"), std::string::npos) << encoded;
  // Asking for the interpreter is refused, not silently served.
  try {
    (void)parse_query(Json::parse(R"({"req":"certify","dispatch":"interp"})"));
    FAIL() << "accepted dispatch interp";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("test oracle"),
              std::string::npos)
        << error.what();
  }
}

TEST(Proto, DecodersRefuseOutOfRangeNAndExtra) {
  // n is at most 4 (the largest construction a process builds in a few
  // GB) and extra a u32: a larger value is refused, never narrowed (n =
  // 2^32 + 1 used to be admitted as the n = 1 construction).
  const auto refused = [](const auto& decode, const char* frame,
                          const char* field) {
    try {
      (void)decode(Json::parse(frame));
      ADD_FAILURE() << "accepted " << frame;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find("out of range"),
                std::string::npos)
          << error.what();
    }
  };
  const auto query = [](const Json& json) { return parse_query(json); };
  const auto batch = [](const Json& json) { return parse_batch_request(json); };
  refused(query, R"({"req":"certify","n":4294967297,"extra":2})", "n = ");
  refused(query, R"({"req":"certify","n":1,"extra":4294967296})", "extra = ");
  refused(batch, R"({"op":"batch","n":4294967297,"extra":2})", "n = ");
  refused(batch, R"({"op":"batch","n":1,"extra":4294967296})", "extra = ");
  // n = 5 would build a 5 GB conversion in every process that serves it.
  refused(query, R"({"req":"certify","n":5,"extra":2})", "n = ");
  refused(batch, R"({"op":"batch","n":5,"extra":2})", "n = ");
  // The largest admitted values still decode.
  const QueryParams largest = parse_query(
      Json::parse(R"({"req":"certify","n":4,"extra":4294967295})"));
  EXPECT_EQ(largest.n, 4);
  EXPECT_EQ(largest.extra, 4294967295u);
  const BatchRequest request = parse_batch_request(
      Json::parse(R"({"op":"batch","n":4,"extra":4294967295})"));
  EXPECT_EQ(request.n, 4);
  EXPECT_EQ(request.extra, 4294967295u);
}

TEST(Dispatch, ParseRejectsUnknown) {
  // One execution core remains: "bytecode" is accepted (older clients
  // send it), every other value — the removed "interp" included — is
  // refused by the wire decoder. The CLI has no --dispatch flag at all.
  EXPECT_NO_THROW(check_dispatch("bytecode"));
  for (const char* text : {"interp", "fast", "", "Bytecode"})
    EXPECT_THROW(check_dispatch(text), std::runtime_error) << text;
}

// ---------------------------------------------------------------------------
// Worker process over a real socketpair.

/// A forked worker_main on one end of a socketpair; `fd` is the daemon's
/// end. exit_status() closes it and reaps the child: 0 after an exit op,
/// 1 if worker_main threw.
struct ForkedWorker {
  int fd = -1;
  pid_t pid = -1;

  ForkedWorker() {
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0)
      throw std::runtime_error("socketpair");
    pid = ::fork();
    if (pid == 0) {
      ::close(pair[0]);
      int status = 0;
      try {
        worker_main(pair[1]);
      } catch (...) {
        status = 1;
      }
      ::_exit(status);
    }
    ::close(pair[1]);
    fd = pair[0];
  }

  int exit_status() {
    ::close(fd);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }
};

TEST(Worker, BatchRecordsMatchInProcessOutcomes) {
  ForkedWorker worker;

  BatchRequest request;
  request.n = 1;
  request.extra = 2;
  request.seed = 7;
  request.first = 2;
  request.count = 4;
  request.window = 1'000'000;
  request.budget = 100'000'000;
  // The same range three times: as encoded today; as a daemon predating
  // the single execution core sent it, with "dispatch" and "batch"
  // members; and as a daemon predating the one trial record sent a
  // certify batch, with "kind" and "expected" members. The worker ignores
  // them all; the reply is the same frame every time.
  const std::string current = encode_batch_request(request);
  const std::string legacy =
      R"({"dispatch":"bytecode","batch":4,)" + current.substr(1);
  const std::string certify_kind =
      R"({"kind":"certify","expected":true,)" + current.substr(1);
  std::vector<BatchResult> results;
  for (const std::string& frame : {current, legacy, certify_kind}) {
    write_frame(worker.fd, frame);
    std::string payload;
    ASSERT_TRUE(read_frame(worker.fd, payload));
    results.push_back(parse_batch_result(Json::parse(payload)));
  }
  write_frame(worker.fd, encode_exit());
  EXPECT_EQ(worker.exit_status(), 0);

  // Differential: the worker's records are exactly what an in-process
  // loop over the same trials computes, and map to exactly the outcomes
  // in-process certify folds.
  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const pp::Config initial = conv.initial_config(conv.num_pointers + 2);
  pp::SimulationOptions sim;
  sim.stable_window = 1'000'000;
  sim.max_interactions = 100'000'000;
  engine::TrialExecutor executor(conv.protocol,
                                 engine::EngineKind::kCountNullSkip,
                                 sched::Scenario{}, 1);
  std::vector<engine::TrialResult> expected;
  for (std::uint64_t trial = 2; trial < 6; ++trial)
    expected.push_back(executor.run(
        0, initial, engine::derive_trial_seed(7, trial), sim));
  for (const BatchResult& result : results) {
    EXPECT_EQ(result.first, 2u);
    ASSERT_EQ(result.records.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const engine::TrialResult& got = result.records[i];
      EXPECT_EQ(got.sim.stabilised, expected[i].sim.stabilised) << i;
      EXPECT_EQ(got.sim.output, expected[i].sim.output) << i;
      EXPECT_EQ(got.sim.interactions, expected[i].sim.interactions) << i;
      EXPECT_EQ(got.sim.consensus_since, expected[i].sim.consensus_since)
          << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.sim.parallel_time),
                std::bit_cast<std::uint64_t>(expected[i].sim.parallel_time))
          << i;
      EXPECT_EQ(got.metrics.meetings, expected[i].metrics.meetings) << i;
      EXPECT_EQ(got.metrics.firings, expected[i].metrics.firings) << i;
      EXPECT_EQ(got.metrics.null_skip_batches,
                expected[i].metrics.null_skip_batches)
          << i;
      const smc::TrialOutcome have =
          smc::outcome_of(got, true, initial.total());
      const smc::TrialOutcome want =
          smc::outcome_of(expected[i], true, initial.total());
      EXPECT_EQ(have.success, want.success) << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(have.convergence_parallel_time),
                std::bit_cast<std::uint64_t>(want.convergence_parallel_time))
          << i;
    }
  }
}

TEST(Worker, CancelYieldsAPrefixAndAStaleCancelIsIgnored) {
  ForkedWorker worker;
  BatchRequest request;
  request.n = 1;
  request.extra = 2;
  request.seed = 7;
  request.first = 10;
  request.count = 1000;  // seconds of work unless cancelled
  request.window = 1'000'000'000;
  request.budget = 5'000'000;
  const auto reply = [&] {
    std::string payload;
    EXPECT_TRUE(read_frame(worker.fd, payload));
    return parse_batch_result(Json::parse(payload));
  };

  // A cancel right behind the batch: the worker stops before its next
  // trial and ships the prefix it finished, from the range's first trial.
  write_frame(worker.fd, encode_batch_request(request));
  write_frame(worker.fd, encode_cancel());
  const BatchResult prefix = reply();
  EXPECT_EQ(prefix.first, request.first);
  EXPECT_LT(prefix.records.size(), request.count);

  const auto lowered =
      compile::lower_program(czerner::build_construction(1).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const pp::Config initial = conv.initial_config(conv.num_pointers + 2);
  pp::SimulationOptions sim;
  sim.stable_window = request.window;
  sim.max_interactions = request.budget;
  engine::TrialExecutor executor(conv.protocol,
                                 engine::EngineKind::kCountNullSkip,
                                 sched::Scenario{}, 1);
  for (std::size_t i = 0; i < prefix.records.size(); ++i) {
    const engine::TrialResult expected = executor.run(
        0, initial, engine::derive_trial_seed(request.seed, 10 + i), sim);
    EXPECT_EQ(prefix.records[i].sim.interactions, expected.sim.interactions);
    EXPECT_EQ(prefix.records[i].metrics.firings, expected.metrics.firings);
  }

  // A cancel that arrives after the whole reply is stale: the worker drops
  // it and answers the next batch in full.
  request.count = 2;
  write_frame(worker.fd, encode_batch_request(request));
  EXPECT_EQ(reply().records.size(), 2u);
  write_frame(worker.fd, encode_cancel());
  request.first = 0;
  request.count = 1;
  write_frame(worker.fd, encode_batch_request(request));
  const BatchResult after = reply();
  EXPECT_EQ(after.first, 0u);
  EXPECT_EQ(after.records.size(), 1u);

  // Any other frame during a batch is a protocol error.
  request.count = 1000;
  write_frame(worker.fd, encode_batch_request(request));
  write_frame(worker.fd, encode_batch_request(request));
  std::string payload;
  EXPECT_FALSE(read_frame(worker.fd, payload));
  EXPECT_EQ(worker.exit_status(), 1);
}

// ---------------------------------------------------------------------------
// End-to-end daemon.

struct RunningServer {
  Server server;
  std::thread thread;

  explicit RunningServer(const ServerOptions& options) : server(options) {
    thread = std::thread([this] { server.run(); });
  }
  ~RunningServer() {
    server.request_stop();
    thread.join();
  }
  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server.port());
  }
};

QueryParams smoke_query() {
  QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = 2;
  query.trials = 24;
  query.seed = 7;
  query.delta = 0.1;
  query.indifference = 0.8;
  // A small stability window keeps each trial cheap; the differential
  // stays exact because the reference certificate uses the same options.
  query.window = 1'000'000;
  query.budget = 100'000'000;
  return query;
}

/// The in-process certificate for the same workload a daemon query names.
smc::Certificate reference_certificate(const QueryParams& query) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(query.n).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + query.extra;
  const bool expected = bignum::Nat(query.extra) >=
                        czerner::Construction::threshold(query.n);
  smc::CertifyOptions options = certify_options_of(query);
  options.threads = 1;
  return smc::certify(conv.protocol, conv.initial_config(m), expected,
                      options);
}

std::string digest_of(const std::string& json_text) {
  const std::size_t key = json_text.find("\"digest\":\"");
  if (key == std::string::npos) return "";
  const std::size_t start = key + 10;
  const std::size_t end = json_text.find('"', start);
  return json_text.substr(start, end - start);
}

/// The daemon's newest flight record (an empty object if it has none).
Json newest_flight(const std::string& endpoint) {
  QueryParams stats{"stats"};
  stats.recent = 1;
  std::string response;
  std::string error;
  EXPECT_TRUE(rpc(endpoint, encode_query(stats), &response, &error)) << error;
  const Json parsed = Json::parse(response);
  const Json* recent = parsed.find("recent");
  if (recent == nullptr || recent->items().empty()) return Json::parse("{}");
  return recent->items()[0];
}

TEST(Statement, ABuildDoesNotBlockLookupsOfOtherN) {
  // A first n = 2 build takes over a second; a lookup of the already
  // built n = 1 must not wait for it.
  const Statement& one = statement(1);
  std::thread builder([] { statement(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto started = std::chrono::steady_clock::now();
  const Statement& again = statement(1);
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  builder.join();
  EXPECT_EQ(&again, &one);
  EXPECT_LT(waited, 0.1);
  EXPECT_NE(statement(2).fingerprint, one.fingerprint);
}

TEST(Server, CertifyMatchesInProcessDigestByteForByte) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));
  ASSERT_NE(digest_of(reference), "");

  for (const unsigned workers : {1u, 2u, 4u}) {
    ServerOptions options;
    options.port = 0;
    options.workers = workers;
    options.shard = 4;
    RunningServer running(options);
    std::string response;
    std::string error;
    ASSERT_TRUE(
        rpc(running.endpoint(), encode_query(query), &response, &error))
        << error;
    EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
    EXPECT_EQ(digest_of(response), digest_of(reference))
        << "workers " << workers << ": " << response;
  }
}

TEST(Server, LegacyDispatchAndBatchFieldsCertifyToTheSameDigest) {
  // An old client's query carries "dispatch":"bytecode" and a lockstep
  // "batch" width; it must certify to exactly today's digest.
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));
  ASSERT_NE(digest_of(reference), "");
  const std::string encoded = encode_query(query);
  const std::string legacy =
      R"({"dispatch":"bytecode","batch":8,)" + encoded.substr(1);
  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 4;
  RunningServer running(options);
  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), legacy, &response, &error)) << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  EXPECT_EQ(digest_of(response), digest_of(reference)) << response;
}

TEST(Server, HostileFramesGetErrorRepliesAndServingContinues) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  RunningServer running(options);
  std::string response;
  std::string error;
  // Admission error frame for the removed interpreter core.
  ASSERT_TRUE(rpc(running.endpoint(),
                  R"({"req":"certify","n":1,"extra":2,"dispatch":"interp"})",
                  &response, &error))
      << error;
  Json reply = Json::parse(response);
  EXPECT_FALSE(reply.boolean("ok", true)) << response;
  EXPECT_NE(reply.str("error", "").find("test oracle"), std::string::npos)
      << response;
  // 100,000 nested arrays: a parse error, not a crashed daemon.
  ASSERT_TRUE(rpc(running.endpoint(), std::string(100'000, '['), &response,
                  &error))
      << error;
  reply = Json::parse(response);
  EXPECT_FALSE(reply.boolean("ok", true)) << response;
  EXPECT_NE(reply.str("error", "").find("nesting too deep"),
            std::string::npos)
      << response;
  // The daemon still certifies, to the in-process digest.
  const QueryParams query = smoke_query();
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  EXPECT_EQ(digest_of(response),
            digest_of(smc::to_jsonl(reference_certificate(query))));
}

TEST(Server, KilledWorkerRangeIsReassignedWithSameDigest) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 4;
  options.kill_worker_after = 1;  // SIGKILL a worker mid-query
  RunningServer running(options);
  std::string response;
  std::string error;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  EXPECT_EQ(digest_of(response), digest_of(reference)) << response;
}

/// How FakeRemoteWorker answers. The first four are replies the daemon
/// must refuse: kShort drops the range's last record; kShifted is a
/// well-formed reply for the range 1000 trials further on; the parent
/// shapes are the 6-field certify and 12-field ensemble records an older
/// build's worker ships. kHoldUntilCancel answers nothing until a cancel
/// arrives and then ships an empty prefix — or, after kHoldSeconds
/// without one, the whole range.
enum class FakeReply {
  kShort,
  kShifted,
  kParentCertify,
  kParentEnsemble,
  kHoldUntilCancel
};

/// A remote `ppde worker` stand-in on 127.0.0.1 that answers every batch
/// as its FakeReply mode says until the daemon hangs up. The constructor
/// only listens, so a Server built next can fork its local workers and
/// then connect (the kernel queues the connection); start() must follow
/// the Server, because a thread alive across fork() can leave a lock held
/// forever in the child.
class FakeRemoteWorker {
 public:
  static constexpr int kHoldSeconds = 10;

  explicit FakeRemoteWorker(FakeReply mode) : mode_(mode) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t length = sizeof addr;
    if (listen_fd_ < 0 ||
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), length) != 0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &length) != 0)
      throw std::runtime_error("FakeRemoteWorker: cannot listen");
    port_ = ntohs(addr.sin_port);
  }

  ~FakeRemoteWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes accept() if never reached
    if (thread_.joinable()) thread_.join();
    ::close(listen_fd_);
  }

  FakeRemoteWorker(const FakeRemoteWorker&) = delete;
  FakeRemoteWorker& operator=(const FakeRemoteWorker&) = delete;

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }
  void start() {
    thread_ = std::thread([this] { serve(); });
  }
  std::uint64_t batches() const { return batches_.load(); }
  std::uint64_t cancels() const { return cancels_.load(); }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    try {
      std::string payload;
      while (read_frame(fd, payload)) {
        const Json message = Json::parse(payload);
        if (is_exit(message)) break;
        if (is_cancel(message)) {
          ++cancels_;
          continue;
        }
        ++batches_;
        const BatchRequest request = parse_batch_request(message);
        const bool cancelled = mode_ == FakeReply::kHoldUntilCancel &&
                               cancelled_within_hold(fd);
        write_frame(fd, reply_to(request, cancelled));
      }
    } catch (const std::exception&) {
      // The daemon hung up mid-frame; nothing left to answer.
    }
    ::close(fd);
  }

  /// Wait up to kHoldSeconds for the daemon's next frame; true if it is a
  /// cancel.
  bool cancelled_within_hold(int fd) {
    pollfd ready{fd, POLLIN, 0};
    std::string payload;
    if (::poll(&ready, 1, kHoldSeconds * 1000) <= 0 ||
        !read_frame(fd, payload) || !is_cancel(Json::parse(payload)))
      return false;
    ++cancels_;
    return true;
  }

  /// The reply to `request`; an empty prefix if it was cancelled.
  std::string reply_to(const BatchRequest& request, bool cancelled) const {
    BatchResult result;
    result.first = request.first;
    result.records.resize(cancelled ? 0 : request.count);
    switch (mode_) {
      case FakeReply::kShort:
        result.records.pop_back();
        return encode_batch_result(result);
      case FakeReply::kShifted:
        result.first += 1000;
        return encode_batch_result(result);
      case FakeReply::kHoldUntilCancel:
        return encode_batch_result(result);
      case FakeReply::kParentCertify:
      case FakeReply::kParentEnsemble:
        break;
    }
    // The older build's records after the trial index:
    // [success, stabilised, time-bits, meetings, firings] for certify,
    // [stabilised, output, interactions, parallel-time-bits, meetings,
    // firings, and five more run counters] for ensemble.
    const char* rest = mode_ == FakeReply::kParentCertify
                           ? R"(,1,1,"3ff0000000000000",9,5])"
                           : R"(,1,1,9,"3ff0000000000000",9,5,1,0,0,0,0])";
    std::string frame = R"({"op":"result","first":)" +
                        std::to_string(request.first) + R"(,"records":[)";
    for (std::uint64_t i = 0; i < request.count; ++i)
      frame += (i == 0 ? "[" : ",[") + std::to_string(request.first + i) +
               rest;
    return frame + "]}";
  }

  FakeReply mode_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> cancels_{0};
  std::thread thread_;
};

QueryParams small_ensemble_query() {
  QueryParams query;
  query.req = "ensemble";
  query.n = 1;
  query.extra = 2;
  query.trials = 4;
  query.seed = 5;
  query.window = 1'000'000;
  query.budget = 100'000'000;
  return query;
}

/// The in-process ensemble summary for the workload a daemon query names.
std::string reference_ensemble_summary(const QueryParams& query) {
  const auto lowered =
      compile::lower_program(czerner::build_construction(query.n).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + query.extra;
  engine::EnsembleOptions ensemble;
  ensemble.trials = query.trials;
  ensemble.threads = 1;
  ensemble.master_seed = query.seed;
  ensemble.sim.stable_window = query.window;
  ensemble.sim.max_interactions = query.budget;
  engine::EnsembleStats stats =
      engine::run_ensemble(conv.protocol, conv.initial_config(m), ensemble);
  // Execution record, not statistics: the daemon fills its own.
  stats.wall_seconds = 0.0;
  stats.threads_used = 0;
  return smc::to_jsonl(stats, m, query.seed,
                       engine::EngineKind::kCountNullSkip);
}

/// `summary` with its execution-record fields zeroed, as
/// reference_ensemble_summary renders them.
std::string without_execution_record(const Json& summary) {
  std::string text = summary.dump();
  for (const char* key : {"\"wall_seconds\":", "\"threads\":"}) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) continue;
    const std::size_t start = at + std::string(key).size();
    const std::size_t end = text.find_first_of(",}", start);
    text.replace(start, end - start, "0");
  }
  return text;
}

TEST(Server, MisrangedAndOldShapeRepliesAreRefusedAndReassigned) {
  // One local worker plus a remote worker that always misreplies: the
  // daemon must refuse the reply, retire the worker and re-run its range
  // locally — promptly, not after the query's wall budget runs out.
  const QueryParams certify = smoke_query();
  const smc::Certificate reference = reference_certificate(certify);
  const std::string reference_digest =
      digest_of(smc::to_jsonl(reference));
  ASSERT_NE(reference_digest, "");
  // A certify query goes out one trial at a time, whatever the shard: the
  // remote worker gets trial 1, and the fold needs it.
  ASSERT_GT(reference.trials, 1u);
  const QueryParams ensemble = small_ensemble_query();
  const std::uint64_t ensemble_shard = 2;
  const Json expected_summary =
      Json::parse(reference_ensemble_summary(ensemble));
  const double wall_budget = 20.0;

  obs::Counter& deaths =
      obs::Registry::global().counter("serve.worker_deaths");
  obs::Counter& reassigned =
      obs::Registry::global().counter("serve.trials_reassigned");
  for (const FakeReply mode :
       {FakeReply::kShort, FakeReply::kShifted, FakeReply::kParentCertify,
        FakeReply::kParentEnsemble}) {
    for (const bool is_certify : {true, false}) {
      SCOPED_TRACE(testing::Message()
                   << "mode " << static_cast<int>(mode) << ", "
                   << (is_certify ? "certify" : "ensemble"));
      FakeRemoteWorker fake(mode);
      ServerOptions options;
      options.port = 0;
      options.workers = 1;
      options.remote_workers = {fake.endpoint()};
      options.shard = ensemble_shard;
      options.max_query_seconds = wall_budget;
      RunningServer running(options);
      fake.start();
      const std::uint64_t deaths_before = deaths.value();
      const std::uint64_t reassigned_before = reassigned.value();

      const auto started = std::chrono::steady_clock::now();
      std::string response;
      std::string error;
      ASSERT_TRUE(rpc(running.endpoint(),
                      encode_query(is_certify ? certify : ensemble),
                      &response, &error))
          << error;
      const double waited = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - started)
                                .count();
      const Json reply = Json::parse(response);
      ASSERT_TRUE(reply.boolean("ok", false)) << response;
      EXPECT_LT(waited, wall_budget);
      if (is_certify) {
        EXPECT_EQ(digest_of(response), reference_digest) << response;
      } else {
        const Json* summary = reply.find("summary");
        ASSERT_NE(summary, nullptr) << response;
        EXPECT_EQ(without_execution_record(*summary),
                  expected_summary.dump());
      }
      EXPECT_EQ(fake.batches(), 1u);
      EXPECT_EQ(deaths.value() - deaths_before, 1u);
      EXPECT_EQ(reassigned.value() - reassigned_before,
                is_certify ? 1u : ensemble_shard);
    }
  }
}

TEST(Server, DecidedQueryDoesNotWaitForSpeculativeBatches) {
  // Three local workers take trials 0-2, which decide the smoke query; the
  // remote worker, the fourth slot, takes trial 3, which the fold never
  // needs. Once the fold decides, the daemon cancels it and answers at
  // once instead of waiting for the reply (the fake holds it for
  // kHoldSeconds).
  const QueryParams query = smoke_query();
  const smc::Certificate reference = reference_certificate(query);
  ASSERT_LE(reference.trials, 3u);
  FakeRemoteWorker fake(FakeReply::kHoldUntilCancel);
  ServerOptions options;
  options.port = 0;
  options.workers = 3;
  options.remote_workers = {fake.endpoint()};
  RunningServer running(options);
  fake.start();
  obs::Counter& deaths =
      obs::Registry::global().counter("serve.worker_deaths");
  const std::uint64_t deaths_before = deaths.value();

  const auto started = std::chrono::steady_clock::now();
  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  ASSERT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  EXPECT_EQ(digest_of(response), digest_of(smc::to_jsonl(reference)));
  EXPECT_EQ(fake.batches(), 1u);
  EXPECT_EQ(fake.cancels(), 1u);
  EXPECT_LT(waited, FakeRemoteWorker::kHoldSeconds / 2.0);
  // An empty prefix from a cancelled worker is a reply, not a death.
  EXPECT_EQ(deaths.value() - deaths_before, 0u);
}

TEST(Server, WallBudgetCancelsInFlightBatches) {
  // One ensemble batch of 32 budget-bound trials (~0.2 s each) against a
  // 1 s wall budget: the daemon cancels the batch when the budget runs
  // out, and the worker stops after the trial it is running, not after
  // all 32.
  QueryParams query = small_ensemble_query();
  query.trials = 32;
  query.window = 1'000'000'000;
  query.budget = 120'000'000;
  query.shard = 32;
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_query_seconds = 1.0;
  RunningServer running(options);

  const auto started = std::chrono::steady_clock::now();
  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  const double waited = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
  const Json reply = Json::parse(response);
  EXPECT_FALSE(reply.boolean("ok", true)) << response;
  EXPECT_NE(reply.str("error", "").find("wall budget"), std::string::npos)
      << response;
  EXPECT_LT(waited, 4.0);

  // The cancelled worker's socket holds no stale frame: the next query
  // certifies to the in-process digest.
  const QueryParams smoke = smoke_query();
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(smoke), &response, &error))
      << error;
  EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  EXPECT_EQ(digest_of(response),
            digest_of(smc::to_jsonl(reference_certificate(smoke))));
}

TEST(Server, HugeShardCertifiesToTheInProcessDigest) {
  // A certify query's shard is accepted and ignored: one near 2^62 still
  // goes out one trial at a time. An ensemble query's shard sizes its
  // batches: the same shard sends the whole fleet as one batch.
  const std::uint64_t huge = std::uint64_t{1} << 62;
  QueryParams query = smoke_query();
  query.shard = huge;
  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.max_query_seconds = 5.0;
  RunningServer running(options);
  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  ASSERT_TRUE(Json::parse(response).boolean("ok", false)) << response;
  const smc::Certificate reference = reference_certificate(query);
  EXPECT_EQ(digest_of(response), digest_of(smc::to_jsonl(reference)));
  EXPECT_LE(newest_flight(running.endpoint()).u64("trials_executed", 0),
            reference.trials + 2 * options.workers);

  QueryParams ensemble = small_ensemble_query();
  ensemble.shard = huge;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(ensemble), &response, &error))
      << error;
  const Json reply = Json::parse(response);
  ASSERT_TRUE(reply.boolean("ok", false)) << response;
  const Json* summary = reply.find("summary");
  ASSERT_NE(summary, nullptr) << response;
  EXPECT_EQ(without_execution_record(*summary),
            Json::parse(reference_ensemble_summary(ensemble)).dump());
  EXPECT_EQ(newest_flight(running.endpoint()).u64("batches", 0), 1u);
}

TEST(Server, CertifyDispatchesOneTrialAtATime) {
  // At the daemon's default shard (8) the smoke query, which decides
  // within 4 trials, runs no trial past the look-ahead horizon: one worker
  // runs exactly the trials the certificate folds, and W workers at most
  // 2 × W more, since each trial is folded as soon as its one-trial reply
  // lands and none starts after the decision.
  const QueryParams query = smoke_query();
  const smc::Certificate reference = reference_certificate(query);
  ASSERT_LE(reference.trials, 4u);
  obs::Counter& folded =
      obs::Registry::global().counter("serve.trials_folded");
  for (const unsigned workers : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "workers " << workers);
    ServerOptions options;
    options.port = 0;
    options.workers = workers;
    ASSERT_GT(options.shard, reference.trials);
    RunningServer running(options);
    const std::uint64_t folded_before = folded.value();
    std::string response;
    std::string error;
    ASSERT_TRUE(
        rpc(running.endpoint(), encode_query(query), &response, &error))
        << error;
    const Json reply = Json::parse(response);
    ASSERT_TRUE(reply.boolean("ok", false)) << response;
    EXPECT_EQ(digest_of(response), digest_of(smc::to_jsonl(reference)));
    const Json* certificate = reply.find("certificate");
    ASSERT_NE(certificate, nullptr) << response;
    const std::uint64_t trials = certificate->u64("trials", 0);
    EXPECT_EQ(trials, reference.trials);

    const Json flight = newest_flight(running.endpoint());
    const std::uint64_t executed = flight.u64("trials_executed", 0);
    EXPECT_EQ(flight.u64("trials_folded", 0), trials);
    EXPECT_EQ(folded.value() - folded_before, trials);
    if (workers == 1)
      EXPECT_EQ(executed, trials);
    else
      EXPECT_LE(executed, trials + 2 * workers);
    EXPECT_GE(executed, trials);
    // One trial per batch: a cancelled worker's empty reply is no batch,
    // for the query and for each worker.
    EXPECT_EQ(flight.u64("batches", 0), executed) << flight.dump();
    const Json* per_worker = flight.find("workers");
    ASSERT_NE(per_worker, nullptr);
    std::uint64_t worker_batches = 0;
    for (const Json& worker : per_worker->items())
      worker_batches += worker.u64("batches", 0);
    EXPECT_EQ(worker_batches, executed) << flight.dump();
  }
}

TEST(Server, EnsembleSummaryMatchesInProcessStats) {
  QueryParams query = small_ensemble_query();
  query.trials = 12;

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 3;
  RunningServer running(options);
  std::string response;
  std::string error;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  const Json json = Json::parse(response);
  ASSERT_TRUE(json.boolean("ok", false)) << response;
  const Json* summary = json.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(without_execution_record(*summary),
            Json::parse(reference_ensemble_summary(query)).dump());
}

TEST(Server, StatsShutdownAndAdmissionControl) {
  ServerOptions options;
  options.port = 0;
  options.workers = 1;
  options.max_trials_cap = 100;
  RunningServer running(options);

  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(QueryParams{"stats"}),
                  &response, &error))
      << error;
  const Json stats = Json::parse(response);
  EXPECT_TRUE(stats.boolean("ok", false));
  EXPECT_EQ(stats.u64("workers_total", 0), 1u);
  EXPECT_EQ(stats.u64("workers_alive", 0), 1u);
  ASSERT_NE(stats.find("metrics"), nullptr);

  // Over-budget query is rejected at admission, not executed.
  QueryParams over = smoke_query();
  over.trials = 101;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(over), &response, &error));
  EXPECT_FALSE(Json::parse(response).boolean("ok", true)) << response;

  QueryParams shutdown;
  shutdown.req = "shutdown";
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(shutdown), &response, &error));
  EXPECT_TRUE(Json::parse(response).boolean("ok", false));
  // ~RunningServer joins run(); a hung shutdown would hang the test.
}

TEST(Server, ConcurrentQueriesShareTheWorkerPool) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.max_active = 2;
  options.shard = 4;
  RunningServer running(options);

  std::vector<std::string> responses(2);
  std::vector<std::thread> clients;
  for (int i = 0; i < 2; ++i)
    clients.emplace_back([&, i] {
      std::string error;
      rpc(running.endpoint(), encode_query(query), &responses[i], &error);
    });
  for (std::thread& client : clients) client.join();
  for (const std::string& response : responses) {
    ASSERT_FALSE(response.empty());
    EXPECT_TRUE(Json::parse(response).boolean("ok", false)) << response;
    EXPECT_EQ(digest_of(response), digest_of(reference)) << response;
  }
}

// ---------------------------------------------------------------------------
// Distributed observability (S29): the worker's wire sidecar, the daemon's
// roll-up + flight recorder + Prometheus surfaces, and the standing
// invariant that none of it moves a certificate digest.

TEST(Worker, ShipsMetricDeltasAndTraceSidecar) {
  ForkedWorker worker;

  BatchRequest request;
  request.n = 1;
  request.extra = 2;
  request.seed = 7;
  request.first = 0;
  request.count = 4;
  request.window = 1'000'000;
  request.budget = 100'000'000;

  const auto round_trip = [&](std::uint64_t trace_id) {
    request.trace_id = trace_id;
    write_frame(worker.fd, encode_batch_request(request));
    std::string payload;
    EXPECT_TRUE(read_frame(worker.fd, payload));
    return parse_batch_result(Json::parse(payload));
  };

  const auto delta_of = [](const BatchResult& result,
                           std::string_view name) -> double {
    for (const obs::MetricSnapshot& metric : result.metric_deltas)
      if (metric.name == name) return metric.value;
    return -1.0;
  };

  // Untraced batch: metrics still ship (they are free), spans do not.
  const BatchResult untraced = round_trip(0);
  EXPECT_EQ(untraced.worker_pid, static_cast<std::uint64_t>(worker.pid));
  EXPECT_TRUE(untraced.trace.empty());
  EXPECT_EQ(delta_of(untraced, "serve.trials_executed"), 4.0);

  // Traced batch: the sidecar carries this batch's spans with owned names
  // and the query's trace_id as the worker_batch span argument...
  request.first = 4;
  const BatchResult traced = round_trip(99);
  EXPECT_EQ(traced.worker_pid, static_cast<std::uint64_t>(worker.pid));
  ASSERT_FALSE(traced.trace.empty());
  bool saw_batch_span = false;
  for (const obs::CapturedEvent& event : traced.trace)
    if (event.name == "worker_batch") {
      saw_batch_span = true;
      EXPECT_TRUE(event.has_value);
      EXPECT_EQ(event.value, 99.0);
    }
  EXPECT_TRUE(saw_batch_span);
  // ...and the metric delta covers only this batch, not the running total.
  EXPECT_EQ(delta_of(traced, "serve.trials_executed"), 4.0);

  write_frame(worker.fd, encode_exit());
  EXPECT_EQ(worker.exit_status(), 0);
}

TEST(Server, StatsRollUpFlightRecorderAndPrometheusSurfaces) {
  QueryParams query;
  query.req = "ensemble";
  query.n = 1;
  query.extra = 2;
  query.trials = 12;
  query.seed = 5;
  query.window = 1'000'000;
  query.budget = 100'000'000;

  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 3;
  options.prom_port = 0;  // ephemeral /metrics listener
  RunningServer running(options);
  ASSERT_NE(running.server.prom_port(), 0);

  // The test process hosts the daemon, and earlier Server tests already
  // fed the process-global registry — so assert the *delta* this query
  // contributes, not absolute totals.
  const auto counter_value = [&](std::string_view name) {
    QueryParams stats_query{"stats"};
    std::string stats_response;
    std::string stats_error;
    EXPECT_TRUE(rpc(running.endpoint(), encode_query(stats_query),
                    &stats_response, &stats_error))
        << stats_error;
    const Json parsed = Json::parse(stats_response);
    const Json* metrics = parsed.find("metrics");
    EXPECT_NE(metrics, nullptr);
    return metrics == nullptr ? 0 : metrics->u64(name, 0);
  };
  const std::uint64_t shipped_before =
      counter_value("worker.serve.trials_executed");
  const std::uint64_t done_before = counter_value("worker.engine.trials_done");
  const std::uint64_t delivered_before =
      counter_value("serve.trials_delivered");
  const std::uint64_t folded_before = counter_value("serve.trials_folded");

  std::string response;
  std::string error;
  ASSERT_TRUE(
      rpc(running.endpoint(), encode_query(query), &response, &error))
      << error;
  ASSERT_TRUE(Json::parse(response).boolean("ok", false)) << response;

  // Worker metrics rolled up under `worker.` next to the daemon's own:
  // every trial the workers ran is visible fleet-wide, and the admission
  // instruments (queue-depth gauge, wait histogram) saw the query.
  QueryParams stats_query{"stats"};
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error))
      << error;
  const Json stats = Json::parse(response);
  ASSERT_TRUE(stats.boolean("ok", false)) << response;
  const Json* metrics = stats.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->u64("worker.serve.trials_executed", 0) - shipped_before,
            12u);
  EXPECT_EQ(metrics->u64("worker.engine.trials_done", 0) - done_before, 12u);
  EXPECT_EQ(metrics->u64("serve.trials_delivered", 0) - delivered_before,
            12u);
  EXPECT_EQ(metrics->u64("serve.trials_folded", 0) - folded_before, 12u);
  ASSERT_NE(metrics->find("serve.queue_depth"), nullptr);
  const Json* wait = metrics->find("serve.admission_wait_micros");
  ASSERT_NE(wait, nullptr);
  EXPECT_GE(wait->u64("count", 0), 1u);

  // Flight recorder: the ensemble query is the newest record, with its
  // trial roll-up and per-worker latency lines.
  stats_query.recent = 5;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error))
      << error;
  const Json with_recent = Json::parse(response);
  const Json* recent = with_recent.find("recent");
  ASSERT_NE(recent, nullptr) << response;
  ASSERT_GE(recent->items().size(), 1u);
  const Json& record = recent->items()[0];
  EXPECT_EQ(record.str("req", ""), "ensemble");
  EXPECT_EQ(record.str("outcome", ""), "ok");
  EXPECT_EQ(record.u64("trials_executed", 0), 12u);
  // An ensemble reply rests on its whole fleet; the counter rolls up the
  // same number the record holds.
  EXPECT_EQ(record.u64("trials_folded", 0), 12u);
  ASSERT_NE(record.find("workers"), nullptr);
  EXPECT_GE(record.find("workers")->items().size(), 1u);

  // Prometheus, both ways: inline through the protocol...
  stats_query.recent = 0;
  stats_query.format = "prometheus";
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error))
      << error;
  const std::string exposition =
      Json::parse(response).str("prometheus", "");
  EXPECT_NE(exposition.find("# TYPE ppde_worker_serve_trials_executed"),
            std::string::npos);
  EXPECT_NE(exposition.find("ppde_serve_admission_wait_micros_bucket"),
            std::string::npos);
  EXPECT_NE(exposition.find("# TYPE ppde_serve_trials_folded"),
            std::string::npos);

  // ...and scraped over HTTP from the --prom-port listener.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(running.server.prom_port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::string get = "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, get.data(), get.size(), 0),
            static_cast<ssize_t>(get.size()));
  std::string scraped;
  char buffer[4096];
  ssize_t got;
  while ((got = ::recv(fd, buffer, sizeof buffer, 0)) > 0)
    scraped.append(buffer, static_cast<std::size_t>(got));
  ::close(fd);
  EXPECT_NE(scraped.find("200 OK"), std::string::npos);
  EXPECT_NE(scraped.find("ppde_serve_trials_delivered"), std::string::npos);

  // An unknown exposition format is an error, not silence.
  stats_query.format = "xml";
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(stats_query), &response,
                  &error));
  EXPECT_FALSE(Json::parse(response).boolean("ok", true)) << response;
}

TEST(Server, CertifyTrialsCountInTheWorkerRollUp) {
  // Certify batches run the one trial body like ensemble batches, so
  // every trial a worker ships also shows as a finished engine trial in
  // the fleet roll-up.
  ServerOptions options;
  options.port = 0;
  options.workers = 2;
  options.shard = 4;
  RunningServer running(options);
  const auto counter_value = [&](std::string_view name) {
    std::string response;
    std::string error;
    EXPECT_TRUE(rpc(running.endpoint(), encode_query(QueryParams{"stats"}),
                    &response, &error))
        << error;
    const Json parsed = Json::parse(response);
    const Json* metrics = parsed.find("metrics");
    EXPECT_NE(metrics, nullptr);
    return metrics == nullptr ? 0 : metrics->u64(name, 0);
  };
  const std::uint64_t executed_before =
      counter_value("worker.serve.trials_executed");
  const std::uint64_t done_before = counter_value("worker.engine.trials_done");
  const std::uint64_t firings_before = counter_value("worker.engine.firings");

  std::string response;
  std::string error;
  ASSERT_TRUE(rpc(running.endpoint(), encode_query(smoke_query()), &response,
                  &error))
      << error;
  ASSERT_TRUE(Json::parse(response).boolean("ok", false)) << response;

  const std::uint64_t executed =
      counter_value("worker.serve.trials_executed") - executed_before;
  EXPECT_GT(executed, 0u);
  EXPECT_EQ(counter_value("worker.engine.trials_done") - done_before,
            executed);
  EXPECT_GT(counter_value("worker.engine.firings"), firings_before);
}

TEST(Server, TracedFleetStitchesWorkersWithUnchangedDigest) {
  const QueryParams query = smoke_query();
  const std::string reference = smc::to_jsonl(reference_certificate(query));
  ASSERT_NE(digest_of(reference), "");

  for (const unsigned workers : {1u, 2u, 4u}) {
    ServerOptions options;
    options.port = 0;
    options.workers = workers;
    options.shard = 4;
    const std::string path = testing::TempDir() + "serve_stitch_" +
                             std::to_string(workers) + ".json";
    std::string traced;
    {
      // Fork-safety ordering under test: the Server constructor forks the
      // pool, the tracer starts strictly after, run() then announces the
      // worker pids it inherited.
      Server server(options);
      ASSERT_TRUE(obs::Tracer::start(path));
      std::thread thread([&server] { server.run(); });
      std::string error;
      ASSERT_TRUE(rpc("127.0.0.1:" + std::to_string(server.port()),
                      encode_query(query), &traced, &error))
          << error;
      server.request_stop();
      thread.join();
    }
    obs::Tracer::stop();

    // Tracing moved nothing: the certificate digest is byte-identical to
    // the in-process reference at every worker count.
    EXPECT_TRUE(Json::parse(traced).boolean("ok", false)) << traced;
    EXPECT_EQ(digest_of(traced), digest_of(reference))
        << "workers " << workers << ": " << traced;

    // The trace is one stitched timeline: every worker announced as its
    // own track group, worker spans present alongside daemon spans.
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    std::size_t groups = 0;
    for (std::size_t at = text.find("\"ppde worker ");
         at != std::string::npos; at = text.find("\"ppde worker ", at + 1))
      ++groups;
    EXPECT_EQ(groups, workers) << path;
    EXPECT_NE(text.find("\"name\":\"worker_batch\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"query\""), std::string::npos);
    EXPECT_NE(text.find("\"name\":\"merge_fold\""), std::string::npos);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Signals.

TEST(Signals, WatchRunsCallbackOffTheSignalPath) {
  std::atomic<int> delivered{0};
  {
    SignalWatch watch([&](int signo) { delivered.store(signo); });
    // raise() would target this thread, whose mask blocks the signal
    // forever; kill() targets the process, so sigwait picks it up.
    ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
    for (int spin = 0; spin < 2000 && delivered.load() == 0; ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), SIGTERM);
}

TEST(Signals, WatchDestructsCleanlyWithoutASignal) {
  for (int i = 0; i < 3; ++i) {
    SignalWatch watch([](int) {});
  }
}

}  // namespace
}  // namespace ppde::serve
