// perfbench_driver: the C++ half of the repository benchmark
// (perfbench/README.md).
//
// Runs one workload through the library's public entry points — the
// construction pipeline (czerner::build_construction,
// compile::lower_program, compile::machine_to_protocol), smc::certify,
// engine::run_ensemble, pp::Verifier::verify, and an in-process
// serve::Server driven through serve::rpc — checks every output, and
// prints its raw measurements as one JSON object on stdout. run.py builds
// this program, calls it, and turns the raw measurements into metrics.
//
//   perfbench_driver setup <workload>
//       One set-up, timed in this (fresh) process: construct, lower and
//       convert; on serve-certify also the daemon fork/bind and the
//       warm-up query.
//   perfbench_driver references <units>
//       The in-process certificates serve-certify's replies must match,
//       for <units> units of queries.
//   perfbench_driver run <workload> <seed> <units> [--trace <file>]
//                    [--references <file>]
//       The measured phase: <units> repetitions of the workload's unit,
//       untraced. With --trace, one more unit runs under obs::Tracer
//       afterwards and its trace is written to <file>. serve-certify needs
//       --references, a file holding the output of `references <units>`.
//
// Every busy phase uses at most two threads or two worker processes, so a
// run leaves headroom on a shared host.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bignum/nat.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "isa/compiled.hpp"
#include "machine/interp.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pp/verifier.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/wire.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"

namespace {

using namespace ppde;
using Clock = std::chrono::steady_clock;

constexpr unsigned kThreads = 2;

// certify-pop16: `ppde certify 1 2` with the CLI defaults and its default
// seed. The statement is the same in every run because the SPRT's stopping
// time depends on the trial seed (seeds 1-4 fold 89, 125, 160 and 89
// trials), which would put input variation into every timing. Every trial
// of this seed succeeds, so the SPRT stops at its minimum: 89 folded trials
// (89 * ln(0.99/0.94) first exceeds ln(0.99/0.01)), run as 12 rounds of 8.
constexpr std::uint32_t kCertifyExtra = 2;
constexpr std::uint64_t kCertifySeed = 42;
constexpr std::uint64_t kCertifyTrials = 89;
constexpr std::uint64_t kCertifyDigest = 0xc8d635ad41c0b899;
constexpr std::uint64_t kCertifyFirings = 44000486;
constexpr std::uint64_t kCertifyMeetings = 9421244691;

// ensemble-pop100k: m = |F| + 100000, 32 trials, master seed = workload
// seed. Σ firings moves by ~0.01 % between seeds.
constexpr std::uint32_t kEnsembleExtra = 100000;
constexpr std::uint64_t kEnsembleTrials = 32;

// verify-mregs7: `ppde verify 1 7` (no broadcast, witness mode, the CLI's
// 8M-configuration budget). The input has no random component.
constexpr std::uint64_t kVerifyRegs = 7;
constexpr std::uint64_t kVerifyConfigs = 2431108;
constexpr std::uint64_t kVerifyEdges = 2576804;

// serve-certify: distinct certify queries with the EXPERIMENTS S23
// settings, query seeds 1..kServeUnitQueries * units, so no query repeats
// and the set depends only on the unit count. The workload seed shuffles
// the order in which they are sent and how they are split over the
// clients, so every seed does the same work. run.py asks for enough units
// that the query latency p90 has at least ten samples beyond it.
constexpr std::uint64_t kServeUnitQueries = 20;
constexpr unsigned kServeClients = 2;
// The warm-up query has a shorter window than the measured ones, so it
// never equals one of them.
constexpr std::uint64_t kServeWarmupSeed = 0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

// -- forked serve workers, observed through /proc ---------------------------

std::vector<int> child_pids() {
  std::ifstream in("/proc/self/task/" + std::to_string(::getpid()) +
                   "/children");
  std::vector<int> pids;
  for (int pid = 0; in >> pid;) pids.push_back(pid);
  return pids;
}

/// User + system CPU seconds of a child process so far.
double child_cpu_seconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(in, line);
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  // Fields after "pid (comm)": state is field 3, utime 14, stime 15.
  std::istringstream rest(line.substr(close + 2));
  std::string skipped;
  for (int field = 3; field <= 13; ++field) rest >> skipped;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  rest >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double child_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

double children_cpu_seconds(const std::vector<int>& pids) {
  double total = 0.0;
  for (int pid : pids) total += child_cpu_seconds(pid);
  return total;
}

// -- set-up ------------------------------------------------------------------

/// Construct, lower and convert the n = 1 construction. The conversion
/// keeps a pointer to the lowered machine, so a Pipeline never moves.
struct Pipeline {
  explicit Pipeline(bool with_broadcast) {
    const Clock::time_point lower_start = Clock::now();
    {
      obs::ObsSpan span("construct", "perfbench");
      construction = czerner::build_construction(1);
    }
    {
      obs::ObsSpan span("lower", "perfbench");
      lowered = compile::lower_program(construction.program);
    }
    lower_s = seconds_since(lower_start);
    const Clock::time_point convert_start = Clock::now();
    {
      obs::ObsSpan span("convert", "perfbench");
      compile::ConversionOptions options;
      options.with_broadcast = with_broadcast;
      conversion.emplace(
          compile::machine_to_protocol(lowered.machine, options));
    }
    convert_s = seconds_since(convert_start);
  }
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  const pp::Protocol& protocol() const { return conversion->protocol; }
  pp::Config population(std::uint32_t extra) const {
    return conversion->initial_config(conversion->num_pointers + extra);
  }

  czerner::Construction construction;
  compile::LoweredMachine lowered;
  std::optional<compile::ProtocolConversion> conversion;
  double lower_s = 0.0;
  double convert_s = 0.0;
};

std::uint64_t table_bytes(const isa::CompiledProtocol& compiled) {
  const isa::CompiledProtocol::RawTables& t = compiled.raw();
  const auto bytes = [](const auto& v) {
    return v.size() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(t.dense) + bytes(t.ph_disp) + bytes(t.ph_key) +
         bytes(t.ph_entry) + bytes(t.out_begin) + bytes(t.out_flat) +
         bytes(t.in_begin) + bytes(t.in_flat) + bytes(t.self_active) +
         bytes(t.cand_begin) + bytes(t.cand_flat) + bytes(t.cells) +
         bytes(t.active_bits) + bytes(t.any_bits);
}

void write_pipeline(smc::JsonWriter& out, const Pipeline& pipeline) {
  out.field("lower_s", pipeline.lower_s);
  out.field("convert_s", pipeline.convert_s);
  out.field("transitions",
            static_cast<std::uint64_t>(pipeline.protocol().num_transitions()));
  out.field("table_bytes", table_bytes(pipeline.protocol().compiled()));
}

// -- report ------------------------------------------------------------------

struct Op {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::string failure;  ///< empty when the operation and its checks passed
};

std::string ops_json(const std::vector<Op>& ops) {
  std::string out = "[";
  for (const Op& op : ops) {
    if (out.size() > 1) out += ",";
    smc::JsonWriter json;
    json.field("wall_s", op.wall_s);
    json.field("cpu_s", op.cpu_s);
    json.field("failure", std::string_view(op.failure));
    out += json.finish();
  }
  return out + "]";
}

/// Times one operation; `body` returns the failure text ("" = passed).
template <class Body>
Op timed_op(Body&& body) {
  Op op;
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  try {
    op.failure = body();
  } catch (const std::exception& error) {
    op.failure = std::string("exception: ") + error.what();
  }
  op.wall_s = seconds_since(start);
  op.cpu_s = cpu_seconds() - cpu_start;
  return op;
}

/// Measured phase + optional traced unit of one workload.
struct Run {
  std::vector<Op> ops;
  double measured_wall_s = 0.0;
  double measured_cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  smc::JsonWriter facts;  ///< checked outputs of the measured phase
  smc::JsonWriter loop;   ///< serve-certify: daemon-side loop readings
  std::vector<Op> traced_ops;
  smc::JsonWriter traced;  ///< raw inputs of the per-layer metrics

  std::string finish() {
    smc::JsonWriter out;
    out.raw_field("ops", ops_json(ops));
    out.field("measured_wall_s", measured_wall_s);
    out.field("measured_cpu_s", measured_cpu_s);
    out.field("peak_rss_mb", peak_rss_mb);
    out.raw_field("facts", facts.finish());
    out.raw_field("loop", loop.finish());
    out.raw_field("traced_ops", ops_json(traced_ops));
    out.raw_field("traced", traced.finish());
    return out.finish();
  }
};

/// Start the tracer for the traced unit; false if it cannot.
bool start_tracer(const std::string& path) {
  obs::TracerOptions options;
  options.ring_capacity = 1u << 16;
  return obs::Tracer::start(path, options);
}

/// Wall seconds of five isa compiles of `protocol` (run.py takes the
/// median).
void time_isa_compile(smc::JsonWriter& out, const pp::Protocol& protocol) {
  std::string samples = "[";
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    {
      obs::ObsSpan span("isa_compile", "perfbench");
      const auto compiled = isa::CompiledProtocol::compile(protocol);
      if (compiled->num_states() != protocol.num_states())
        throw std::runtime_error("isa compile lost states");
    }
    if (i > 0) samples += ",";
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.9f", seconds_since(start));
    samples += buffer;
  }
  out.raw_field("isa_compile_s", samples + "]");
}

// -- certify-pop16 -----------------------------------------------------------

smc::CertifyOptions certify_options() {
  smc::CertifyOptions options;  // CLI defaults: delta 0.01, eps 0.05, ...
  options.threads = kThreads;
  options.seed = kCertifySeed;
  options.sim.stable_window = 90'000'000;
  options.sim.max_interactions = 2'000'000'000;
  return options;
}

std::string check_certificate(const smc::Certificate& cert) {
  const std::uint64_t digest = smc::certificate_digest(cert);
  if (cert.verdict != smc::Verdict::kCertified)
    return std::string("verdict ") + smc::to_string(cert.verdict);
  if (cert.trials != kCertifyTrials || cert.successes != kCertifyTrials)
    return "folded " + std::to_string(cert.trials) + " trials, " +
           std::to_string(cert.successes) + " successes";
  if (digest != kCertifyDigest) return "digest " + hex(digest);
  if (cert.total_firings != kCertifyFirings ||
      cert.total_meetings != kCertifyMeetings)
    return "firings " + std::to_string(cert.total_firings) + ", meetings " +
           std::to_string(cert.total_meetings);
  return "";
}

void certify_pop16(unsigned units, const std::string& trace_file, Run& run) {
  const Pipeline pipeline(/*with_broadcast=*/true);
  const pp::Config initial = pipeline.population(kCertifyExtra);
  const bool expected =
      bignum::Nat(kCertifyExtra) >= czerner::Construction::threshold(1);
  const smc::CertifyOptions options = certify_options();

  const auto unit = [&](const Pipeline& with, smc::Certificate& cert) {
    return timed_op([&] {
      obs::ObsSpan span("certify", "perfbench");
      cert = smc::certify(with.protocol(), initial, expected, options);
      return check_certificate(cert);
    });
  };
  smc::Certificate cert;
  for (unsigned i = 0; i < units; ++i) run.ops.push_back(unit(pipeline, cert));
  run.facts.field("verdict", std::string_view(smc::to_string(cert.verdict)));
  run.facts.field("trials", cert.trials);
  run.facts.hex_field("digest", smc::certificate_digest(cert));
  run.facts.field("firings", cert.total_firings);
  run.facts.field("meetings", cert.total_meetings);
  if (trace_file.empty()) return;

  run.peak_rss_mb = peak_rss_mb();
  if (!start_tracer(trace_file)) throw std::runtime_error("tracer start");
  {
    const Pipeline traced(/*with_broadcast=*/true);
    time_isa_compile(run.traced, traced.protocol());
    run.traced_ops.push_back(unit(traced, cert));
  }
  obs::Tracer::stop();
  run.traced.field("trials_folded", cert.trials);
  run.traced.field("firings", cert.total_firings);
  run.traced.field("meetings", cert.total_meetings);
  run.traced.field("threads", static_cast<std::uint64_t>(cert.threads_used));
}

// -- ensemble-pop100k --------------------------------------------------------

std::string ensemble_facts(const engine::EnsembleStats& stats) {
  smc::JsonWriter facts;
  facts.field("trials", stats.trials);
  facts.field("stabilised", stats.stabilised);
  facts.field("accepted", stats.accepted);
  facts.field("firings", stats.totals.firings);
  facts.field("meetings", stats.totals.meetings);
  facts.field("skip_batches", stats.totals.null_skip_batches);
  return facts.finish();
}

void ensemble_pop100k(std::uint64_t seed, unsigned units,
                      const std::string& trace_file, Run& run) {
  const Pipeline pipeline(/*with_broadcast=*/true);
  const pp::Config initial = pipeline.population(kEnsembleExtra);
  engine::EnsembleOptions options;
  options.trials = kEnsembleTrials;
  options.threads = kThreads;
  options.master_seed = seed;
  options.engine = engine::EngineKind::kCountNullSkip;
  options.sim.stable_window = 90'000'000;
  options.sim.max_interactions = 2'000'000'000;

  // Every repetition (and the traced unit) must reproduce the first
  // repetition's statistics exactly.
  std::string reference;
  engine::EnsembleStats stats;
  const auto unit = [&](const Pipeline& with) {
    return timed_op([&]() -> std::string {
      obs::ObsSpan span("run_ensemble", "perfbench");
      stats = engine::run_ensemble(with.protocol(), initial, options);
      if (stats.stabilised != kEnsembleTrials)
        return "stabilised " + std::to_string(stats.stabilised) + " of " +
               std::to_string(stats.trials);
      const std::string facts = ensemble_facts(stats);
      if (reference.empty()) reference = facts;
      if (facts != reference) return "statistics differ: " + facts;
      return "";
    });
  };
  for (unsigned i = 0; i < units; ++i) run.ops.push_back(unit(pipeline));
  run.facts.raw_field("stats", reference.empty() ? "null" : reference);
  if (trace_file.empty()) return;

  run.peak_rss_mb = peak_rss_mb();
  if (!start_tracer(trace_file)) throw std::runtime_error("tracer start");
  {
    const Pipeline traced(/*with_broadcast=*/true);
    time_isa_compile(run.traced, traced.protocol());
    run.traced_ops.push_back(unit(traced));
  }
  obs::Tracer::stop();
  run.traced.raw_field("stats", ensemble_facts(stats));
  run.traced.field("threads", static_cast<std::uint64_t>(stats.threads_used));
}

// -- verify-mregs7 -----------------------------------------------------------

void verify_mregs7(unsigned units, const std::string& trace_file, Run& run) {
  const Pipeline pipeline(/*with_broadcast=*/false);
  std::vector<std::uint64_t> regs(pipeline.construction.num_registers(), 0);
  regs[pipeline.construction.R()] = kVerifyRegs;
  const pp::Config initial = pipeline.conversion->pi(
      machine::initial_state(pipeline.lowered.machine, regs), false);
  pp::VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = 8'000'000;
  options.threads = kThreads;

  pp::VerificationResult result;
  const auto unit = [&](const Pipeline& with) {
    return timed_op([&]() -> std::string {
      obs::ObsSpan span("verify", "perfbench");
      result = pp::Verifier(with.protocol()).verify(initial, options);
      if (result.verdict !=
          pp::VerificationResult::Verdict::kStabilisesTrue)
        return "verdict " + pp::to_string(result.verdict);
      if (result.explored_configs != kVerifyConfigs ||
          result.explored_edges != kVerifyEdges)
        return "explored " + std::to_string(result.explored_configs) +
               " configs, " + std::to_string(result.explored_edges) +
               " edges";
      return "";
    });
  };
  for (unsigned i = 0; i < units; ++i) run.ops.push_back(unit(pipeline));
  run.facts.field("verdict", std::string_view(pp::to_string(result.verdict)));
  run.facts.field("configs", result.explored_configs);
  run.facts.field("edges", result.explored_edges);
  if (trace_file.empty()) return;

  run.peak_rss_mb = peak_rss_mb();
  if (!start_tracer(trace_file)) throw std::runtime_error("tracer start");
  {
    const Pipeline traced(/*with_broadcast=*/false);
    time_isa_compile(run.traced, traced.protocol());
    run.traced_ops.push_back(unit(traced));
  }
  obs::Tracer::stop();
  run.traced.field("configs", result.explored_configs);
  run.traced.field("edges", result.explored_edges);
  run.traced.field(
      "interner_bytes",
      obs::Registry::global().gauge("verify.interner_bytes").value());
}

// -- serve-certify -----------------------------------------------------------

serve::QueryParams serve_query(std::uint64_t seed) {
  serve::QueryParams query;
  query.req = "certify";
  query.n = 1;
  query.extra = kCertifyExtra;
  query.trials = 64;
  query.seed = seed;
  query.delta = 0.1;
  query.indifference = 0.8;
  query.window = 20'000'000;
  query.shard = 4;
  return query;
}

/// An in-process daemon serving on an ephemeral port until destroyed.
class Daemon {
 public:
  Daemon() : server_(options()), thread_([this] { server_.run(); }) {}
  ~Daemon() {
    server_.request_stop();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_.port());
  }

  /// One RPC; throws on a transport failure.
  std::string call(const serve::QueryParams& query) const {
    std::string response;
    std::string error;
    if (!serve::rpc(endpoint(), serve::encode_query(query), &response,
                    &error))
      throw std::runtime_error("rpc: " + error);
    return response;
  }

 private:
  static serve::ServerOptions options() {
    serve::ServerOptions options;
    options.workers = kThreads;
    options.max_active = kThreads;
    return options;
  }

  serve::Server server_;
  std::thread thread_;
};

/// Daemon fork/bind plus the warm-up query that fills the daemon's and
/// the workers' protocol caches.
std::unique_ptr<Daemon> start_daemon() {
  auto daemon = std::make_unique<Daemon>();
  obs::ObsSpan span("warmup", "perfbench");
  // Two shards of short trials: one batch reaches each worker, and the
  // work beyond building the protocols is small.
  serve::QueryParams warmup = serve_query(kServeWarmupSeed);
  warmup.trials = 2 * warmup.shard;
  warmup.window = 1'000'000;
  const serve::Json reply = serve::Json::parse(daemon->call(warmup));
  if (!reply.boolean("ok", false))
    throw std::runtime_error("warm-up query failed: " + reply.dump());
  return daemon;
}

struct Reference {
  std::string verdict;
  std::string digest;
};

/// "" when `response` is an ok certificate matching `reference`.
std::string check_reply(const std::string& response,
                        const Reference& reference,
                        std::uint64_t* folded) {
  const serve::Json reply = serve::Json::parse(response);
  if (!reply.boolean("ok", false)) return "reply " + response;
  const serve::Json* cert = reply.find("certificate");
  if (cert == nullptr) return "reply without certificate";
  const std::string verdict = cert->str("verdict", "");
  const std::string digest = cert->str("digest", "");
  if (verdict != reference.verdict || digest != reference.digest)
    return verdict + " " + digest + " differs from in-process " +
           reference.verdict + " " + reference.digest;
  *folded += cert->u64("trials", 0);
  return "";
}

/// The closed loop: each client sends its share of `sequence` (indices
/// into `references`; index q is query seed q + 1) one query at a time,
/// waiting for every reply. Returns one Op per query (its client-observed
/// latency) in sequence order.
std::vector<Op> query_loop(const Daemon& daemon,
                           const std::vector<std::uint64_t>& sequence,
                           const std::vector<Reference>& references,
                           std::uint64_t* folded) {
  const std::string endpoint = daemon.endpoint();
  std::vector<std::string> requests;
  for (std::uint64_t index : sequence)
    requests.push_back(serve::encode_query(serve_query(index + 1)));
  std::vector<Op> ops(sequence.size());
  std::vector<std::string> responses(sequence.size());
  const std::size_t share = sequence.size() / kServeClients;
  std::vector<std::thread> clients;
  for (unsigned c = 0; c < kServeClients; ++c)
    clients.emplace_back([&, c] {
      const std::size_t end =
          c + 1 == kServeClients ? sequence.size() : (c + 1) * share;
      for (std::size_t i = c * share; i < end; ++i) {
        std::string error;
        const Clock::time_point start = Clock::now();
        bool sent = false;
        {
          obs::ObsSpan span("rpc", "perfbench");
          sent = serve::rpc(endpoint, requests[i], &responses[i], &error);
        }
        ops[i].wall_s = seconds_since(start);
        if (!sent) ops[i].failure = "rpc: " + error;
      }
    });
  for (std::thread& client : clients) client.join();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!ops[i].failure.empty()) continue;
    try {
      ops[i].failure =
          check_reply(responses[i], references[sequence[i]], folded);
    } catch (const std::exception& error) {
      ops[i].failure = std::string("bad reply: ") + error.what();
    }
  }
  return ops;
}

/// The references of serve-certify: in-process smc::certify of every query
/// of `units` units (the S25 invariant: the daemon's certificate is
/// byte-identical), as a JSON array indexed by query seed - 1. They depend
/// only on the build and the unit count, so run.py computes them once per
/// build, outside any timed phase, and passes them to every run.
std::string serve_references(unsigned units) {
  const Pipeline pipeline(/*with_broadcast=*/true);
  const pp::Config initial = pipeline.population(kCertifyExtra);
  const bool expected =
      bignum::Nat(kCertifyExtra) >= czerner::Construction::threshold(1);
  std::string out = "[";
  for (std::uint64_t q = 0; q < kServeUnitQueries * units; ++q) {
    smc::CertifyOptions options = serve::certify_options_of(serve_query(q + 1));
    options.threads = kThreads;
    options.batch = 4;
    const smc::Certificate cert =
        smc::certify(pipeline.protocol(), initial, expected, options);
    smc::JsonWriter json;
    json.field("seed", q + 1);
    json.field("verdict", std::string_view(smc::to_string(cert.verdict)));
    json.field("digest", std::string_view(hex(smc::certificate_digest(cert))));
    out += (q > 0 ? "," : "") + json.finish();
  }
  return out + "]";
}

/// The references of `queries` queries from a file serve_references wrote.
std::vector<Reference> read_references(const std::string& path,
                                       std::uint64_t queries) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read references " + path);
  std::stringstream text;
  text << in.rdbuf();
  const serve::Json parsed = serve::Json::parse(text.str());
  std::vector<Reference> references;
  for (const serve::Json& item : parsed.items()) {
    if (item.u64("seed", 0) != references.size() + 1)
      throw std::runtime_error("references out of order in " + path);
    references.push_back({item.str("verdict", ""), item.str("digest", "")});
  }
  if (references.size() != queries)
    throw std::runtime_error(path + " holds " +
                             std::to_string(references.size()) +
                             " references, not " + std::to_string(queries));
  return references;
}

void serve_certify(std::uint64_t seed, unsigned units,
                   const std::string& trace_file,
                   const std::string& references_file, Run& run) {
  const std::uint64_t queries = kServeUnitQueries * units;
  const std::vector<Reference> references =
      read_references(references_file, queries);

  // The query sequence: every query once, shuffled by the workload seed
  // (Fisher-Yates over the SplitMix64 stream).
  std::vector<std::uint64_t> sequence(queries);
  for (std::uint64_t q = 0; q < queries; ++q) sequence[q] = q;
  for (std::size_t i = sequence.size() - 1; i > 0; --i)
    std::swap(sequence[i],
              sequence[engine::derive_trial_seed(seed, i) % (i + 1)]);
  std::string order = "[";
  for (std::uint64_t q : sequence)
    order += (order.size() > 1 ? "," : "") + std::to_string(q + 1);
  run.facts.raw_field("query_seeds", order + "]");

  const auto loop = [&](const Daemon& daemon, std::vector<Op>& ops,
                        smc::JsonWriter& out) {
    const std::vector<int> workers = child_pids();
    out.field("workers", static_cast<std::uint64_t>(workers.size()));
    out.raw_field("stats_before", daemon.call(serve::QueryParams{"stats"}));
    const double cpu_start = cpu_seconds() + children_cpu_seconds(workers);
    const Clock::time_point start = Clock::now();
    std::uint64_t folded = 0;
    std::vector<Op> queries = query_loop(daemon, sequence, references, &folded);
    const double wall = seconds_since(start);
    const double cpu =
        cpu_seconds() + children_cpu_seconds(workers) - cpu_start;
    out.raw_field("stats_after", daemon.call(serve::QueryParams{"stats"}));
    out.field("loop_wall_s", wall);
    out.field("loop_cpu_s", cpu);
    out.field("trials_folded", folded);
    double worker_rss = 0.0;
    for (int pid : workers)
      worker_rss = std::max(worker_rss, child_peak_rss_mb(pid));
    out.field("worker_peak_rss_mb", worker_rss);
    ops.insert(ops.end(), queries.begin(), queries.end());
    return std::pair{wall, cpu};
  };

  {
    const std::unique_ptr<Daemon> daemon = start_daemon();
    const auto [wall, cpu] = loop(*daemon, run.ops, run.loop);
    run.measured_wall_s = wall;
    run.measured_cpu_s = cpu;
  }
  if (trace_file.empty()) return;

  run.peak_rss_mb = peak_rss_mb();
  if (!start_tracer(trace_file)) throw std::runtime_error("tracer start");
  {
    const Pipeline traced(/*with_broadcast=*/true);
    time_isa_compile(run.traced, traced.protocol());
    const std::unique_ptr<Daemon> daemon = start_daemon();
    obs::ObsSpan span("query_loop", "perfbench");
    loop(*daemon, run.traced_ops, run.traced);
  }
  obs::Tracer::stop();
}

// -- entry points --------------------------------------------------------------

/// One fresh set-up, timed: what a user pays before the first query.
std::string setup_once(const std::string& workload) {
  smc::JsonWriter out;
  const Clock::time_point start = Clock::now();
  const Pipeline pipeline(/*with_broadcast=*/workload != "verify-mregs7");
  std::unique_ptr<Daemon> daemon;
  if (workload == "serve-certify") daemon = start_daemon();
  out.field("setup_s", seconds_since(start));
  write_pipeline(out, pipeline);
  return out.finish();
}

std::string run_workload(const std::string& workload, std::uint64_t seed,
                         unsigned units, const std::string& trace_file,
                         const std::string& references_file) {
  Run run;
  if (workload == "certify-pop16")
    certify_pop16(units, trace_file, run);
  else if (workload == "ensemble-pop100k")
    ensemble_pop100k(seed, units, trace_file, run);
  else if (workload == "verify-mregs7")
    verify_mregs7(units, trace_file, run);
  else if (workload == "serve-certify")
    serve_certify(seed, units, trace_file, references_file, run);
  else
    throw std::invalid_argument("unknown workload " + workload);
  if (workload != "serve-certify") {
    for (const Op& op : run.ops) {
      run.measured_wall_s += op.wall_s;
      run.measured_cpu_s += op.cpu_s;
    }
  }
  if (trace_file.empty()) run.peak_rss_mb = peak_rss_mb();
  return run.finish();
}

unsigned units_of(const std::string& text) {
  const unsigned units =
      static_cast<unsigned>(std::strtoul(text.c_str(), nullptr, 10));
  if (units == 0) throw std::invalid_argument("units must be positive");
  return units;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 2 && args[0] == "setup") {
      std::printf("%s\n", setup_once(args[1]).c_str());
      return 0;
    }
    if (args.size() == 2 && args[0] == "references") {
      std::printf("%s\n", serve_references(units_of(args[1])).c_str());
      return 0;
    }
    if (args.size() >= 4 && args.size() % 2 == 0 && args[0] == "run") {
      std::string trace_file;
      std::string references_file;
      for (std::size_t i = 4; i < args.size(); i += 2) {
        if (args[i] == "--trace")
          trace_file = args[i + 1];
        else if (args[i] == "--references")
          references_file = args[i + 1];
        else
          throw std::invalid_argument("unknown option " + args[i]);
      }
      const std::uint64_t seed = std::strtoull(args[2].c_str(), nullptr, 10);
      std::printf("%s\n", run_workload(args[1], seed, units_of(args[3]),
                                       trace_file, references_file)
                              .c_str());
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: perfbench_driver setup <workload>\n"
               "       perfbench_driver references <units>\n"
               "       perfbench_driver run <workload> <seed> <units> "
               "[--trace <file>] [--references <file>]\n");
  return 2;
}
