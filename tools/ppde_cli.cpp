// ppde — command-line front end for the library.
//
// Run `ppde help` for the verb list and `ppde help <verb>` for the full
// flag reference of one verb. Every verb additionally accepts the global
// observability flags (S24):
//
//   --trace=FILE       record a Chrome trace-event file (open in Perfetto
//                      or about:tracing); `obs_trace_v` = 1
//   --progress[=SECS]  print a liveness heartbeat to stderr every SECS
//                      seconds (default 5; =0 disables). Auto-enabled at
//                      10s when stderr is a TTY, for the long-running
//                      verbs (ensemble, certify, verify).
//
// Exit code: 0 on success (for verify/decide: also when the verdict was
// computed, regardless of accept/reject), 1 on usage or resource errors.
#include <algorithm>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#if defined(_WIN32)
#include <io.h>
#define PPDE_ISATTY(fd) _isatty(fd)
#else
#include <unistd.h>
#define PPDE_ISATTY(fd) isatty(fd)
#endif

#include "bignum/nat.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "machine/interp.hpp"
#include "obs/progress.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "pp/simulator.hpp"
#include "pp/verifier.hpp"
#include "progmodel/explore.hpp"
#include "progmodel/flat.hpp"
#include "progmodel/sample_programs.hpp"
#include "sched/scenario.hpp"
#include "serve/client.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "serve/signals.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "smc/certify.hpp"
#include "smc/json.hpp"

namespace {

using namespace ppde;

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 0; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

/// Value of `--flag=<text>` if present, else nullptr.
const char* flag_cstr(int argc, char** argv, const char* flag) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 0; i < argc; ++i)
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=')
      return argv[i] + flag_len + 1;
  return nullptr;
}

/// The whole of `text` as a decimal integer in [0, max]. Throws
/// std::invalid_argument naming `what` (a flag or positional argument) on
/// an empty value, a sign, any other non-digit, or a value above `max` —
/// so `--budget=4e11` is an error, not a budget of 4.
std::uint64_t parse_unsigned(const char* text, const char* what,
                             std::uint64_t max = UINT64_MAX) {
  const char* end = text + std::strlen(text);
  std::uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error == std::errc::result_out_of_range ||
      (error == std::errc{} && stop == end && value > max))
    throw std::invalid_argument(std::string(what) + ": '" + text +
                                "' is out of range (max " +
                                std::to_string(max) + ")");
  if (error != std::errc{} || stop != end)
    throw std::invalid_argument(std::string(what) + ": '" + text +
                                "' is not an unsigned decimal integer");
  return value;
}

/// The whole of `text` as a finite decimal number; throws
/// std::invalid_argument naming `what` otherwise.
double parse_double(const char* text, const char* what) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc{} || stop != end || !std::isfinite(value))
    throw std::invalid_argument(std::string(what) + ": '" + text +
                                "' is not a finite number");
  return value;
}

/// Value of `--flag=<integer in [0, max]>` if present, else `fallback`.
std::uint64_t flag_value(int argc, char** argv, const char* flag,
                         std::uint64_t fallback,
                         std::uint64_t max = UINT64_MAX) {
  const char* text = flag_cstr(argc, argv, flag);
  return text != nullptr ? parse_unsigned(text, flag, max) : fallback;
}

/// Value of `--flag=<finite double>` if present, else `fallback`.
double flag_double(int argc, char** argv, const char* flag, double fallback) {
  const char* text = flag_cstr(argc, argv, flag);
  return text != nullptr ? parse_double(text, flag) : fallback;
}

constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();
constexpr std::uint64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kMaxPort = std::numeric_limits<std::uint16_t>::max();

/// Stress scenario (S27) selected by `--scheduler=...` and `--fault=...`;
/// both default to the classic uniform, fault-free model. Throws
/// std::invalid_argument (with the offending descriptor) on a malformed
/// value.
sched::Scenario flag_scenario(int argc, char** argv) {
  sched::Scenario scenario;
  if (const char* text = flag_cstr(argc, argv, "--scheduler"))
    scenario.scheduler = sched::parse_scheduler(text);
  if (const char* text = flag_cstr(argc, argv, "--fault"))
    scenario.fault = sched::parse_fault(text);
  return scenario;
}

czerner::Construction build(int n, bool equality) {
  return equality ? czerner::build_equality_construction(n)
                  : czerner::build_construction(n);
}

// ---------------------------------------------------------------------------
// Observability plumbing (S24): tracer lifetime + the progress heartbeat.

/// Tracer options from the global flags: --trace-max-mb=N caps the trace
/// file (S29; events past the cap are counted in `obs.trace_truncated`
/// instead of written, and the file stays one valid JSON array).
obs::TracerOptions flag_tracer_options(int argc, char** argv) {
  obs::TracerOptions options;
  options.max_file_bytes =
      flag_value(argc, argv, "--trace-max-mb", 0, UINT64_MAX >> 20) * 1024 *
      1024;
  return options;
}

/// Starts the tracer if --trace=FILE was given; stops it on scope exit.
/// Declared before the progress monitor in main() so the monitor (whose
/// final tick may emit trace counters) is destroyed first, and so every
/// instrumented worker pool has drained before stop() runs.
struct TracerGuard {
  bool active = false;

  explicit TracerGuard(const char* path,
                       const obs::TracerOptions& options = {}) {
    if (path == nullptr || *path == '\0') return;
    active = obs::Tracer::start(path, options);
    if (!active)
      std::fprintf(stderr, "ppde: warning: cannot open trace file '%s'\n",
                   path);
  }
  ~TracerGuard() {
    if (active) obs::Tracer::stop();
  }
};

/// Heartbeat period in seconds for this invocation: --progress=S wins
/// (S=0 disables), bare --progress means 5s, and a TTY on stderr turns
/// the heartbeat on automatically at 10s so interactive long runs are
/// never silent.
double progress_period(int argc, char** argv) {
  const char* text = flag_cstr(argc, argv, "--progress");
  if (text != nullptr) return parse_double(text, "--progress");
  if (has_flag(argc, argv, "--progress")) return 5.0;
  return PPDE_ISATTY(2) ? 10.0 : 0.0;
}

/// Rate estimator for heartbeat lines: change in a monotone quantity per
/// second of wall time between consecutive ticks.
class RateMeter {
 public:
  double rate(double value) {
    const auto now = std::chrono::steady_clock::now();
    double rate = 0.0;
    if (primed_) {
      const double dt = std::chrono::duration<double>(now - last_at_).count();
      if (dt > 0.0) rate = (value - last_value_) / dt;
    }
    last_value_ = value;
    last_at_ = now;
    primed_ = true;
    return rate;
  }

 private:
  double last_value_ = 0.0;
  std::chrono::steady_clock::time_point last_at_;
  bool primed_ = false;
};

std::string format_si(double value) {
  char buffer[32];
  if (value >= 1e9)
    std::snprintf(buffer, sizeof buffer, "%.2fG", value / 1e9);
  else if (value >= 1e6)
    std::snprintf(buffer, sizeof buffer, "%.2fM", value / 1e6);
  else if (value >= 1e4)
    std::snprintf(buffer, sizeof buffer, "%.1fk", value / 1e3);
  else
    std::snprintf(buffer, sizeof buffer, "%.0f", value);
  return buffer;
}

std::string format_bytes(double bytes) {
  char buffer[32];
  if (bytes >= 1024.0 * 1024.0 * 1024.0)
    std::snprintf(buffer, sizeof buffer, "%.2fGiB",
                  bytes / (1024.0 * 1024.0 * 1024.0));
  else if (bytes >= 1024.0 * 1024.0)
    std::snprintf(buffer, sizeof buffer, "%.1fMiB", bytes / (1024.0 * 1024.0));
  else
    std::snprintf(buffer, sizeof buffer, "%.0fKiB", bytes / 1024.0);
  return buffer;
}

std::string format_eta(double seconds) {
  char buffer[32];
  if (!std::isfinite(seconds) || seconds < 0.0)
    std::snprintf(buffer, sizeof buffer, "?");
  else if (seconds < 90.0)
    std::snprintf(buffer, sizeof buffer, "%.0fs", seconds);
  else if (seconds < 5400.0)
    std::snprintf(buffer, sizeof buffer, "%.1fm", seconds / 60.0);
  else
    std::snprintf(buffer, sizeof buffer, "%.1fh", seconds / 3600.0);
  return buffer;
}

/// Heartbeat line for `ensemble`: trials done / total, trial rate, ETA,
/// cumulative meetings. Reads only registry metrics published by
/// engine::TrialExecutor::run, so it observes without perturbing.
std::function<std::string()> ensemble_heartbeat() {
  return [meter = RateMeter()]() mutable -> std::string {
    obs::Registry& registry = obs::Registry::global();
    const double done =
        static_cast<double>(registry.counter("engine.trials_done").value());
    const double total = registry.gauge("engine.trials_total").value();
    const double rate = meter.rate(done);
    if (done <= 0.0) return "[ensemble] starting...";
    const double eta =
        rate > 0.0 && total > done ? (total - done) / rate : NAN;
    const double meetings =
        static_cast<double>(registry.counter("engine.meetings").value());
    char line[160];
    std::snprintf(line, sizeof line,
                  "[ensemble] %.0f/%.0f trials  %.1f trials/s  eta %s  "
                  "%s meetings",
                  done, total, rate, format_eta(eta).c_str(),
                  format_si(meetings).c_str());
    return line;
  };
}

/// Heartbeat line for `certify`: SPRT position (trials consumed, llr
/// between the accept/reject thresholds), successes, trial rate.
std::function<std::string()> certify_heartbeat() {
  return [meter = RateMeter()]() mutable -> std::string {
    obs::Registry& registry = obs::Registry::global();
    const double trials = registry.gauge("smc.trials").value();
    const double rate = meter.rate(trials);
    if (trials <= 0.0) return "[certify] starting...";
    char line[200];
    std::snprintf(
        line, sizeof line,
        "[certify] %.0f/%.0f trials  %.0f ok  llr %+.3f in "
        "(reject %.2f .. %.2f accept)  %.1f trials/s",
        trials, registry.gauge("smc.max_trials").value(),
        registry.gauge("smc.successes").value(),
        registry.gauge("smc.llr").value(),
        registry.gauge("smc.llr_lower").value(),
        registry.gauge("smc.llr_upper").value(), rate);
    return line;
  };
}

/// Heartbeat line for `verify`: explored configurations (+rate), edges,
/// BFS frontier size, interner footprint.
std::function<std::string()> verify_heartbeat() {
  return [meter = RateMeter()]() mutable -> std::string {
    obs::Registry& registry = obs::Registry::global();
    const double nodes = registry.gauge("verify.nodes").value();
    const double rate = meter.rate(nodes);
    if (nodes <= 0.0) return "[verify] starting...";
    char line[200];
    std::snprintf(line, sizeof line,
                  "[verify] %s configs (+%s/s)  %s edges  frontier %s  "
                  "interner %s",
                  format_si(nodes).c_str(), format_si(rate).c_str(),
                  format_si(registry.gauge("verify.edges").value()).c_str(),
                  format_si(registry.gauge("verify.frontier").value()).c_str(),
                  format_bytes(registry.gauge("verify.interner_bytes").value())
                      .c_str());
    return line;
  };
}

// ---------------------------------------------------------------------------
// Verbs.

int cmd_info(int n, bool equality) {
  const czerner::Construction c = build(n, equality);
  const auto size = c.program.size();
  const auto lowered = compile::lower_program(c.program);
  std::printf("construction n=%d%s\n", n, equality ? " (equality variant)" : "");
  std::printf("  predicate ......... x %s %s\n", equality ? "=" : ">=",
              czerner::Construction::threshold(n).to_decimal().c_str());
  std::printf("  program size ...... %llu (|Q|=%llu, L=%llu, S=%llu)\n",
              (unsigned long long)size.total(),
              (unsigned long long)size.num_registers,
              (unsigned long long)size.num_instructions,
              (unsigned long long)size.swap_size);
  std::printf("  machine size ...... %llu (%zu instructions, |F|=%zu)\n",
              (unsigned long long)lowered.machine.size(),
              lowered.machine.num_instructions(),
              lowered.machine.num_pointers());
  std::printf("  protocol states ... %llu\n",
              (unsigned long long)compile::conversion_state_count(
                  lowered.machine));
  return 0;
}

int cmd_simulate(int argc, char** argv, int n, std::uint32_t extra,
                 std::uint64_t seed, const sched::Scenario& scenario) {
  const auto lowered = compile::lower_program(build(n, false).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + extra;
  std::printf("simulating n=%d with m = |F| + %u = %llu agents (seed %llu)\n",
              n, extra, (unsigned long long)m, (unsigned long long)seed);
  if (!scenario.is_default())
    std::printf("scenario: %s\n", scenario.to_string().c_str());
  pp::Simulator sim(conv.protocol, conv.initial_config(m), scenario, seed);
  pp::SimulationOptions options;
  options.stable_window = flag_value(argc, argv, "--window", 90'000'000);
  options.max_interactions =
      flag_value(argc, argv, "--budget", 2'000'000'000);
  const auto result = sim.run_until_stable(options);
  if (const sched::FaultStats* faults = sim.fault_stats())
    std::printf("faults: %llu events (%llu corruptions, %llu arrivals, "
                "%llu departures)\n",
                (unsigned long long)faults->events,
                (unsigned long long)faults->corruptions,
                (unsigned long long)faults->arrivals,
                (unsigned long long)faults->departures);
  if (!result.stabilised) {
    std::printf("no consensus within %llu interactions\n",
                (unsigned long long)options.max_interactions);
    return 1;
  }
  // consensus_since is kNeverStabilised (~1.8e19) for non-stabilised runs;
  // never feed the sentinel into arithmetic.
  char since[32];
  if (result.consensus_since == pp::SimulationResult::kNeverStabilised)
    std::snprintf(since, sizeof since, "never");
  else
    std::snprintf(since, sizeof since, "%.1fM",
                  static_cast<double>(result.consensus_since) / 1e6);
  std::printf("%s after %.1fM interactions (consensus since %s)\n",
              result.output ? "ACCEPT" : "reject (one-sided: see README)",
              static_cast<double>(result.interactions) / 1e6, since);
  return 0;
}

int cmd_ensemble(int n, std::uint32_t extra, std::uint64_t trials,
                 unsigned threads, std::uint64_t seed, bool json,
                 const sched::Scenario& scenario) {
  const auto lowered = compile::lower_program(build(n, false).program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + extra;
  engine::EnsembleOptions options;
  options.trials = trials;
  options.threads = threads;
  options.master_seed = seed;
  options.engine = engine::EngineKind::kCountNullSkip;
  options.scenario = scenario;
  options.sim.stable_window = 90'000'000;
  options.sim.max_interactions = 2'000'000'000;
  const engine::EnsembleStats stats =
      engine::run_ensemble(conv.protocol, conv.initial_config(m), options);
  if (json) {
    std::printf("%s\n",
                smc::to_jsonl(stats, m, seed, options.engine).c_str());
  } else {
    std::printf("ensemble n=%d with m = |F| + %u = %llu agents, %llu trials "
                "(master seed %llu)\n",
                n, extra, (unsigned long long)m, (unsigned long long)trials,
                (unsigned long long)seed);
    std::printf("%s", engine::describe(stats).c_str());
  }
  return stats.stabilised == stats.trials ? 0 : 1;
}

int cmd_certify(int argc, char** argv, int n, std::uint32_t extra,
                bool json) {
  const czerner::Construction c = build(n, false);
  const auto lowered = compile::lower_program(c.program);
  const auto conv = compile::machine_to_protocol(lowered.machine);
  const std::uint64_t m = conv.num_pointers + extra;
  // Theorem 5's shift: the protocol decides phi'(m) <=> m >= |F| and
  // phi(m - |F|); with m = |F| + extra that is phi(extra) = extra >= k(n).
  const bool expected =
      bignum::Nat(extra) >= czerner::Construction::threshold(n);

  smc::CertifyOptions options;
  options.delta = flag_double(argc, argv, "--delta", 0.01);
  options.indifference = flag_double(argc, argv, "--indifference", 0.05);
  options.alpha = flag_double(argc, argv, "--alpha", 0.01);
  options.beta = flag_double(argc, argv, "--beta", 0.01);
  options.max_trials = flag_value(argc, argv, "--trials", 4096);
  options.threads =
      static_cast<unsigned>(flag_value(argc, argv, "--threads", 0, kMaxUnsigned));
  options.seed = flag_value(argc, argv, "--seed", 42);
  options.sim.stable_window =
      flag_value(argc, argv, "--window", 90'000'000);
  options.sim.max_interactions =
      flag_value(argc, argv, "--budget", 2'000'000'000);
  options.scenario = flag_scenario(argc, argv);

  const smc::Certificate cert =
      smc::certify(conv.protocol, conv.initial_config(m), expected, options);
  if (json) {
    std::printf("%s\n", smc::to_jsonl(cert).c_str());
  } else {
    std::printf("certify n=%d with m = |F| + %u = %llu agents (expected "
                "%s: k(%d) = %s)\n",
                n, extra, (unsigned long long)m,
                expected ? "ACCEPT" : "REJECT", n,
                czerner::Construction::threshold(n).to_decimal().c_str());
    std::printf("%s", smc::describe(cert).c_str());
  }
  return cert.verdict == smc::Verdict::kCertified ? 0 : 1;
}

int cmd_verify(int argc, char** argv, int n, std::uint64_t m_regs,
               bool equality) {
  const czerner::Construction c = build(n, equality);
  const auto lowered = compile::lower_program(c.program);
  compile::ConversionOptions nb;
  nb.with_broadcast = false;
  const auto conv = compile::machine_to_protocol(lowered.machine, nb);
  std::vector<std::uint64_t> regs(c.num_registers(), 0);
  regs[c.R()] = m_regs;
  pp::VerifierOptions options;
  options.witness_mode = true;
  options.max_configs = flag_value(argc, argv, "--max-configs", 8'000'000);
  options.max_edges = flag_value(argc, argv, "--max-edges", UINT64_MAX);
  options.max_bytes = flag_value(argc, argv, "--max-bytes", UINT64_MAX);
  // Default 0 = all hardware threads; results are thread-count-independent.
  options.threads = static_cast<unsigned>(
      flag_value(argc, argv, "--threads", 0, kMaxUnsigned));
  const auto verdict =
      pp::Verifier(conv.protocol)
          .verify(conv.pi(machine::initial_state(lowered.machine, regs),
                          false),
                  options);
  std::printf("n=%d, m_regs=%llu: %s\n", n, (unsigned long long)m_regs,
              to_string(verdict.verdict).c_str());
  std::printf("  explored %llu configurations, %llu edges\n",
              (unsigned long long)verdict.explored_configs,
              (unsigned long long)verdict.explored_edges);
  return verdict.stabilises() ? 0 : 1;
}

int cmd_decide(int n, std::uint64_t m, bool equality) {
  const czerner::Construction c = build(n, equality);
  const auto flat = progmodel::FlatProgram::compile(c.program);
  std::vector<std::uint64_t> regs(c.num_registers(), 0);
  regs[c.R()] = m;
  progmodel::ExploreLimits limits;
  limits.max_nodes = 8'000'000;
  const auto result = progmodel::decide(flat, regs, limits);
  const char* text =
      result.verdict == progmodel::DecisionResult::Verdict::kStabilisesTrue
          ? "ACCEPT"
          : result.verdict ==
                    progmodel::DecisionResult::Verdict::kStabilisesFalse
                ? "reject"
                : result.verdict ==
                          progmodel::DecisionResult::Verdict::kLimit
                      ? "resource limit"
                      : "does not stabilise";
  std::printf("n=%d, m=%llu: %s (%llu configurations)\n", n,
              (unsigned long long)m, text,
              (unsigned long long)result.explored_nodes);
  return result.stabilises() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Serve verbs (S25): the daemon, a standalone remote worker, the client.

int cmd_serve(int argc, char** argv) {
  serve::ServerOptions options;
  if (const char* host = flag_cstr(argc, argv, "--host")) options.host = host;
  options.port =
      static_cast<std::uint16_t>(flag_value(argc, argv, "--port", 7421, kMaxPort));
  options.workers =
      static_cast<unsigned>(flag_value(argc, argv, "--workers", 2, kMaxUnsigned));
  options.max_active =
      static_cast<unsigned>(flag_value(argc, argv, "--max-active", 2, kMaxUnsigned));
  options.queue_limit =
      static_cast<unsigned>(flag_value(argc, argv, "--queue-limit", 16, kMaxUnsigned));
  options.max_trials_cap =
      flag_value(argc, argv, "--max-trials-cap", 1u << 20);
  options.max_query_seconds =
      flag_double(argc, argv, "--max-seconds", 600.0);
  options.shard = flag_value(argc, argv, "--shard", 8);
  options.kill_worker_after =
      flag_value(argc, argv, "--kill-worker-after", 0);
  // --prom-port=0 means "ephemeral", distinct from the flag being absent
  // (disabled) — so probe presence, not value.
  if (flag_cstr(argc, argv, "--prom-port") != nullptr)
    options.prom_port = static_cast<std::int32_t>(
        flag_value(argc, argv, "--prom-port", 0, kMaxPort));
  options.flight_capacity = static_cast<std::size_t>(
      flag_value(argc, argv, "--flight-capacity", 128));
  if (const char* remote = flag_cstr(argc, argv, "--remote")) {
    std::string list = remote;
    std::size_t start = 0;
    while (start <= list.size()) {
      const std::size_t comma = list.find(',', start);
      const std::string endpoint =
          list.substr(start, comma == std::string::npos ? std::string::npos
                                                        : comma - start);
      if (!endpoint.empty()) options.remote_workers.push_back(endpoint);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  // The Server constructor forks the worker pool and binds the socket
  // before any thread exists; the SignalWatch then claims SIGINT/SIGTERM
  // before run() spawns the runner threads.
  serve::Server server(options);
  // The tracer starts strictly AFTER the constructor's fork()s: a child
  // must not inherit an active tracer (shared FILE*, phantom collector).
  // With it active, run() announces every worker as a track group and
  // stitches their shipped spans, so --trace=FILE yields ONE fleet-wide
  // Perfetto timeline (S29).
  TracerGuard tracer(flag_cstr(argc, argv, "--trace"),
                     flag_tracer_options(argc, argv));
  std::fprintf(stderr,
               "ppde serve: listening on %s:%u (%u local workers, "
               "%zu remote)\n",
               options.host.c_str(), static_cast<unsigned>(server.port()),
               options.workers, options.remote_workers.size());
  if (server.prom_port() != 0)
    std::fprintf(stderr,
                 "ppde serve: prometheus metrics on "
                 "http://127.0.0.1:%u/metrics\n",
                 static_cast<unsigned>(server.prom_port()));
  serve::SignalWatch watch([&server](int) { server.request_stop(); });
  server.run();
  std::fprintf(stderr, "ppde serve: stopped\n");
  return 0;
}

int cmd_client(int argc, char** argv, const std::vector<char*>& pos) {
  if (pos.size() < 3) return 1;
  const std::string hostport = pos[1];
  serve::QueryParams query;
  query.req = pos[2];
  if (query.req == "certify" || query.req == "ensemble") {
    if (pos.size() < 5) {
      std::fprintf(stderr,
                   "usage: ppde client <host:port> %s <n> <extra> [flags]\n",
                   query.req.c_str());
      return 1;
    }
    query.n = static_cast<int>(parse_unsigned(pos[3], "<n>", INT_MAX));
    query.extra =
        static_cast<std::uint32_t>(parse_unsigned(pos[4], "<extra>", kMaxU32));
    if (query.n < 1) return 1;
    query.trials = flag_value(argc, argv, "--trials", query.trials);
    query.seed = flag_value(argc, argv, "--seed", query.seed);
    query.delta = flag_double(argc, argv, "--delta", query.delta);
    query.indifference =
        flag_double(argc, argv, "--indifference", query.indifference);
    query.alpha = flag_double(argc, argv, "--alpha", query.alpha);
    query.beta = flag_double(argc, argv, "--beta", query.beta);
    query.window = flag_value(argc, argv, "--window", query.window);
    query.budget = flag_value(argc, argv, "--budget", query.budget);
    query.shard = flag_value(argc, argv, "--shard", 0);
    // Validate the scenario locally so a typo fails here, not
    // server-side; the wire carries the canonical rendering and omits the
    // field for the default scenario (pre-S27 servers keep working).
    const sched::Scenario scenario = flag_scenario(argc, argv);
    if (!scenario.is_default()) query.scenario = scenario.to_string();
  } else if (query.req == "stats") {
    // S29: --recent=N dumps the daemon's flight recorder as JSONL;
    // --format=prometheus fetches the text exposition over the serve
    // protocol (no second port needed).
    query.recent = flag_value(argc, argv, "--recent", 0);
    if (const char* format = flag_cstr(argc, argv, "--format"))
      query.format = format;
  } else if (query.req != "shutdown") {
    std::fprintf(stderr, "ppde client: unknown request '%s'\n",
                 query.req.c_str());
    return 1;
  }
  std::string response;
  std::string error;
  if (!serve::rpc(hostport, serve::encode_query(query), &response, &error)) {
    std::fprintf(stderr, "ppde client: %s\n", error.c_str());
    return 1;
  }
  try {
    const serve::Json reply = serve::Json::parse(response);
    const bool ok = reply.boolean("ok", false);
    if (ok && query.req == "stats" && query.format == "prometheus") {
      // Unwrap to the raw scrape text, ready to diff against a /metrics
      // fetch or pipe into promtool.
      std::printf("%s", reply.str("prometheus", "").c_str());
      return 0;
    }
    if (ok && query.req == "stats" && query.recent != 0) {
      if (const serve::Json* recent = reply.find("recent")) {
        // Flight records as JSONL, newest first — one object per line.
        for (const serve::Json& record : recent->items())
          std::printf("%s\n", record.dump().c_str());
        return 0;
      }
    }
    // Otherwise the response is printed verbatim: for certify it embeds
    // the raw certificate JSONL record, so `"digest":"..."` greps exactly
    // like the output of in-process `ppde certify --json`.
    std::printf("%s\n", response.c_str());
    return ok ? 0 : 1;
  } catch (const std::exception&) {
    std::printf("%s\n", response.c_str());
    return 1;
  }
}

int cmd_window(std::uint32_t lo, std::uint32_t hi, std::uint64_t m) {
  const auto program = progmodel::make_window_program(lo, hi);
  const auto flat = progmodel::FlatProgram::compile(program);
  progmodel::ExploreLimits limits;
  limits.max_nodes = 8'000'000;
  const auto result = progmodel::decide(flat, {0, 0, m}, limits);
  std::printf("%u <= %llu < %u: %s\n", lo, (unsigned long long)m, hi,
              result.stabilises() ? (result.output() ? "ACCEPT" : "reject")
                                  : "undecided (limit)");
  return result.stabilises() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Usage & per-verb help. One table drives both, so the synopsis a user
// sees in `ppde` and the detail in `ppde help <verb>` cannot drift apart;
// every flag a verb parses above is enumerated here.

struct VerbHelp {
  const char* name;
  const char* synopsis;  ///< one line, without the leading verb name
  const char* detail;    ///< multi-line flag reference for `help <verb>`
};

constexpr VerbHelp kVerbs[] = {
    {"info", "<n> [--equality]",
     "  Sizes and decided threshold of the Czerner construction.\n"
     "    <n>          construction index; threshold k(n) is a tower of\n"
     "                 2^2^n sizes (see README)\n"
     "    --equality   build the x = k(n) variant instead of x >= k(n)\n"},
    {"program", "<n> [--equality]",
     "  Print the Section-6 population program.\n"
     "    --equality   the x = k(n) variant\n"},
    {"machine", "<n> [--equality]",
     "  Print the lowered population machine.\n"
     "    --equality   the x = k(n) variant\n"},
    {"protocol", "<n> [--dot] [--equality]",
     "  Converted protocol statistics (full transition relation is only\n"
     "  materialised for n <= 2).\n"
     "    --dot        emit the protocol as a Graphviz digraph\n"
     "    --equality   the x = k(n) variant\n"},
    {"simulate", "<n> <extra-agents> [seed] [flags]",
     "  Run the full protocol with m = |F| + extra agents until consensus\n"
     "  (per-agent reference simulator).\n"
     "    [seed]        RNG seed (default 42)\n"
     "    --window=W    consensus stability window (default 90000000)\n"
     "    --budget=I    interaction budget (default 2000000000)\n"
     "    --scheduler=S meeting scheduler (S27): uniform (default), clique,\n"
     "                  ring, grid[:W], regular[:D], biased[:G], aging\n"
     "    --fault=F     fault plan (S27): none (default), corrupt:RATE[,K],\n"
     "                  churn:RATE[,CAP], burst:AT,K[;AT,K...]\n"},
    {"ensemble", "<n> <extra-agents> <trials> [threads] [seed] [flags]",
     "  Run a fleet of independent trials on the count+null-skip engine\n"
     "  (S21) and report aggregate statistics.\n"
     "    [threads]    worker threads; 0 = all hardware threads (default)\n"
     "    [seed]       master seed; trial i uses derive_trial_seed(seed, i)\n"
     "                 so results are identical at every thread count\n"
     "    --scheduler=S / --fault=F\n"
     "                 stress scenario (S27); a non-default scenario falls\n"
     "                 back to the per-agent simulator (fast paths are\n"
     "                 uniform-only), results stay seed-deterministic\n"
     "    --json       one JSONL record instead of the human summary\n"},
    {"certify", "<n> <extra-agents> [flags]",
     "  Statistical model checking (S23): an SPRT certificate that the\n"
     "  full protocol stabilises to the correct output with probability\n"
     "  >= 1-delta at m = |F| + extra agents. The certificate digest is\n"
     "  identical at every thread count for fixed (seed, errors, budget).\n"
     "    --trials=N         trial budget (default 4096)\n"
     "    --threads=T        worker threads; 0 = all hardware (default)\n"
     "    --seed=S           master seed (default 42)\n"
     "    --delta=D          certified failure probability (default 0.01)\n"
     "    --alpha=A          type-I error bound (default 0.01)\n"
     "    --beta=B           type-II error bound (default 0.01)\n"
     "    --indifference=E   SPRT indifference width (default 0.05)\n"
     "    --window=W         consensus stability window\n"
     "                       (default 90000000)\n"
     "    --budget=I         per-trial interaction budget\n"
     "                       (default 2000000000)\n"
     "    --scheduler=S      meeting scheduler (S27): uniform (default),\n"
     "                       clique, ring, grid[:W], regular[:D],\n"
     "                       biased[:G], aging\n"
     "    --fault=F          fault plan (S27): none (default),\n"
     "                       corrupt:RATE[,K], churn:RATE[,CAP],\n"
     "                       burst:AT,K[;AT,K...]\n"
     "                       A non-default scenario becomes part of the\n"
     "                       certified statement: the canonical descriptor\n"
     "                       is folded into the certificate digest\n"
     "    --json             one JSONL certificate record\n"},
    {"verify", "<n> <m_regs> [flags]",
     "  Exact fair-run verdict from pi(C) on the parallel verification\n"
     "  kernel (S22). The verdict is identical at every thread count.\n"
     "    --equality         verify the x = k(n) variant\n"
     "    --threads=T        worker threads; 0 = all hardware (default)\n"
     "    --max-configs=N    configuration budget (default 8000000)\n"
     "    --max-edges=E      edge budget (default unlimited)\n"
     "    --max-bytes=B      graph store budget: packed configurations,\n"
     "                       node records, interner slots and successor\n"
     "                       lists, counted from the explored counts so it\n"
     "                       stops at the same configuration at every\n"
     "                       thread count (default unlimited)\n"},
    {"decide", "<n> <m> [--equality]",
     "  Program-level exhaustive decision.\n"
     "    --equality   decide the x = k(n) variant\n"},
    {"serve", "[flags]",
     "  Certification/ensemble daemon (S25): accepts framed-JSON queries,\n"
     "  fans trial batches out to forked worker processes and merges the\n"
     "  SPRT/quantile statistics so the certificate digest is identical to\n"
     "  in-process `ppde certify` at any worker count or shard layout.\n"
     "    --host=H              bind address (default 127.0.0.1)\n"
     "    --port=P              listen port; 0 = ephemeral (default 7421)\n"
     "    --workers=W           forked local workers (default 2)\n"
     "    --remote=H:P[,H:P]    additional `ppde worker` endpoints\n"
     "    --max-active=A        concurrently executing queries (default 2)\n"
     "    --queue-limit=Q       admission queue bound (default 16)\n"
     "    --max-trials-cap=N    reject queries above this trial budget\n"
     "    --max-seconds=S       per-query wall budget (default 600)\n"
     "    --shard=K             trials per worker batch (default 8)\n"
     "    --kill-worker-after=N test hook: SIGKILL one worker after the\n"
     "                          Nth dispatched batch (default 0 = never)\n"
     "    --prom-port=P         serve Prometheus text exposition on\n"
     "                          http://127.0.0.1:P/metrics (S29); 0 =\n"
     "                          ephemeral port (logged on startup);\n"
     "                          omit the flag to disable\n"
     "    --flight-capacity=N   per-query flight-recorder ring size\n"
     "                          (default 128; see `client stats --recent`)\n"
     "  With --trace=FILE the daemon stitches its own spans and every\n"
     "  worker's shipped spans into ONE Chrome trace: each worker process\n"
     "  appears as its own track group (S29).\n"},
    {"worker", "[--port=P]",
     "  Standalone remote trial worker for `ppde serve --remote=...`:\n"
     "  serves batch requests on 0.0.0.0:P (default 7421) until told to\n"
     "  exit.\n"},
    {"client", "<host:port> <request> [args] [flags]",
     "  Query a running `ppde serve` daemon and print the raw JSON\n"
     "  response (exit 0 iff the response says ok).\n"
     "    certify <n> <extra>   SPRT certification; accepts the same\n"
     "                          --trials/--seed/--delta/--indifference/\n"
     "                          --alpha/--beta/--window/--budget/\n"
     "                          --scheduler/--fault flags as `ppde certify`,\n"
     "                          plus --shard=K\n"
     "    ensemble <n> <extra>  fleet summary; --trials=N is the exact\n"
     "                          fleet size\n"
     "    stats                 daemon uptime, worker pool state, and the\n"
     "                          full obs metrics registry snapshot\n"
     "                          (fleet-wide `worker.*` roll-ups included)\n"
     "      --recent=N          dump the newest N flight-recorder records\n"
     "                          as JSONL (one query per line, S29)\n"
     "      --format=prometheus print the daemon's Prometheus text\n"
     "                          exposition instead of JSON\n"
     "    shutdown              graceful daemon stop\n"},
    {"window", "<lo> <hi> <m>",
     "  Decide lo <= m < hi with a Figure-1 style program (exhaustive).\n"},
    {"help", "[<verb>]",
     "  Without a verb: the synopsis list. With one: its flag reference.\n"},
};

constexpr const char* kGlobalFlags =
    "global flags (every verb):\n"
    "  --trace=FILE       record a Chrome trace-event file (S24);\n"
    "                     open in Perfetto or about:tracing\n"
    "  --trace-max-mb=N   cap the trace file at N MiB (S29); events past\n"
    "                     the cap are dropped and counted in the\n"
    "                     obs.trace_truncated metric, and the file stays\n"
    "                     a valid JSON array\n"
    "  --progress[=SECS]  heartbeat to stderr every SECS seconds\n"
    "                     (bare flag: 5s; =0 disables; auto-on at 10s\n"
    "                     when stderr is a TTY)\n";

void print_global_flags(std::FILE* out) {
  std::fprintf(
      out,
      "%s"
      "numbers are read whole: integer arguments and flags take plain\n"
      "decimal digits (--budget=400000000000, not 4e11); anything else is\n"
      "an error naming the argument; a flag the verb does not list is an\n"
      "error too.\n",
      kGlobalFlags);
}

/// True iff `text` mentions the flag `--name` (a `--` token whose name
/// ends where a flag name cannot go on).
bool mentions_flag(std::string_view text, std::string_view name) {
  const auto is_name_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-';
  };
  for (std::size_t at = text.find("--"); at != std::string_view::npos;
       at = text.find("--", at + 2)) {
    std::size_t end = at + 2;
    while (end < text.size() && is_name_char(text[end])) ++end;
    if (text.substr(at + 2, end - at - 2) == name) return true;
  }
  return false;
}

/// Throws std::invalid_argument naming the first flag on the command line
/// that neither `verb`'s help entry nor the global flags list. The help
/// table is the parser's only flag list, so the two cannot drift apart.
void check_flags(int argc, char** argv, const VerbHelp& verb) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    const std::string_view name = arg.substr(2, arg.find('=') - 2);
    if (mentions_flag(verb.synopsis, name) ||
        mentions_flag(verb.detail, name) || mentions_flag(kGlobalFlags, name))
      continue;
    throw std::invalid_argument("--" + std::string(name) +
                                ": not a flag of 'ppde " + verb.name +
                                "' (see 'ppde help " + verb.name + "')");
  }
}

int usage() {
  std::fprintf(stderr, "usage: ppde <verb> ...\n");
  for (const VerbHelp& verb : kVerbs)
    std::fprintf(stderr, "  %s %s\n", verb.name, verb.synopsis);
  print_global_flags(stderr);
  std::fprintf(stderr, "run `ppde help <verb>` for the full flag list.\n");
  return 1;
}

int cmd_help(const char* verb) {
  if (verb == nullptr) {
    usage();
    return 0;  // explicit `ppde help` is a success, unlike a parse error
  }
  for (const VerbHelp& entry : kVerbs) {
    if (std::strcmp(entry.name, verb) != 0) continue;
    std::printf("usage: ppde %s %s\n%s", entry.name, entry.synopsis,
                entry.detail);
    print_global_flags(stdout);
    return 0;
  }
  std::fprintf(stderr, "ppde: unknown verb '%s'\n", verb);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  // Positional arguments with the --flags filtered out, so flags may
  // appear anywhere on the line (e.g. `ppde ensemble 1 2 16 --json`).
  std::vector<char*> pos;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--", 2) != 0) pos.push_back(argv[i]);
  if (pos.empty()) return usage();
  const std::string command = pos[0];
  // `help` takes a verb name, not a number — dispatch before the numeric
  // argument checks below would reject it. The
  // serve-family verbs likewise take flags / a host:port, not <n>.
  if (command == "help")
    return cmd_help(pos.size() >= 2 ? pos[1] : nullptr);
  const VerbHelp* verb = std::find_if(
      std::begin(kVerbs), std::end(kVerbs),
      [&](const VerbHelp& entry) { return command == entry.name; });
  if (verb == std::end(kVerbs)) return usage();
  try {
    check_flags(argc, argv, *verb);
    if (command == "serve") return cmd_serve(argc, argv);
    if (command == "worker")
      return serve::worker_listen(
          static_cast<std::uint16_t>(
              flag_value(argc, argv, "--port", 7421, kMaxPort)));
    if (command == "client") {
      const int status = cmd_client(argc, argv, pos);
      if (status == 1 && pos.size() < 3) return usage();
      return status;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  if (pos.size() < 2) return usage();
  const bool equality = has_flag(argc, argv, "--equality");
  const bool json = has_flag(argc, argv, "--json");

  // Graceful interruption (S25): for the long-running verbs, a dedicated
  // watcher thread owns SIGINT/SIGTERM and, on delivery, prints one final
  // progress line, flushes the trace ring to a valid file (footer and
  // all), and exits with the conventional 128+signo — instead of the
  // default action silently dropping every buffered span. Installed
  // before any other thread is spawned so the process-wide signal mask is
  // inherited by all of them.
  std::function<std::string()> heartbeat;
  if (command == "ensemble")
    heartbeat = ensemble_heartbeat();
  else if (command == "certify")
    heartbeat = certify_heartbeat();
  else if (command == "verify")
    heartbeat = verify_heartbeat();
  std::unique_ptr<serve::SignalWatch> watch;
  if (heartbeat) {
    watch = std::make_unique<serve::SignalWatch>(
        [heartbeat, command](int signo) {
          std::fprintf(stderr, "%s\n", heartbeat().c_str());
          std::fprintf(stderr,
                       "ppde: %s interrupted by signal %d; trace flushed\n",
                       command.c_str(), signo);
          obs::Tracer::interrupt_stop();
          _exit(128 + signo);
        });
  }

  // Observability (S24). The guard starts the tracer now and stops it on
  // every return path below — after the verb's worker pools have joined
  // and after the monitor (declared later, destroyed earlier) has stopped.
  TracerGuard tracer(flag_cstr(argc, argv, "--trace"),
                     flag_tracer_options(argc, argv));
  std::unique_ptr<obs::ProgressMonitor> monitor;
  const double period = progress_period(argc, argv);
  if (period > 0.0 && heartbeat)
    monitor = std::make_unique<obs::ProgressMonitor>(period, heartbeat);

  try {
    // Positional numbers are parsed whole, like flag values; `window`
    // reads its own.
    const int n = command == "window"
                      ? 0
                      : static_cast<int>(parse_unsigned(pos[1], "<n>", INT_MAX));
    if (n < 1 && command != "window") return usage();
    if (command == "info") return cmd_info(n, equality);
    if (command == "program") {
      std::printf("%s", build(n, equality).program.to_string().c_str());
      return 0;
    }
    if (command == "machine") {
      std::printf("%s", compile::lower_program(build(n, equality).program)
                            .machine.to_string()
                            .c_str());
      return 0;
    }
    if (command == "protocol") {
      const auto lowered = compile::lower_program(build(n, equality).program);
      if (n > 2) {
        std::printf("protocol states: %llu (full transition relation only "
                    "materialised for n <= 2)\n",
                    (unsigned long long)compile::conversion_state_count(
                        lowered.machine));
        return 0;
      }
      const auto conv = compile::machine_to_protocol(lowered.machine);
      if (has_flag(argc, argv, "--dot")) {
        std::printf("%s", conv.protocol.to_dot().c_str());
      } else {
        std::printf("states: %zu, transitions: %zu, |F| = %u\n",
                    conv.protocol.num_states(),
                    conv.protocol.num_transitions(), conv.num_pointers);
      }
      return 0;
    }
    const auto extra = [&] {
      return static_cast<std::uint32_t>(
          parse_unsigned(pos[2], "<extra-agents>", kMaxU32));
    };
    if (command == "simulate" && pos.size() >= 3)
      return cmd_simulate(
          argc, argv, n, extra(),
          pos.size() >= 4 ? parse_unsigned(pos[3], "[seed]") : 42,
          flag_scenario(argc, argv));
    if (command == "ensemble" && pos.size() >= 4)
      return cmd_ensemble(
          n, extra(), parse_unsigned(pos[3], "<trials>"),
          pos.size() >= 5 ? static_cast<unsigned>(parse_unsigned(
                                pos[4], "[threads]", kMaxUnsigned))
                          : 0,
          pos.size() >= 6 ? parse_unsigned(pos[5], "[seed]") : 42, json,
          flag_scenario(argc, argv));
    if (command == "certify" && pos.size() >= 3)
      return cmd_certify(argc, argv, n, extra(), json);
    if (command == "verify" && pos.size() >= 3)
      return cmd_verify(argc, argv, n, parse_unsigned(pos[2], "<m_regs>"),
                        equality);
    if (command == "decide" && pos.size() >= 3)
      return cmd_decide(n, parse_unsigned(pos[2], "<m>"), equality);
    if (command == "window" && pos.size() >= 4)
      return cmd_window(
          static_cast<std::uint32_t>(parse_unsigned(pos[1], "<lo>", kMaxU32)),
          static_cast<std::uint32_t>(parse_unsigned(pos[2], "<hi>", kMaxU32)),
          parse_unsigned(pos[3], "<m>"));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return usage();
}
