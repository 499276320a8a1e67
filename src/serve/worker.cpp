#include "serve/worker.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "engine/executor.hpp"
#include "obs/registry.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "sched/scenario.hpp"
#include "serve/proto.hpp"
#include "serve/wire.hpp"

namespace ppde::serve {

namespace {

/// Per-n converted protocol, built once per worker process and reused
/// across batches (construction dominates small-batch latency otherwise).
struct CachedProtocol {
  compile::ProtocolConversion conversion;
};

CachedProtocol& cached_protocol(int n) {
  static std::map<int, std::unique_ptr<CachedProtocol>> cache;
  std::unique_ptr<CachedProtocol>& slot = cache[n];
  if (!slot) {
    const auto lowered =
        compile::lower_program(czerner::build_construction(n).program);
    slot = std::make_unique<CachedProtocol>(
        CachedProtocol{compile::machine_to_protocol(lowered.machine)});
  }
  return *slot;
}

/// The one batch body, for certify and ensemble queries alike: trials
/// [first, first + count) on the shared trial body (S27) — the S21
/// default engine (count + null-skip) for the default scenario, the
/// per-agent fallback inside the executor otherwise. threads = 1: a
/// worker process is single-threaded by design — the daemon's
/// parallelism is processes, and a forked child must not spawn threads
/// anyway.
BatchResult run_batch(const BatchRequest& request) {
  CachedProtocol& cached = cached_protocol(request.n);
  const std::uint64_t m = cached.conversion.num_pointers + request.extra;
  const pp::Config initial = cached.conversion.initial_config(m);
  pp::SimulationOptions sim_stop;
  sim_stop.stable_window = request.window;
  sim_stop.max_interactions = request.budget;
  sched::Scenario scenario;
  if (!request.scenario.empty())
    scenario = sched::Scenario::parse(request.scenario);
  engine::TrialExecutor executor(cached.conversion.protocol,
                                 engine::EngineKind::kCountNullSkip, scenario,
                                 /*workers=*/1);
  BatchResult result;
  result.first = request.first;
  result.records = engine::run_trial_range(
      request.first, request.count, /*threads=*/1, request.seed,
      [&](unsigned worker, std::uint64_t, std::uint64_t seed) {
        return executor.run(worker, initial, seed, sim_stop);
      });
  return result;
}

}  // namespace

bool worker_main(int fd) {
  // Process-lifetime observability state (S29). The tracker's baseline
  // excludes whatever registry values were inherited across fork(), so
  // only this worker's own work ever ships as a delta; the static
  // persists across worker_listen connections.
  static obs::DeltaTracker tracker;
  static obs::Counter& trials_executed =
      obs::Registry::global().counter("serve.trials_executed");
  static obs::Histogram& batch_micros =
      obs::Registry::global().histogram("serve.worker_batch_micros");

  std::string payload;
  while (read_frame(fd, payload)) {
    const Json message = Json::parse(payload);
    if (is_exit(message)) return true;
    const BatchRequest request = parse_batch_request(message);

    // A traced query lazily installs this process's capture tracer; it
    // stays installed for the worker's lifetime (cheap when idle — the
    // rings are only drained for traced batches).
    if (request.trace_id != 0 && obs::Tracer::active() == nullptr)
      obs::Tracer::start_capture();

    const std::uint64_t start_ns = obs::now_ns();
    BatchResult result;
    {
      obs::ObsSpan span("worker_batch", "serve");
      span.set_value(static_cast<double>(request.trace_id));
      result = run_batch(request);
    }
    trials_executed.add(request.count);
    batch_micros.record((obs::now_ns() - start_ns) / 1000);

    result.worker_pid = static_cast<std::uint64_t>(::getpid());
    if (request.trace_id != 0 && obs::Tracer::capturing())
      result.trace = obs::Tracer::drain_capture();
    result.metric_deltas = tracker.collect();
    write_frame(fd, encode_batch_result(result));
  }
  return false;
}

int worker_listen(std::uint16_t port) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("ppde worker: socket");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd, 4) < 0) {
    std::perror("ppde worker: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr, "ppde worker: listening on port %u\n",
               static_cast<unsigned>(port));
  bool exit_requested = false;
  while (!exit_requested) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    try {
      exit_requested = worker_main(conn);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "ppde worker: connection failed: %s\n",
                   error.what());
    }
    ::close(conn);
  }
  ::close(listen_fd);
  return 0;
}

}  // namespace ppde::serve
