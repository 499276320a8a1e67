#include "serve/worker.hpp"

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "compile/to_protocol.hpp"
#include "engine/ensemble.hpp"
#include "engine/executor.hpp"
#include "obs/registry.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "sched/scenario.hpp"
#include "serve/proto.hpp"
#include "serve/statement.hpp"
#include "serve/wire.hpp"

namespace ppde::serve {

namespace {

/// True once the daemon has sent a cancel for the batch in progress —
/// polled without blocking between trials. EOF (the daemon went away)
/// also stops the batch; the reply then fails to send. Any other frame
/// during a batch is a protocol error.
bool cancel_pending(int fd) {
  pollfd ready{fd, POLLIN, 0};
  if (::poll(&ready, 1, 0) <= 0) return false;
  std::string payload;
  if (!read_frame(fd, payload)) return true;
  if (!is_cancel(Json::parse(payload)))
    throw std::runtime_error("serve worker: unexpected frame during a batch");
  return true;
}

/// The one batch body, for certify and ensemble queries alike: trials
/// [first, first + count) on the shared trial body (S27) — the S21
/// default engine (count + null-skip) for the default scenario, the
/// per-agent fallback inside the executor otherwise — each with its
/// global derived seed, until the range ends or a cancel arrives. A
/// worker process is single-threaded by design (the daemon's parallelism
/// is processes, and a forked child must not spawn threads anyway), so
/// it looks for a cancel between trials only.
BatchResult run_batch(int fd, const BatchRequest& request) {
  const compile::ProtocolConversion& conversion =
      statement(request.n).conversion;
  const std::uint64_t m = conversion.num_pointers + request.extra;
  const pp::Config initial = conversion.initial_config(m);
  pp::SimulationOptions sim_stop;
  sim_stop.stable_window = request.window;
  sim_stop.max_interactions = request.budget;
  sched::Scenario scenario;
  if (!request.scenario.empty())
    scenario = sched::Scenario::parse(request.scenario);
  engine::TrialExecutor executor(conversion.protocol,
                                 engine::EngineKind::kCountNullSkip, scenario,
                                 /*workers=*/1);
  BatchResult result;
  result.first = request.first;
  for (std::uint64_t i = 0; i < request.count && !cancel_pending(fd); ++i) {
    const std::uint64_t trial = request.first + i;
    obs::ObsSpan span("trial", "engine");
    span.set_value(static_cast<double>(trial));
    result.records.push_back(executor.run(
        0, initial, engine::derive_trial_seed(request.seed, trial),
        sim_stop));
  }
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
    // A cancel that crossed this worker's full reply: the batch it meant
    // is already answered.
    if (is_cancel(message)) continue;
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
      result = run_batch(fd, request);
    }
    trials_executed.add(result.records.size());
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
