#include "serve/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bignum/nat.hpp"
#include "compile/lower.hpp"
#include "compile/to_protocol.hpp"
#include "czerner/construction.hpp"
#include "engine/ensemble.hpp"
#include "obs/flight.hpp"
#include "obs/prom_http.hpp"
#include "obs/registry.hpp"
#include "obs/rollup.hpp"
#include "obs/trace.hpp"
#include "sched/scenario.hpp"
#include "serve/proto.hpp"
#include "serve/supervisor.hpp"
#include "serve/wire.hpp"
#include "smc/json.hpp"
#include "smc/partial.hpp"

namespace ppde::serve {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Statement fields the daemon computes itself (workers never report them
/// — they are options, not observations): the converted protocol's
/// fingerprint, the initial configuration size, and the ground-truth
/// expected output extra >= k(n). Cached per n; runner threads share it.
struct Statement {
  std::uint64_t fingerprint = 0;
  std::uint32_t num_pointers = 0;
  bignum::Nat threshold;
  compile::ProtocolConversion conversion;
};

const Statement& cached_statement(int n) {
  static std::mutex mutex;
  static std::map<int, std::unique_ptr<Statement>> cache;
  std::lock_guard<std::mutex> lock(mutex);
  std::unique_ptr<Statement>& slot = cache[n];
  if (!slot) {
    const auto lowered =
        compile::lower_program(czerner::build_construction(n).program);
    slot = std::make_unique<Statement>();
    slot->conversion = compile::machine_to_protocol(lowered.machine);
    slot->fingerprint = slot->conversion.protocol.fingerprint();
    slot->num_pointers = slot->conversion.num_pointers;
    slot->threshold = czerner::Construction::threshold(n);
  }
  return *slot;
}

struct Metrics {
  obs::Counter& queries_total;
  obs::Counter& queries_rejected;
  obs::Counter& batches_dispatched;
  obs::Counter& worker_deaths;
  obs::Counter& trials_reassigned;
  obs::Counter& trials_delivered;
  obs::Gauge& active;
  obs::Gauge& queue_depth;
  obs::Histogram& admission_wait;

  static Metrics& get() {
    static Metrics metrics{
        obs::Registry::global().counter("serve.queries_total"),
        obs::Registry::global().counter("serve.queries_rejected"),
        obs::Registry::global().counter("serve.batches_dispatched"),
        obs::Registry::global().counter("serve.worker_deaths"),
        obs::Registry::global().counter("serve.trials_reassigned"),
        obs::Registry::global().counter("serve.trials_delivered"),
        obs::Registry::global().gauge("serve.active_queries"),
        obs::Registry::global().gauge("serve.queue_depth"),
        obs::Registry::global().histogram("serve.admission_wait_micros"),
    };
    return metrics;
  }
};

struct Range {
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// One query's dispatch engine: hand out trial ranges to supervisor
/// workers, collect responses, retire dead workers (their ranges go back
/// on the retry queue — outcomes are pure functions of (trial, seed), so
/// a re-run elsewhere is bit-identical). Shared by certify and ensemble
/// queries; the caller parameterises the stop condition, the look-ahead
/// horizon, and the result sink.
struct Pump {
  Supervisor& supervisor;
  BatchRequest prototype;  ///< first/count overwritten per batch
  std::uint64_t total_trials = 0;
  std::uint64_t shard = 1;
  /// Fresh ranges start only below horizon(in_flight), where in_flight =
  /// live workers × shard trials (certify: StreamingMerger::horizon, the
  /// same look-ahead rule as the in-process scheduler; ensemble: the fleet
  /// size, since every trial is needed).
  std::function<std::uint64_t(std::uint64_t in_flight)> horizon;
  std::function<bool()> done;
  std::function<void(BatchResult&&)> deliver;
  /// Fired after every successful batch dispatch (the server counts
  /// process-wide dispatches for the kill_worker_after test hook).
  std::function<void()> on_dispatch;
  /// Observability hook (S29): fired for every successfully parsed batch
  /// result, before deliver, with the supervisor slot and the daemon-side
  /// dispatch-to-collect latency. The server stitches worker trace
  /// events, folds metric deltas, and attributes per-worker latency to
  /// the query's flight record here.
  std::function<void(int, const BatchResult&, std::uint64_t)> observe;
  double wall_budget = 0.0;  ///< seconds; <= 0 = unlimited

  // Filled by run() for the flight record.
  std::uint64_t batches_collected = 0;
  std::uint64_t trials_reassigned = 0;

  struct Inflight {
    Range range;
    Clock::time_point sent;
  };

  static std::uint64_t micros_since(Clock::time_point start) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              start)
            .count());
  }

  /// "" on success; an error message otherwise.
  std::string run() {
    Metrics& metrics = Metrics::get();
    const Clock::time_point started = Clock::now();
    std::uint64_t frontier = 0;
    std::deque<Range> retry;
    std::map<int, Inflight> inflight;

    const auto retire = [&](int worker, const Range& range, bool reassign) {
      supervisor.report_dead(worker);
      metrics.worker_deaths.add();
      if (reassign) {
        metrics.trials_reassigned.add(range.count);
        trials_reassigned += range.count;
        retry.push_back(range);
      }
    };

    while (!done()) {
      if (wall_budget > 0.0 && seconds_since(started) > wall_budget) {
        cancel(inflight);
        return "query wall budget exceeded";
      }
      // Everything the fold can still consume has been folded and nothing
      // is pending: the trial budget is exhausted without a decision.
      if (retry.empty() && inflight.empty() && frontier >= total_trials)
        break;

      // Dispatch: retries first (they block the fold frontier), then
      // fresh ranges below the look-ahead horizon.
      while (true) {
        const bool from_retry = !retry.empty();
        Range range;
        if (from_retry) {
          range = retry.front();
        } else {
          const std::uint64_t alive =
              std::max<std::uint64_t>(1, supervisor.alive());
          const std::uint64_t in_flight =
              shard > UINT64_MAX / alive ? UINT64_MAX : alive * shard;
          if (frontier >= std::min(total_trials, horizon(in_flight))) break;
          range.first = frontier;
          range.count = std::min(shard, total_trials - frontier);
        }
        const int worker = supervisor.try_acquire();
        if (worker < 0) break;
        prototype.first = range.first;
        prototype.count = range.count;
        bool sent = false;
        try {
          obs::ObsSpan span("dispatch", "serve");
          span.set_value(static_cast<double>(range.first));
          write_frame(supervisor.fd(worker), encode_batch_request(prototype));
          sent = true;
        } catch (...) {
        }
        if (!sent) {
          // The range was not consumed; just retire the worker.
          retire(worker, range, /*reassign=*/false);
          continue;
        }
        if (from_retry)
          retry.pop_front();
        else
          frontier += range.count;
        inflight.emplace(worker, Inflight{range, Clock::now()});
        metrics.batches_dispatched.add();
        if (on_dispatch) on_dispatch();
      }

      if (inflight.empty()) {
        if (supervisor.alive() == 0) return "all workers died";
        // Work remains but every live worker is serving another query.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }

      // Collect whatever responses are ready.
      std::vector<pollfd> fds;
      std::vector<int> workers;
      fds.reserve(inflight.size());
      for (const auto& [worker, entry] : inflight) {
        fds.push_back(pollfd{supervisor.fd(worker), POLLIN, 0});
        workers.push_back(worker);
      }
      ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const int worker = workers[i];
        const Inflight entry = inflight.at(worker);
        inflight.erase(worker);
        if (!collect(worker, entry, /*cancelled=*/false))
          retire(worker, entry.range, /*reassign=*/true);
      }
    }

    cancel(inflight);
    return "";
  }

  /// Read one worker's reply to `entry` and deliver it. A reply is taken
  /// only if it covers exactly the dispatched range (parse_batch_result
  /// checks each record's trial index against `first`) or, from a worker
  /// this query cancelled, a prefix of it starting at `first`; an IO
  /// failure, a malformed frame or any other range is refused with false,
  /// and the caller retires the worker — its records were never
  /// delivered.
  bool collect(int worker, const Inflight& entry, bool cancelled) {
    try {
      std::string payload;
      if (!read_frame(supervisor.fd(worker), payload)) return false;
      BatchResult result = parse_batch_result(Json::parse(payload));
      const std::uint64_t shipped = result.records.size();
      if (result.first != entry.range.first ||
          shipped > entry.range.count ||
          (!cancelled && shipped != entry.range.count))
        return false;
      ++batches_collected;
      if (observe) observe(worker, result, micros_since(entry.sent));
      deliver(std::move(result));
    } catch (const std::exception&) {
      return false;
    }
    supervisor.release(worker);
    return true;
  }

  /// Stop every batch still in flight: each such worker gets a cancel op,
  /// stops before its next trial and replies with the records it finished
  /// (a worker that already replied sends the whole range and drops the
  /// cancel as stale). Reading that one reply per worker leaves no frame
  /// on its socket for the next query. The sinks drop records the fold no
  /// longer needs.
  void cancel(std::map<int, Inflight>& inflight) {
    Metrics& metrics = Metrics::get();
    for (auto it = inflight.begin(); it != inflight.end();) {
      try {
        write_frame(supervisor.fd(it->first), encode_cancel());
        ++it;
      } catch (...) {
        supervisor.report_dead(it->first);
        metrics.worker_deaths.add();
        it = inflight.erase(it);
      }
    }
    for (const auto& [worker, entry] : inflight) {
      if (collect(worker, entry, /*cancelled=*/true)) continue;
      supervisor.report_dead(worker);
      metrics.worker_deaths.add();
    }
    inflight.clear();
  }
};

}  // namespace

struct Server::Impl {
  ServerOptions options;
  Supervisor supervisor;
  int listen_fd = -1;
  std::uint16_t port = 0;
  Clock::time_point started = Clock::now();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> dispatched_total{0};
  std::atomic<bool> kill_fired{false};

  /// One admitted query waiting for a runner.
  struct QueuedJob {
    int fd = -1;
    QueryParams query;
    std::uint64_t seq = 0;  ///< query_seq == trace_id (S29)
    Clock::time_point enqueued;
  };

  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  std::deque<QueuedJob> queue;
  std::vector<std::thread> runners;

  std::atomic<std::uint64_t> next_seq{1};
  obs::FlightRecorder flight;
  std::unique_ptr<obs::PromHttpServer> prom;

  explicit Impl(const ServerOptions& server_options)
      : options(server_options),
        supervisor(SupervisorOptions{server_options.workers,
                                     server_options.remote_workers}),
        flight(server_options.flight_capacity) {
    if (options.prom_port >= 0)
      prom = std::make_unique<obs::PromHttpServer>(
          static_cast<std::uint16_t>(options.prom_port));
    listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0)
      throw std::runtime_error("ppde serve: cannot create socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options.port);
    if (::inet_pton(AF_INET, options.host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("ppde serve: bad host '" + options.host + "'");
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
            0 ||
        ::listen(listen_fd, 16) < 0)
      throw std::runtime_error("ppde serve: cannot bind " + options.host +
                               ":" + std::to_string(options.port));
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                  &bound_len);
    port = ntohs(bound.sin_port);
  }

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // -- query execution ----------------------------------------------------

  /// kill_worker_after test hook: SIGKILL one local worker exactly once,
  /// after the Nth batch dispatched across all queries.
  void note_dispatch() {
    const std::uint64_t count = ++dispatched_total;
    if (options.kill_worker_after != 0 &&
        count == options.kill_worker_after && !kill_fired.exchange(true))
      supervisor.kill_one();
  }

  /// The shared observability tail of a batch result (S29): stitch the
  /// worker's trace events into the daemon's tracer, fold its metric
  /// deltas into `worker.*`, and attribute latency to the flight record.
  void observe_result(int worker, const BatchResult& result,
                      std::uint64_t micros, obs::QueryFlight& record) {
    if (!result.metric_deltas.empty())
      obs::merge_deltas("worker.", result.metric_deltas);
    if (obs::Tracer* tracer = obs::Tracer::active();
        tracer != nullptr && result.worker_pid != 0 &&
        !result.trace.empty()) {
      const std::string group =
          "ppde worker " + std::to_string(result.worker_pid);
      for (const obs::CapturedEvent& event : result.trace)
        tracer->emit_foreign(result.worker_pid, group, event);
    }
    record.trials_executed += result.records.size();
    Metrics::get().trials_delivered.add(result.records.size());
    for (obs::WorkerLatency& latency : record.workers) {
      if (latency.worker != worker) continue;
      ++latency.batches;
      latency.total_micros += micros;
      latency.max_micros = std::max(latency.max_micros, micros);
      return;
    }
    record.workers.push_back(obs::WorkerLatency{worker, 1, micros, micros});
  }

  /// The batch every worker range of `query` is cut from (first/count are
  /// filled per dispatch). trace_id asks workers to ship span deltas back
  /// iff this daemon is tracing.
  static BatchRequest batch_prototype(const QueryParams& query,
                                      std::uint64_t seq) {
    return BatchRequest{
        .n = query.n,
        .extra = query.extra,
        .seed = query.seed,
        .first = 0,
        .count = 0,
        .window = query.window,
        .budget = query.budget,
        .scenario = query.scenario,
        .trace_id = obs::Tracer::active() != nullptr ? seq : 0};
  }

  std::string run_certify(const QueryParams& query, obs::QueryFlight& record) {
    const Clock::time_point began = Clock::now();
    const Statement& statement = cached_statement(query.n);
    const std::uint64_t m = statement.num_pointers + query.extra;
    const std::uint64_t population =
        statement.conversion.initial_config(m).total();
    const bool expected =
        bignum::Nat(query.extra) >= statement.threshold;
    const smc::CertifyOptions certify_options = certify_options_of(query);
    smc::StreamingMerger merger(certify_options);

    obs::ObsSpan query_span("query", "serve");
    query_span.set_value(static_cast<double>(record.seq));

    Pump pump{
        .supervisor = supervisor,
        .prototype = batch_prototype(query, record.seq),
        .total_trials = certify_options.max_trials,
        .shard = std::max<std::uint64_t>(1, query.shard ? query.shard
                                                        : options.shard),
        .horizon =
            [&](std::uint64_t in_flight) {
              return merger.horizon(in_flight);
            },
        .done = [&] { return merger.decided(); },
        .deliver =
            [&](BatchResult&& result) {
              obs::ObsSpan fold_span("merge_fold", "serve");
              fold_span.set_value(static_cast<double>(result.first));
              std::vector<smc::TrialOutcome> outcomes;
              outcomes.reserve(result.records.size());
              for (const engine::TrialResult& trial : result.records)
                outcomes.push_back(
                    smc::outcome_of(trial, expected, population));
              merger.absorb(result.first, std::move(outcomes));
            },
        .on_dispatch = [this] { note_dispatch(); },
        .observe =
            [&](int worker, const BatchResult& result,
                std::uint64_t micros) {
              observe_result(worker, result, micros, record);
            },
        .wall_budget = options.max_query_seconds,
        .batches_collected = 0,
        .trials_reassigned = 0};
    const std::string error = pump.run();
    record.batches = pump.batches_collected;
    record.reassigned = pump.trials_reassigned;
    if (!error.empty()) return encode_error(error);

    smc::Certificate certificate = merger.finish();
    certificate.protocol_fingerprint = statement.fingerprint;
    certificate.population = population;
    certificate.expected_output = expected;
    certificate.wall_seconds = seconds_since(began);
    certificate.threads_used = supervisor.alive();
    record.verdict = smc::to_string(certificate.verdict);
    char digest_hex[20];
    std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                  static_cast<unsigned long long>(
                      smc::certificate_digest(certificate)));
    record.digest = digest_hex;

    smc::JsonWriter out;
    out.field("ok", true);
    out.field("verdict", std::string_view(smc::to_string(
                             certificate.verdict)));
    out.raw_field("certificate", smc::to_jsonl(certificate));
    return out.finish();
  }

  std::string run_ensemble(const QueryParams& query,
                           obs::QueryFlight& record) {
    const Clock::time_point began = Clock::now();
    const Statement& statement = cached_statement(query.n);
    const std::uint64_t m = statement.num_pointers + query.extra;
    const std::uint64_t total = query.trials;
    if (total == 0) return encode_error("ensemble query with zero trials");

    std::vector<engine::TrialResult> results(total);
    std::vector<char> seen(total, 0);
    std::uint64_t remaining = total;

    obs::ObsSpan query_span("query", "serve");
    query_span.set_value(static_cast<double>(record.seq));

    Pump pump{
        .supervisor = supervisor,
        .prototype = batch_prototype(query, record.seq),
        .total_trials = total,
        .shard = std::max<std::uint64_t>(1, query.shard ? query.shard
                                                        : options.shard),
        .horizon = [total](std::uint64_t) { return total; },
        .done = [&] { return remaining == 0; },
        .deliver =
            [&](BatchResult&& result) {
              // collect() vouches that the records cover exactly a
              // dispatched range inside [0, total).
              for (std::size_t i = 0; i < result.records.size(); ++i) {
                const std::uint64_t trial = result.first + i;
                if (seen[trial]) continue;
                seen[trial] = 1;
                results[trial] = std::move(result.records[i]);
                --remaining;
              }
            },
        .on_dispatch = [this] { note_dispatch(); },
        .observe =
            [&](int worker, const BatchResult& result,
                std::uint64_t micros) {
              observe_result(worker, result, micros, record);
            },
        .wall_budget = options.max_query_seconds,
        .batches_collected = 0,
        .trials_reassigned = 0};
    const std::string error = pump.run();
    record.batches = pump.batches_collected;
    record.reassigned = pump.trials_reassigned;
    if (!error.empty()) return encode_error(error);
    if (remaining != 0)
      return encode_error(std::to_string(remaining) + " of " +
                          std::to_string(total) +
                          " ensemble trials never arrived");

    // Per-trial results in trial order; aggregation is then exactly
    // engine::run_ensemble's (same records, same order).
    engine::EnsembleStats stats = engine::aggregate(results);
    stats.wall_seconds = seconds_since(began);
    stats.threads_used = supervisor.alive();

    smc::JsonWriter out;
    out.field("ok", true);
    // Non-default scenarios run on the per-agent fallback in the workers;
    // report the engine that actually executed.
    out.raw_field("summary",
                  smc::to_jsonl(stats, m, query.seed,
                                query.scenario.empty()
                                    ? engine::EngineKind::kCountNullSkip
                                    : engine::EngineKind::kPerAgent));
    return out.finish();
  }

  std::string run_stats(const QueryParams& query) {
    std::uint64_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      depth = queue.size();
    }
    smc::JsonWriter out;
    out.field("ok", true);
    if (query.format == "prometheus") {
      // The scrape text as one escaped JSON string — for clients that want
      // the exposition without the daemon opening a second port.
      out.field("prometheus",
                std::string_view(obs::Registry::global().to_prometheus()));
      return out.finish();
    }
    if (!query.format.empty())
      return encode_error("unknown stats format '" + query.format + "'");
    out.field("uptime_seconds", seconds_since(started));
    out.field("workers_alive", static_cast<std::uint64_t>(supervisor.alive()));
    out.field("workers_total", static_cast<std::uint64_t>(supervisor.total()));
    out.field("queue_depth", depth);
    out.raw_field("metrics", obs::Registry::global().to_json());
    if (query.recent != 0) {
      // Newest-first flight records, each already a complete JSON object.
      std::string array = "[";
      bool first_record = true;
      for (const obs::QueryFlight& record : flight.recent(query.recent)) {
        if (!first_record) array += ",";
        first_record = false;
        array += obs::FlightRecorder::to_json(record);
      }
      array += "]";
      out.raw_field("recent", array);
    }
    return out.finish();
  }

  // -- connection handling ------------------------------------------------

  static void respond_and_close(int fd, const std::string& payload) {
    try {
      write_frame(fd, payload);
    } catch (...) {
      // The client went away; nothing to clean up beyond the fd.
    }
    ::close(fd);
  }

  /// Record a query rejected at admission in the flight recorder, so
  /// `stats?recent=N` explains refusals, not just completions.
  void record_rejection(const QueryParams& query, const std::string& why) {
    obs::QueryFlight record;
    record.seq = next_seq.fetch_add(1);
    record.req = query.req;
    record.n = query.n < 0 ? 0 : static_cast<std::uint64_t>(query.n);
    record.trials = query.trials;
    record.outcome = "rejected";
    record.detail = why;
    flight.add(std::move(record));
  }

  void handle_connection(int fd) {
    Metrics& metrics = Metrics::get();
    // Bound how long a silent client can stall the accept loop.
    timeval timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    std::string payload;
    QueryParams query;
    try {
      if (!read_frame(fd, payload)) {
        ::close(fd);
        return;
      }
      query = parse_query(Json::parse(payload));
    } catch (const std::exception& error) {
      respond_and_close(fd, encode_error(error.what()));
      return;
    }
    metrics.queries_total.add();
    if (query.req == "stats") {
      respond_and_close(fd, run_stats(query));
      return;
    }
    if (query.req == "shutdown") {
      smc::JsonWriter out;
      out.field("ok", true);
      out.field("stopping", true);
      respond_and_close(fd, out.finish());
      request_stop();
      return;
    }
    if (query.req != "certify" && query.req != "ensemble") {
      metrics.queries_rejected.add();
      record_rejection(query, "unknown req '" + query.req + "'");
      respond_and_close(fd, encode_error("unknown req '" + query.req + "'"));
      return;
    }
    if (query.n < 1) {
      metrics.queries_rejected.add();
      record_rejection(query, "n must be >= 1");
      respond_and_close(fd, encode_error("n must be >= 1"));
      return;
    }
    // Reject a malformed scenario descriptor at admission, before the
    // query consumes any worker time.
    if (!query.scenario.empty()) {
      try {
        (void)sched::Scenario::parse(query.scenario);
      } catch (const std::exception& error) {
        metrics.queries_rejected.add();
        record_rejection(query, error.what());
        respond_and_close(fd, encode_error(error.what()));
        return;
      }
    }
    if (query.trials > options.max_trials_cap) {
      metrics.queries_rejected.add();
      record_rejection(query, "trial budget exceeds the daemon cap");
      respond_and_close(
          fd, encode_error("trial budget exceeds the daemon cap of " +
                           std::to_string(options.max_trials_cap)));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(queue_mutex);
      if (queue.size() >= options.queue_limit) {
        metrics.queries_rejected.add();
        record_rejection(query, "queue full");
        respond_and_close(fd, encode_error("queue full", /*busy=*/true));
        return;
      }
      queue.push_back(QueuedJob{fd, std::move(query), next_seq.fetch_add(1),
                                Clock::now()});
      metrics.queue_depth.set(static_cast<double>(queue.size()));
    }
    queue_cv.notify_one();
  }

  void runner_loop() {
    Metrics& metrics = Metrics::get();
    while (true) {
      QueuedJob job;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock,
                      [&] { return stop.load() || !queue.empty(); });
        if (queue.empty()) return;  // stop requested and drained
        job = std::move(queue.front());
        queue.pop_front();
        metrics.queue_depth.set(static_cast<double>(queue.size()));
      }
      const std::uint64_t waited = Pump::micros_since(job.enqueued);
      metrics.admission_wait.record(waited);
      metrics.active.set(metrics.active.value() + 1.0);

      obs::QueryFlight record;
      record.seq = job.seq;
      record.req = job.query.req;
      record.n = static_cast<std::uint64_t>(job.query.n);
      record.trials = job.query.trials;
      record.outcome = "ok";
      record.queue_wait_micros = waited;
      // A queue_wait instant on the daemon track marks where the query sat
      // before a runner picked it up (the span itself belongs to no thread).
      {
        obs::ObsSpan wait_mark("queue_wait", "serve");
        wait_mark.set_value(static_cast<double>(waited));
      }

      const Clock::time_point began = Clock::now();
      std::string response;
      try {
        response = job.query.req == "ensemble"
                       ? run_ensemble(job.query, record)
                       : run_certify(job.query, record);
      } catch (const std::exception& error) {
        response = encode_error(error.what());
        record.detail = error.what();
      }
      record.wall_seconds = seconds_since(began);
      // An "ok":false frame is an error outcome; capture the message so the
      // flight recorder explains it without the client's copy of the reply.
      if (response.rfind("{\"ok\":false", 0) == 0) {
        record.outcome = "error";
        if (record.detail.empty()) record.detail = response;
      }
      flight.add(std::move(record));
      respond_and_close(job.fd, response);
      metrics.active.set(metrics.active.value() - 1.0);
    }
  }

  void run() {
    std::signal(SIGPIPE, SIG_IGN);
    // Announce every live local worker as a trace track group up front, so
    // a fleet member shows in the stitched trace even before (or without)
    // its first traced batch.
    if (obs::Tracer* tracer = obs::Tracer::active()) {
      for (const pid_t pid : supervisor.live_pids())
        tracer->announce_process(
            static_cast<std::uint64_t>(pid),
            "ppde worker " + std::to_string(pid));
    }
    // The scrape listener's thread starts here — after the constructor's
    // fork()s — never in the constructor.
    if (prom) prom->start();
    for (unsigned i = 0; i < std::max(1u, options.max_active); ++i)
      runners.emplace_back([this] { runner_loop(); });
    while (!stop.load()) {
      pollfd poll_fd{listen_fd, POLLIN, 0};
      const int ready = ::poll(&poll_fd, 1, 200);
      if (ready <= 0) continue;
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) continue;
      handle_connection(conn);
    }
    queue_cv.notify_all();
    for (std::thread& runner : runners) runner.join();
    runners.clear();
    if (prom) prom->stop();
    // Reject whatever was still queued (runners exit once the queue is
    // empty; anything left arrived in the stop window).
    std::lock_guard<std::mutex> lock(queue_mutex);
    for (QueuedJob& job : queue)
      respond_and_close(job.fd, encode_error("server shutting down"));
    queue.clear();
  }

  void request_stop() {
    stop.store(true);
    queue_cv.notify_all();
  }
};

Server::Server(const ServerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Server::~Server() = default;

std::uint16_t Server::port() const { return impl_->port; }

std::uint16_t Server::prom_port() const {
  return impl_->prom ? impl_->prom->port() : 0;
}

void Server::run() { impl_->run(); }

void Server::request_stop() { impl_->request_stop(); }

}  // namespace ppde::serve
